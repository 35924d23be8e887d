package main

import (
	"maps"
	"math"
	"slices"
	"testing"
	"time"
)

// dealKeys deals n calls from a fresh deck and returns their keys and
// the indices where rounds end.
func dealKeys(t *testing.T, seed uint64, rounds [][]call, repeat bool, n int) ([]string, []int) {
	t.Helper()
	d := newDeck(seed, rounds, repeat)
	var keys []string
	var ends []int
	for i := range n {
		c, end, ok := d.next()
		if !ok {
			t.Fatalf("deck exhausted after %d calls", i)
		}
		keys = append(keys, c.key)
		if end {
			ends = append(ends, i)
		}
	}
	return keys, ends
}

func scheduleKeys(t *testing.T, seed uint64) []string {
	t.Helper()
	sched, err := clusterSchedule(seed, newClusterPool(), 500, 10*time.Second, clusterNodes)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(sched))
	for i, a := range sched {
		keys[i] = a.c.key + "@" + string(rune('0'+a.node))
	}
	return keys
}

func TestSameSeedSameSequence(t *testing.T) {
	cold := [][]call{coldReportPool()}
	_, sweep := replaySweepPool()
	for _, seed := range []uint64{1, 7, 1 << 40} {
		a, _ := dealKeys(t, seed, cold, true, 200)
		b, _ := dealKeys(t, seed, cold, true, 200)
		if !slices.Equal(a, b) {
			t.Errorf("cold-report seed %d: two deals differ", seed)
		}
		a, _ = dealKeys(t, seed, sweep, false, 400)
		b, _ = dealKeys(t, seed, sweep, false, 400)
		if !slices.Equal(a, b) {
			t.Errorf("replay-sweep seed %d: two deals differ", seed)
		}
		if !slices.Equal(scheduleKeys(t, seed), scheduleKeys(t, seed)) {
			t.Errorf("serve-cluster seed %d: two schedules differ", seed)
		}
	}
}

func TestSeedChangesDraws(t *testing.T) {
	cold := [][]call{coldReportPool()}
	_, sweep := replaySweepPool()
	a, _ := dealKeys(t, 1, cold, true, 102)
	b, _ := dealKeys(t, 2, cold, true, 102)
	if slices.Equal(a, b) {
		t.Error("cold-report: seeds 1 and 2 deal the same sequence")
	}
	a, _ = dealKeys(t, 1, sweep, false, 80)
	b, _ = dealKeys(t, 2, sweep, false, 80)
	if slices.Equal(a, b) {
		t.Error("replay-sweep: seeds 1 and 2 deal the same sequence")
	}
	if slices.Equal(scheduleKeys(t, 1), scheduleKeys(t, 2)) {
		t.Error("serve-cluster: seeds 1 and 2 draw the same schedule")
	}
}

// Every round of a deck holds the same mix whatever the seed: the whole
// pool for cold-report, the same class counts for replay-sweep.
func TestSeedKeepsRoundMix(t *testing.T) {
	pool := coldReportPool()
	want := make([]string, len(pool))
	for i, c := range pool {
		want[i] = c.key
	}
	slices.Sort(want)
	for _, seed := range []uint64{1, 2, 3} {
		keys, ends := dealKeys(t, seed, [][]call{pool}, true, 3*len(pool))
		if len(ends) != 3 || ends[0] != len(pool)-1 {
			t.Fatalf("seed %d: rounds end at %v", seed, ends)
		}
		for r := range 3 {
			round := slices.Clone(keys[r*len(pool) : (r+1)*len(pool)])
			slices.Sort(round)
			if !slices.Equal(round, want) {
				t.Errorf("seed %d round %d is not the whole pool", seed, r)
			}
		}
	}

	_, rounds := replaySweepPool()
	for _, seed := range []uint64{1, 2, 3} {
		d := newDeck(seed, rounds, false)
		classes := map[string]int{}
		n := 0
		for {
			c, end, ok := d.next()
			if !ok {
				t.Fatalf("seed %d: deck exhausted", seed)
			}
			classes[c.class]++
			if end {
				n++
				if n == 5 {
					break
				}
			}
		}
		for class, got := range classes {
			want := 5 * len(sweepApps)
			if class == "grid-1" {
				want *= 2
			}
			if got != want {
				t.Errorf("seed %d: %d %s calls in 5 rounds, want %d", seed, got, class, want)
			}
		}
	}
}

// Every block of the open-loop schedule holds the mix's exact class
// counts, whatever the seed, and nodes are drawn uniformly.
func TestScheduleMix(t *testing.T) {
	want := map[string]int{"working": mixWorking, "fresh": mixFresh, "legacy": mixLegacy, "upload": mixUpload}
	for _, seed := range []uint64{1, 2, 3} {
		sched, err := clusterSchedule(seed, newClusterPool(), 1000, 20*time.Second, clusterNodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched)%mixBlock != 0 {
			t.Fatalf("schedule of %d arrivals is not whole blocks", len(sched))
		}
		nodes := make([]int, clusterNodes)
		for b := 0; b < len(sched); b += mixBlock {
			got := map[string]int{}
			for _, a := range sched[b : b+mixBlock] {
				got[a.c.class]++
				nodes[a.node]++
			}
			if !maps.Equal(got, want) {
				t.Fatalf("seed %d block at %d: classes %v, want %v", seed, b, got, want)
			}
		}
		n := float64(len(sched))
		for i, k := range nodes {
			if d := math.Abs(float64(k)/n - 1.0/clusterNodes); d > 0.02 {
				t.Errorf("seed %d: node %d gets %.3f of the requests", seed, i, float64(k)/n)
			}
		}
	}
}

// Pools never depend on the seed and name every call uniquely, and
// fresh entries never repeat a point within their base study.
func TestPoolsFixed(t *testing.T) {
	keys := map[string]bool{}
	add := func(cs []call) {
		for _, c := range cs {
			if keys[c.key] {
				t.Errorf("duplicate pool key %s", c.key)
			}
			keys[c.key] = true
		}
	}
	warm, rounds := replaySweepPool()
	add(coldReportPool())
	add(warm)
	for _, r := range rounds {
		add(r)
	}
	add(newClusterPool().all())
	if len(coldReportPool()) != 51 {
		t.Errorf("cold-report pool has %d studies, want 51", len(coldReportPool()))
	}
	_, again := replaySweepPool()
	if !slices.EqualFunc(rounds[7], again[7], func(a, b call) bool {
		return a.key == b.key && slices.Equal(a.scenario.Axes[0].Values, b.scenario.Axes[0].Values)
	}) {
		t.Error("replay-sweep pool differs between two builds")
	}
	seen := map[string]map[float64]bool{}
	for _, r := range rounds {
		for _, c := range r {
			if seen[c.traceRef] == nil {
				seen[c.traceRef] = map[float64]bool{}
			}
			for _, bw := range c.scenario.Axes[0].Values {
				if seen[c.traceRef][bw] {
					t.Fatalf("%s repeats bandwidth %g", c.key, bw)
				}
				seen[c.traceRef][bw] = true
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("ten samples cannot support a tail with ten beyond it")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestMedianTail(t *testing.T) {
	var groups [][]float64
	for range 3 {
		g := make([]float64, 100)
		for i := range g {
			g[i] = float64(i)
		}
		groups = append(groups, g)
	}
	// A stall in one window does not move the median of the tails.
	for i := 10; i < 40; i++ {
		groups[0][i] = 1000
	}
	v, _, ok := medianTail(groups)
	if !ok || v != 89 {
		t.Errorf("median tail = %v (ok %v), want 89", v, ok)
	}
	pooled := append(append(append([]float64(nil), groups[0]...), groups[1]...), groups[2]...)
	if v, _, _ := medianTail([][]float64{pooled}); v != 1000 {
		t.Errorf("one-group tail = %v, want 1000", v)
	}
}

func TestQuietWindows(t *testing.T) {
	ws := []window{{lo: 0, steal: 0.2}, {lo: 1, steal: 0.01}, {lo: 2, steal: 0.3}, {lo: 3, steal: 0.01}, {lo: 4, steal: 0.25}, {lo: 5, steal: 0}, {lo: 6, steal: 0.2},
		// A stratum of its own keeps its quietest two of three, however
		// noisy they are next to the first stratum.
		{lo: 7, steal: 0.5, stratum: 1}, {lo: 8, steal: 0.4, stratum: 1}, {lo: 9, steal: 0.6, stratum: 1}}
	got := quietWindows(ws)
	want := []int{0, 1, 3, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("kept %d windows, want %d", len(got), len(want))
	}
	for i, w := range got {
		if w.lo != want[i] {
			t.Errorf("kept window %d = %d, want %d (quietest, ties to the earlier, in run order)", i, w.lo, want[i])
		}
	}
}
