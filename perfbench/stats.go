package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb converts a byte count to mebibytes.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs that has at least
// tailBeyond samples above it, with the percentile it sits at. With
// tailBeyond or fewer samples it returns the maximum at percentile 100
// and ok=false: the sample cannot support a tail estimate.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 100, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	i := n - tailBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// medianTail returns the median of the groups' tails with the mean
// percentile they sit at. One stall in an open loop delays every request
// due during it; taking the tail per arrival window and then the median
// keeps a stall in one window from setting the run's tail. One group is
// the plain tail.
func medianTail(groups [][]float64) (v, pct float64, ok bool) {
	tails := make([]float64, len(groups))
	ok = len(groups) > 0
	for i, g := range groups {
		t, p, good := tail(g)
		tails[i] = t
		pct += p / float64(len(groups))
		ok = ok && good
	}
	return median(tails), pct, ok
}

// window is a stretch of the measured phase — one closed-loop call, or
// the arrivals due in one open-loop window, which hold one whole request
// mix: samples[lo:hi], how long it lasted, and the share of the host's
// CPU time other tenants stole meanwhile. Windows of one stratum do like
// work.
type window struct {
	lo, hi  int
	dur     time.Duration
	steal   float64
	stratum int
}

// windowMark is an open window: where and when it started.
type windowMark struct {
	at           time.Time
	lo           int
	steal, total uint64
}

// openWindow starts a window at sample index lo.
func openWindow(lo int) windowMark {
	steal, total := hostCPU()
	return windowMark{at: time.Now(), lo: lo, steal: steal, total: total}
}

// close ends the window before sample index hi.
func (m windowMark) close(hi int) window {
	steal, total := hostCPU()
	w := window{lo: m.lo, hi: hi, dur: time.Since(m.at)}
	if total > m.total {
		w.steal = float64(steal-m.steal) / float64(total-m.total)
	}
	return w
}

// quietWindows returns, of each stratum, the two thirds of its windows,
// rounded up, during which other tenants stole the least host CPU, in
// their original order; ties keep the earlier window. On a shared host
// the stolen share moves every timing, and it comes and goes while a run
// lasts; dropping the noisiest third measures the program rather than
// its neighbours. Choosing within strata keeps the request mix, and the
// two thirds kept still hold enough of the rarest class for a tail.
func quietWindows(ws []window) []window {
	strata := map[int][]int{}
	for i, w := range ws {
		strata[w.stratum] = append(strata[w.stratum], i)
	}
	var keep []int
	for _, idx := range strata {
		sort.SliceStable(idx, func(a, b int) bool { return ws[idx[a]].steal < ws[idx[b]].steal })
		keep = append(keep, idx[:(2*len(idx)+2)/3]...)
	}
	sort.Ints(keep)
	out := make([]window, len(keep))
	for i, k := range keep {
		out[i] = ws[k]
	}
	return out
}

// meanSteal is the duration-weighted stolen share over ws.
func meanSteal(ws []window) float64 {
	var sum, dur float64
	for _, w := range ws {
		sum += w.steal * w.dur.Seconds()
		dur += w.dur.Seconds()
	}
	return ratio(sum, dur)
}

// timing holds the timing metrics of a set of windows.
type timing struct {
	n                  int // successful samples
	p50, tail, tailPct float64
	tailOK             bool
	rps, pps           float64
	tailClasses        map[string]int
}

// timings computes the latency, throughput and point-rate metrics over
// the successful samples of ws. perWindow takes the tail per window
// (medianTail) instead of over the pooled samples.
func timings(samples []sample, ws []window, perWindow bool) timing {
	var t timing
	var lats []float64
	var groups [][]float64
	var ok []sample
	var wall time.Duration
	points := 0
	for _, w := range ws {
		var g []float64
		for _, s := range samples[w.lo:w.hi] {
			if s.ok {
				g = append(g, ms(s.lat))
				ok = append(ok, s)
				points += s.points
			}
		}
		lats = append(lats, g...)
		groups = append(groups, g)
		wall += w.dur
	}
	if !perWindow {
		groups = [][]float64{lats}
	}
	t.n = len(lats)
	t.p50 = median(lats)
	t.tail, t.tailPct, t.tailOK = medianTail(groups)
	t.rps = ratio(float64(len(lats)), wall.Seconds())
	t.pps = ratio(float64(points), wall.Seconds())
	t.tailClasses = tailClasses(ok)
	return t
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// round6 trims float noise for metadata fields printed for people.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }
