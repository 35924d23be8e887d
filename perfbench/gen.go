package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/service"
)

// Request generation. Every workload draws from a fixed pool of calls
// whose golden digests are stored under golden/: the pools never depend
// on the run seed, so one regeneration covers every seed. The seed only
// chooses which pool entries a run sends and in which order.

// Routes a call can take.
const (
	routeScenario = "scenario" // POST /v1/scenarios (client.ScenarioRaw)
	routeAnalyze  = "analyze"  // POST /v1/analyze (client.AnalyzeRaw)
	routeSweep    = "sweep"    // POST /v1/sweep/bandwidth
	routeUpload   = "upload"   // POST /v1/traces
)

// call is one generated request.
type call struct {
	// key names the call in the golden files and in divergence reports.
	key string
	// route selects the endpoint; exactly the matching request field is
	// used.
	route    string
	scenario service.ScenarioRequest
	analyze  service.AnalyzeRequest
	sweep    service.BandwidthSweepRequest
	// traceRef names a setup trace: the stored trace a trace-mode
	// scenario or sweep replays, or the trace an upload sends. Digests
	// are content addresses, so resolving the name at send time yields
	// the same request bytes on every run.
	traceRef string
	// class groups calls for the per-class breakdown in the metadata.
	class string
	// points is how many scenario grid points the response delivers.
	points int
}

// poolSeed fixes the pool generator.
const poolSeed = 0x5eedb0a7

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// ---------------------------------------------------------------------------
// cold-report

// coldReportPool is every (app, ranks, chunks) report study of the
// six-app pool: ranks from {8, 16, 32} (bt at most 16), chunks from
// {2, 4, 8}.
func coldReportPool() []call {
	var pool []call
	for _, app := range apps.Names {
		for _, ranks := range []int{8, 16, 32} {
			if app == "bt" && ranks > 16 {
				continue
			}
			for _, chunks := range []int{2, 4, 8} {
				pool = append(pool, call{
					key:   fmt.Sprintf("cr/%s/r%d/c%d", app, ranks, chunks),
					route: routeScenario,
					scenario: service.ScenarioRequest{
						App: app, Ranks: ranks, Chunks: chunks, Output: string(core.OutputReport),
					},
					class:  app,
					points: 1,
				})
			}
		}
	}
	return pool
}

// ---------------------------------------------------------------------------
// replay-sweep

// Replay-sweep pool shape: sweepRounds rounds, each with the grid sizes
// of sweepGrids for both traces. Every bandwidth value is fresh within
// its trace across the whole pool, so no run ever hits the result or
// point cache.
const (
	sweepRounds = 250
	sweepRanks  = 64
	// sweepPlatform has no finite intra-node bus pool (IntraBuses = 0)
	// and puts 64 ranks on four nodes, so the planner's PDES choice for
	// one-point grids really shards the replay.
	sweepPlatform = "fatnode-smp"
	// sweepWarmBW is the warm-up bandwidth, outside the pool's range so
	// the warm-up point never answers a measured one.
	sweepWarmBW = 99.5
)

var (
	sweepApps = []string{"pop", "sweep3d"}
	// sweepGrids lists one round's grid sizes per trace. One-point grids
	// come twice, so the median request is a one-point pop grid — where
	// the planner's default PDES choice shows — instead of falling on a
	// boundary between two request classes.
	sweepGrids = []int{1, 1, 4, 48}
)

// sweepTraceRef names the uploaded overlap-real trace of an app.
func sweepTraceRef(app string) string { return fmt.Sprintf("%s%d-real", app, sweepRanks) }

// replaySweepPool returns the warm-up calls (one per trace) and the
// measured rounds.
func replaySweepPool() (warm []call, rounds [][]call) {
	rng := newRand(poolSeed, 2)
	seen := map[string]map[float64]bool{}
	fresh := func(app string) float64 {
		if seen[app] == nil {
			seen[app] = map[float64]bool{}
		}
		for {
			// 100.00 .. 1499.99 MB/s in steps of 0.01.
			bw := 100 + float64(rng.IntN(140000))/100
			if !seen[app][bw] {
				seen[app][bw] = true
				return bw
			}
		}
	}
	for _, app := range sweepApps {
		warm = append(warm, sweepCall("rs/warm/"+app, app, []core.Axis{core.BandwidthAxis(sweepWarmBW)}, 1))
	}
	for r := range sweepRounds {
		var round []call
		for _, app := range sweepApps {
			for j, n := range sweepGrids {
				var axes []core.Axis
				if n == 48 {
					bws := make([]float64, n/2)
					for i := range bws {
						bws[i] = fresh(app)
					}
					axes = []core.Axis{core.BandwidthAxis(bws...), core.MappingAxis("block", "rr")}
				} else {
					bws := make([]float64, n)
					for i := range bws {
						bws[i] = fresh(app)
					}
					axes = []core.Axis{core.BandwidthAxis(bws...)}
				}
				round = append(round, sweepCall(fmt.Sprintf("rs/%03d/%s/%d-%dpt", r, app, j, n), app, axes, n))
			}
		}
		rounds = append(rounds, round)
	}
	return warm, rounds
}

func sweepCall(key, app string, axes []core.Axis, points int) call {
	return call{
		key:   key,
		route: routeScenario,
		scenario: service.ScenarioRequest{
			Platform: &service.PlatformSpec{Preset: sweepPlatform},
			Axes:     axes,
			Output:   string(core.OutputFinish),
		},
		traceRef: sweepTraceRef(app),
		class:    fmt.Sprintf("grid-%d", points),
		points:   points,
	}
}

// ---------------------------------------------------------------------------
// Closed-loop dealing

// deck deals calls in seeded shuffled rounds. Each round sends every
// call of one pool round exactly once, so a run of whole rounds has the
// same request mix whatever the seed; the seed changes the order, and
// for a finite pool which rounds are dealt.
type deck struct {
	rng    *rand.Rand
	rounds [][]call
	repeat bool  // deal rounds[0] forever instead of each round once
	order  []int // seeded order of rounds
	cur    []int // seeded order within the current round
	r, pos int
}

func newDeck(seed uint64, rounds [][]call, repeat bool) *deck {
	d := &deck{rng: newRand(seed, 1), rounds: rounds, repeat: repeat}
	if !repeat {
		d.order = d.rng.Perm(len(rounds))
	}
	d.r = -1
	return d
}

// next returns the next call and whether it closes its round; ok is
// false once a finite deck is exhausted.
func (d *deck) next() (c *call, roundEnd, ok bool) {
	if d.cur == nil || d.pos == len(d.cur) {
		d.r++
		if !d.repeat && d.r >= len(d.order) {
			return nil, false, false
		}
		d.cur = d.rng.Perm(len(d.round()))
		d.pos = 0
	}
	c = &d.round()[d.cur[d.pos]]
	d.pos++
	return c, d.pos == len(d.cur), true
}

// slot is the position, in its pool round, of the call dealt last.
// Every round is built alike, so calls in one slot do like work.
func (d *deck) slot() int { return d.cur[d.pos-1] }

func (d *deck) round() []call {
	if d.repeat {
		return d.rounds[0]
	}
	return d.rounds[d.order[d.r]]
}

// ---------------------------------------------------------------------------
// serve-cluster

// Serve-cluster mix: every block of mixBlock consecutive arrivals holds
// exactly these class counts, in a seeded order, so no seed changes how
// much work a run offers.
const (
	mixBlock   = 50
	mixWorking = 43                                           // Zipf-weighted repeats of cheap studies
	mixFresh   = 1                                            // fresh superset grids (point-cache resume, fan-out)
	mixLegacy  = 4                                            // legacy endpoints duplicating a scenario study
	mixUpload  = mixBlock - mixWorking - mixFresh - mixLegacy // trace uploads

	clusterRanks = 16
	// clusterFreshPool bounds how many fresh supersets one run can send.
	clusterFreshPool = 900
	// clusterFreshPoints is how many new points a fresh superset adds.
	clusterFreshPoints = 24
	// zipfS is the working set's Zipf exponent.
	zipfS = 1.2
)

// clusterBWs is the bandwidth axis of the working set's finish studies.
var clusterBWs = []float64{250, 500, 1000}

// clusterPool is the serve-cluster request pool.
type clusterPool struct {
	working []call // most popular first
	legacy  []call
	uploads []call
	fresh   []call
}

// clusterPlatform is the hierarchical preset of the working set's
// trace-mode and mapping studies.
const clusterPlatform = "marenostrum-4x"

// clusterTraceRef is the stored trace the trace-mode studies replay.
const clusterTraceRef = "cg16-real"

// clusterUploads names the traces the upload class sends.
var clusterUploads = []string{"cg16-real", "cg16-base", "alya16-real", "specfem3d16-real"}

func newClusterPool() *clusterPool {
	p := &clusterPool{}
	mapping := &service.PlatformSpec{Preset: clusterPlatform}
	finish := func(app string) service.ScenarioRequest {
		return service.ScenarioRequest{App: app, Ranks: clusterRanks, Output: string(core.OutputFinish),
			Axes: []core.Axis{core.BandwidthAxis(clusterBWs...)}}
	}
	traceFinish := service.ScenarioRequest{Platform: mapping, Output: string(core.OutputFinish),
		Axes: []core.Axis{core.BandwidthAxis(clusterBWs...)}}
	report := func(app string) service.ScenarioRequest {
		return service.ScenarioRequest{App: app, Ranks: clusterRanks, Output: string(core.OutputReport)}
	}
	w := func(name string, req service.ScenarioRequest, ref string, points int) {
		p.working = append(p.working, call{key: "sc/w/" + name, route: routeScenario, scenario: req,
			traceRef: ref, class: "working", points: points})
	}
	w("cg-finish", finish("cg"), "", 3)
	w("cg-report", report("cg"), "", 1)
	w("trace-finish", traceFinish, clusterTraceRef, 3)
	w("alya-finish", finish("alya"), "", 3)
	w("specfem3d-finish", finish("specfem3d"), "", 3)
	w("cg-traffic", service.ScenarioRequest{App: "cg", Ranks: clusterRanks, Platform: mapping,
		Output: string(core.OutputTraffic), Axes: []core.Axis{core.MappingAxis("block", "rr")}}, "", 2)
	w("alya-report", report("alya"), "", 1)
	w("specfem3d-report", report("specfem3d"), "", 1)
	w("alya-chunks", service.ScenarioRequest{App: "alya", Ranks: clusterRanks, Output: string(core.OutputFinish),
		Axes: []core.Axis{core.ChunksAxis(2, 4, 8)}}, "", 3)
	w("specfem3d-latency", service.ScenarioRequest{App: "specfem3d", Ranks: clusterRanks, Output: string(core.OutputFinish),
		Axes: []core.Axis{core.LatencyAxis(1e-6, 5e-6, 2e-5)}}, "", 3)

	for _, app := range []string{"cg", "alya", "specfem3d"} {
		p.legacy = append(p.legacy, call{key: "sc/l/analyze-" + app, route: routeAnalyze,
			analyze: service.AnalyzeRequest{App: app, Ranks: clusterRanks}, class: "legacy", points: 1})
	}
	p.legacy = append(p.legacy,
		call{key: "sc/l/sweep-cg", route: routeSweep, class: "legacy", points: len(clusterBWs),
			sweep: service.BandwidthSweepRequest{App: "cg", Ranks: clusterRanks, Flavor: string(core.FlavorReal), Bandwidths: clusterBWs}},
		call{key: "sc/l/sweep-trace", route: routeSweep, class: "legacy", points: len(clusterBWs), traceRef: clusterTraceRef,
			sweep: service.BandwidthSweepRequest{Platform: mapping, Bandwidths: clusterBWs}})

	for _, ref := range clusterUploads {
		p.uploads = append(p.uploads, call{key: "sc/u/" + ref, route: routeUpload, traceRef: ref, class: "upload"})
	}

	// Fresh supersets extend the cg finish study's bandwidth axis with
	// clusterFreshPoints values no other pool entry uses. One base study
	// keeps the class's latency tight, so the open loop's tail sits
	// inside it.
	rng := newRand(poolSeed, 3)
	seen := map[float64]bool{}
	for _, bw := range clusterBWs {
		seen[bw] = true
	}
	for i := range clusterFreshPool {
		bws := append([]float64(nil), clusterBWs...)
		for len(bws) < len(clusterBWs)+clusterFreshPoints {
			bw := 100 + float64(rng.IntN(190000))/100
			if !seen[bw] {
				seen[bw] = true
				bws = append(bws, bw)
			}
		}
		c := p.working[0]
		c.key = fmt.Sprintf("sc/f/%04d", i)
		c.class = "fresh"
		c.scenario.Axes = []core.Axis{core.BandwidthAxis(bws...)}
		c.points = len(bws)
		p.fresh = append(p.fresh, c)
	}
	return p
}

// all lists every call of the pool (the golden set).
func (p *clusterPool) all() []call {
	var out []call
	for _, cs := range [][]call{p.working, p.legacy, p.uploads, p.fresh} {
		out = append(out, cs...)
	}
	return out
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due  time.Duration // offset from the start of the measured phase
	c    *call
	node int
}

// clusterSchedule draws the open-loop arrival sequence: a fixed rate,
// each block of mixBlock arrivals a seeded shuffle of the mix's class
// counts, working-set entries by Zipf rank, fresh supersets without
// replacement, nodes uniformly.
func clusterSchedule(seed uint64, p *clusterPool, rate float64, dur time.Duration, nodes int) ([]arrival, error) {
	rng := newRand(seed, 3)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(p.working)-1))
	freshOrder := rng.Perm(len(p.fresh))
	var block []string
	for _, c := range []struct {
		class string
		n     int
	}{{"working", mixWorking}, {"fresh", mixFresh}, {"legacy", mixLegacy}, {"upload", mixUpload}} {
		for range c.n {
			block = append(block, c.class)
		}
	}
	n := int(rate * dur.Seconds())
	out := make([]arrival, 0, n)
	nextFresh := 0
	for i := range n {
		if i%mixBlock == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		a := arrival{due: time.Duration(float64(i) / rate * float64(time.Second))}
		switch block[i%mixBlock] {
		case "working":
			a.c = &p.working[zipf.Uint64()]
		case "fresh":
			if nextFresh == len(freshOrder) {
				return nil, fmt.Errorf("fresh superset pool exhausted after %d arrivals (pool %d): lower the rate or the run length", i, len(p.fresh))
			}
			a.c = &p.fresh[freshOrder[nextFresh]]
			nextFresh++
		case "legacy":
			a.c = &p.legacy[rng.IntN(len(p.legacy))]
		default:
			a.c = &p.uploads[rng.IntN(len(p.uploads))]
		}
		a.node = rng.IntN(nodes)
		out = append(out, a)
	}
	return out, nil
}
