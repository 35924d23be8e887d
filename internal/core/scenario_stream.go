package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// The streaming scenario planner. RunScenarioStream is the one
// execution path behind every study: grid points leave the planner one
// at a time, in deterministic row-major order, as soon as they (and all
// their predecessors) finish — the engine's out-of-order completions
// pass through a bounded reorder window (engine.MapStream), so a slow
// consumer exerts backpressure on simulation instead of the planner
// materializing the whole grid. RunScenario collects the stream into
// the batch table, which makes batch and stream byte-identical by
// construction.

// streamEmitter delivers grid points to the caller's yield in row-major
// order, interleaving cached points (known up front) with computed ones
// as they become ready.
type streamEmitter struct {
	ctx     context.Context
	sc      *Scenario
	grid    []gridPoint
	digests []string
	cached  []*ScenarioPoint
	// build assembles the computed point at grid index p, reporting
	// false while its measurements are still in flight.
	build func(p int) (ScenarioPoint, bool)
	yield func(ScenarioPoint) error
	next  int
}

// advance emits every point that is ready, stopping at the first one
// still in flight. Cancellation is checked per point so a mid-grid
// cancel stops the stream promptly even while draining cached points.
func (e *streamEmitter) advance() error {
	for e.next < len(e.grid) {
		if err := context.Cause(e.ctx); err != nil {
			return err
		}
		p := e.next
		if c := e.cached[p]; c != nil {
			t0 := time.Now()
			if err := e.yield(*c); err != nil {
				return err
			}
			mStageEmit.ObserveSince(t0)
			mPtsCached.Inc()
			e.next++
			continue
		}
		t0 := time.Now()
		pt, ok := e.build(p)
		if !ok {
			return nil
		}
		mStageCopyout.ObserveSince(t0)
		if e.sc.PointCache != nil {
			e.sc.PointCache.PutPoint(e.digests[p], pt)
		}
		t0 = time.Now()
		if err := e.yield(pt); err != nil {
			return err
		}
		mStageEmit.ObserveSince(t0)
		mPtsComputed.Inc()
		e.next++
	}
	return nil
}

// RunScenarioStream canonicalizes the spec, expands the axes into a run
// grid, and executes the points on pooled replayers through the engine
// (nil selects the default engine), compiling each replayed trace
// flavor exactly once. Completed points are delivered to yield in
// row-major spec order (last axis group fastest) — identical point
// values and order to RunScenario's table — with at most a bounded
// window of results held between the engine's completion order and the
// emission order. An error from yield aborts the run, as does ctx
// cancellation; unstarted grid points are then never simulated. The
// returned header is what a complete result carries alongside the
// points.
//
// When spec.PointCache is set, each grid point is first looked up by
// its per-point digest and cache hits are emitted without scheduling
// any simulation — a spec overlapping a previously computed grid
// simulates only the gap. Freshly computed points are stored back.
func RunScenarioStream(ctx context.Context, eng *engine.Engine, spec Scenario, yield func(ScenarioPoint) error) (*ScenarioHeader, error) {
	sc, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	hdr, err := sc.header()
	if err != nil {
		return nil, err
	}
	base, err := sc.canonicalBase()
	if err != nil {
		return nil, err
	}
	grid, err := sc.grid()
	if err != nil {
		return nil, err
	}
	digests := make([]string, len(grid))
	cached := make([]*ScenarioPoint, len(grid))
	for p := range grid {
		if digests[p], err = pointDigest(base, grid[p].coords); err != nil {
			return nil, err
		}
		if sc.PointCache != nil {
			if cp, ok := sc.PointCache.GetPoint(digests[p]); ok {
				cached[p] = &cp
			}
		}
	}
	x := newScenarioExec(&sc)
	em := &streamEmitter{ctx: ctx, sc: &sc, grid: grid, digests: digests, cached: cached, yield: yield}

	switch sc.Output {
	case OutputFinish, OutputTraffic, OutputReport:
		if err := streamMeasured(ctx, eng, x, em); err != nil {
			return nil, err
		}
	case OutputWhatIf:
		err = streamPerPoint(ctx, eng, em, func(ctx context.Context, pt gridPoint) (ScenarioPoint, error) {
			t0 := time.Now()
			run, err := x.runAt(pt)
			if err != nil {
				return ScenarioPoint{}, err
			}
			mStageTrace.ObserveSince(t0)
			wi, err := WhatIfRun(ctx, eng, run, pt.plat)
			if err != nil {
				return ScenarioPoint{}, err
			}
			pd, err := pt.plat.Digest()
			if err != nil {
				return ScenarioPoint{}, err
			}
			return ScenarioPoint{WhatIf: wi.Wire(pt.ranks, pd)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Trailing cached points (and the whole grid when nothing computed).
	if err := em.advance(); err != nil {
		return nil, err
	}
	return hdr, nil
}

// reportFlavors are the flavors of a report point, in wire order.
var reportFlavors = []Flavor{FlavorBase, FlavorReal, FlavorIdeal}

// measureJob is one deduplicated unit of work of a measured grid: one
// flavor replayed on one platform, or, for a report point, the pattern
// analysis of one (ranks, chunks) workload coordinate (flavor "").
type measureJob struct {
	pt gridPoint
	f  Flavor
}

// measured is what a measureJob yields. Finish, traffic and report
// points are all assembled from it.
type measured struct {
	digest string
	sum    sim.Summary
	// fault is set instead of sum when injected hard faults stalled the
	// replay of a finish or traffic measurement.
	fault string
	// app and an are the pattern job's output.
	app string
	an  *pattern.Analysis
}

// streamMeasured runs a finish, traffic or report grid as one job per
// distinct measurement and streams the assembled points.
//
// Distinct (program, platform) pairs replay once however many grid
// points share them: a chunks axis varies only the overlapped flavors,
// so the chunk-independent base replays one time, not once per chunk
// count, and a report's patterns, which do not depend on the platform,
// are analyzed once per (ranks, chunks). Deduped points reuse the same
// measurement — deterministic replays make that byte-identical to
// replaying each point independently.
func streamMeasured(ctx context.Context, eng *engine.Engine, x *scenarioExec, em *streamEmitter) error {
	sc, grid, cached := em.sc, em.grid, em.cached
	report := sc.Output == OutputReport
	flavors := sc.Flavors
	nj := len(flavors) // jobs per point
	if report {
		flavors = reportFlavors
		nj = len(flavors) + 1 // and the pattern job
	}
	jobOf := make([]int, len(grid)*nj)
	maxJob := make([]int, len(grid))
	platDigest := make([]string, len(grid)) // report points only
	var jobs []measureJob
	var uses []int
	seen := map[string]int{}
	use := func(p, k int, key string, job measureJob) {
		j, ok := seen[key]
		if !ok {
			j = len(jobs)
			seen[key] = j
			jobs = append(jobs, job)
			uses = append(uses, 0)
		}
		jobOf[p*nj+k] = j
		uses[j]++
		if j > maxJob[p] {
			maxJob[p] = j
		}
	}
	for p, pt := range grid {
		maxJob[p] = -1
		if cached[p] != nil {
			continue
		}
		platJSON, err := pt.plat.CanonicalJSON()
		if err != nil {
			return err
		}
		for k, f := range flavors {
			ranks, chunks := pt.ranks, pt.chunks
			if sc.Trace != nil {
				ranks, chunks = 0, 0
			} else if f == FlavorBase {
				chunks = sc.Tracer.Chunks // mirrors progFor's normalization
			}
			use(p, k, fmt.Sprintf("%d|%d|%s|%s", ranks, chunks, f, platJSON), measureJob{pt: pt, f: f})
		}
		if report {
			if platDigest[p], err = pt.plat.Digest(); err != nil {
				return err
			}
			use(p, len(flavors), fmt.Sprintf("%d|%d|patterns", pt.ranks, pt.chunks), measureJob{pt: pt})
		}
	}
	// A measurement is retained only while some unemitted point still
	// references it; jobsDone tracks the contiguous prefix of completed
	// jobs, which (job indices being assigned in first-use order) is
	// exactly what makes a point's measurements complete.
	outs := map[int]measured{}
	jobsDone := 0
	ms := make([]measured, nj) // one point's measurements, reused by every build
	em.build = func(p int) (ScenarioPoint, bool) {
		if maxJob[p] >= jobsDone {
			return ScenarioPoint{}, false
		}
		for k := range ms {
			j := jobOf[p*nj+k]
			ms[k] = outs[j]
			if uses[j]--; uses[j] == 0 {
				delete(outs, j)
			}
		}
		pt := ScenarioPoint{Coords: grid[p].coords, Digest: em.digests[p]}
		if report {
			pt.Report = reportPoint(grid[p], platDigest[p], ms)
			return pt, true
		}
		pt.Flavors = make([]FlavorMeasure, nj)
		for k, m := range ms {
			fm := FlavorMeasure{Flavor: flavors[k], TraceDigest: m.digest, FinishSec: m.sum.FinishSec, Fault: m.fault}
			if sc.Output == OutputTraffic && m.fault == "" {
				fm.Traffic = &WireTraffic{
					IntraBytes: m.sum.IntraBytes,
					InterBytes: m.sum.InterBytes,
					IntraMsgs:  m.sum.IntraMsgs,
					InterMsgs:  m.sum.InterMsgs,
				}
			}
			pt.Flavors[k] = fm
		}
		return pt, true
	}
	if err := em.advance(); err != nil { // cached prefix before any job
		return err
	}
	// Report replays run serially; finish and traffic grids may shard.
	shards := 1
	if !report {
		if shards = sc.ReplayShards; shards == 0 {
			shards = pointShards(eng, len(jobs))
		}
	}
	return engine.MapStream(ctx, eng, len(jobs), 0, func(ctx context.Context, j int) (measured, error) {
		pt, f := jobs[j].pt, jobs[j].f
		if f == "" {
			return x.patterns(pt)
		}
		m, err := x.measure(pt, f, shards)
		if err != nil {
			var dl *sim.DeadlockError
			if !report && errors.As(err, &dl) && dl.FaultInduced() {
				// Injected hard faults severed ranks this flavor needed.
				// In a what-breaks-first grid that is a result, not a
				// failure: report the point as faulted instead of
				// aborting the study. Genuine trace deadlocks (nothing
				// dropped) stay hard errors below, and so does any stall
				// of a report, whose wire form has no fault field.
				mPtsFaulted.Inc()
				m.fault = fmt.Sprintf("deadlock: %d ranks blocked, %d transfers lost to downed NICs/links", len(dl.Blocked), dl.Dropped)
				return m, nil
			}
			return measured{}, fmt.Errorf("core: scenario point %v %s: %w", pt.coords, f, err)
		}
		return m, nil
	}, func(j int, m measured) error {
		outs[j] = m
		jobsDone = j + 1
		return em.advance()
	})
}

// measure replays one flavor of one grid point into a summary on a
// pooled arena. In app mode the point's traced run resolves first, so
// the trace stage times tracing and the compile stage times only the
// flavor build, validation, digest and compile of progFor (memo hits
// included in both). On a replay error the returned measurement still
// carries the trace digest.
func (x *scenarioExec) measure(pt gridPoint, f Flavor, shards int) (measured, error) {
	if x.sc.Trace == nil {
		t0 := time.Now()
		if _, err := x.runFor(pt.ranks); err != nil {
			return measured{}, err
		}
		mStageTrace.ObserveSince(t0)
	}
	t0 := time.Now()
	prog, digest, err := x.progFor(pt.ranks, pt.chunks, f)
	if err != nil {
		return measured{}, err
	}
	mStageCompile.ObserveSince(t0)
	t0 = time.Now()
	sum, err := sim.ReplayShardsSummary(pt.plat, prog, shards)
	mStageReplay.ObserveSince(t0)
	return measured{digest: digest, sum: sum}, err
}

// patterns analyzes the production and consumption patterns of one grid
// point's traced run.
func (x *scenarioExec) patterns(pt gridPoint) (measured, error) {
	t0 := time.Now()
	run, err := x.runAt(pt)
	if err != nil {
		return measured{}, err
	}
	mStageTrace.ObserveSince(t0)
	t0 = time.Now()
	an := pattern.Analyze(run)
	mStagePatterns.ObserveSince(t0)
	return measured{app: run.Name, an: an}, nil
}

// reportPoint assembles a report point's wire form from its three flavor
// measurements and its pattern analysis, in the shape Report.Wire gives
// a full analysis of the same point.
func reportPoint(pt gridPoint, platDigest string, ms []measured) *WireReport {
	pat := ms[len(reportFlavors)]
	w := &WireReport{
		App:            pat.app,
		Ranks:          pt.ranks,
		PlatformDigest: platDigest,
		Platform:       pt.plat.Describe(),
		Flavors:        make([]WireFlavor, len(reportFlavors)),
		SpeedupReal:    metrics.Speedup(ms[0].sum.FinishSec, ms[1].sum.FinishSec),
		SpeedupIdeal:   metrics.Speedup(ms[0].sum.FinishSec, ms[2].sum.FinishSec),
		Patterns:       wirePatterns(pat.an),
	}
	for k, f := range reportFlavors {
		w.Flavors[k] = wireFlavor(f, ms[k].digest, ms[k].sum)
	}
	return w
}

// pointShards picks the intra-point shard request for a grid of njobs
// replay jobs. A grid with at least as many jobs as the engine has
// workers already saturates the cores through inter-point parallelism,
// so every point replays serially; a small grid (one point, a handful of
// flavors) leaves workers idle, and those move inside each replay as
// conservative-PDES shards instead (sim.ReplayShardsSummary). Sharded and
// serial replays are byte-identical, so the choice is pure scheduling —
// it can never change a result. Platforms that cannot shard fall back to
// serial inside sim.EffectiveShards.
func pointShards(eng *engine.Engine, njobs int) int {
	if eng == nil {
		eng = engine.Default()
	}
	w := eng.Workers()
	if njobs <= 0 || njobs >= w {
		return 1
	}
	// Split the worker pool evenly across the in-flight jobs.
	return w / njobs
}

// streamPerPoint runs one engine job per uncached grid point (the
// what-if output has no cross-point sharing to dedupe) and streams the
// assembled points through the emitter.
func streamPerPoint(ctx context.Context, eng *engine.Engine, em *streamEmitter, fn func(ctx context.Context, pt gridPoint) (ScenarioPoint, error)) error {
	var uncached []int
	for p := range em.grid {
		if em.cached[p] == nil {
			uncached = append(uncached, p)
		}
	}
	done := map[int]ScenarioPoint{} // grid index → computed payload
	em.build = func(p int) (ScenarioPoint, bool) {
		pt, ok := done[p]
		if !ok {
			return ScenarioPoint{}, false
		}
		delete(done, p)
		pt.Coords = em.grid[p].coords
		pt.Digest = em.digests[p]
		return pt, true
	}
	if err := em.advance(); err != nil { // cached prefix before any job
		return err
	}
	return engine.MapStream(ctx, eng, len(uncached), 0, func(ctx context.Context, i int) (ScenarioPoint, error) {
		return fn(ctx, em.grid[uncached[i]])
	}, func(i int, pt ScenarioPoint) error {
		done[uncached[i]] = pt
		return em.advance()
	})
}
