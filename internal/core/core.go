// Package core is the public face of the framework: it chains the tracer
// (Valgrind equivalent), the replay simulator (Dimemas equivalent), the
// pattern analyzer, and the visualization layer into the one-call pipeline
// the paper describes in Section III.
//
// One Analyze call performs what the paper's Figure 3 shows: the
// application executes once under instrumentation, the tracer emits the
// non-overlapped trace plus the two overlapped traces, Dimemas-style replay
// reconstructs all three time behaviours on the configured platform, and
// the results are bundled with the production/consumption pattern analysis.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// App is an application kernel the framework can analyze.
type App struct {
	// Name labels traces and reports (lower-case, e.g. "cg").
	Name string
	// Kernel runs one rank of the application against the instrumented
	// API.
	Kernel func(p *tracer.Proc)
}

// Flavor selects one of the three reconstructed executions.
type Flavor string

// The three execution flavours of the paper, spelled as the engine's
// trace cache and trace.Trace.Flavor spell them.
const (
	FlavorBase  Flavor = engine.FlavorBase
	FlavorReal  Flavor = engine.FlavorReal
	FlavorIdeal Flavor = engine.FlavorIdeal
)

// Report is the full output of one analysis.
type Report struct {
	App   string
	Ranks int
	// Network is the flat projection of the platform (the interconnect
	// link class), kept for legacy reporting paths.
	Network network.Config
	// Platform is the full (possibly hierarchical) platform the report
	// was computed on; all re-replays (bandwidth searches, sweeps) use
	// it. For flat analyses it is the degenerate one-rank-per-node form.
	Platform network.Platform

	// Traces are the three generated traces (validated).
	BaseTrace, RealTrace, IdealTrace *trace.Trace

	// Results are the three reconstructed time behaviours on Network.
	Base, Real, Ideal *sim.Result

	// SpeedupReal and SpeedupIdeal compare overlapped flavours against
	// the non-overlapped execution (Fig. 6a).
	SpeedupReal, SpeedupIdeal float64

	// Patterns holds the Table II / Fig. 5 analysis.
	Patterns *pattern.Analysis

	// progs lazily caches the compiled replay program of each flavour, so
	// the bandwidth searches and sweeps — which replay one flavour dozens
	// of times on platform variants — compile it once.
	progMu sync.Mutex
	progs  map[Flavor]*sim.Program
}

// programOf returns the flavour's compiled replay program, compiling and
// caching it on first use. Safe for concurrent use.
func (r *Report) programOf(f Flavor) (*sim.Program, error) {
	tr := r.TraceOf(f)
	if tr == nil {
		return nil, fmt.Errorf("core: unknown flavor %q", f)
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if prog, ok := r.progs[f]; ok {
		return prog, nil
	}
	prog, err := sim.Compile(tr)
	if err != nil {
		return nil, err
	}
	if r.progs == nil {
		r.progs = make(map[Flavor]*sim.Program, 3)
	}
	r.progs[f] = prog
	return prog, nil
}

// Analyze traces the application once on ranks processes and reconstructs
// the three execution flavours on the platform plat (a flat
// network.Config enters as cfg.Platform()). The three build-and-replay
// jobs run concurrently on eng (nil selects the default engine).
func Analyze(ctx context.Context, eng *engine.Engine, app App, ranks int, plat network.Platform, tCfg tracer.Config) (*Report, error) {
	if app.Kernel == nil {
		return nil, fmt.Errorf("core: app %q has no kernel", app.Name)
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	run, err := tracer.Trace(app.Name, ranks, tCfg, app.Kernel)
	if err != nil {
		return nil, fmt.Errorf("core: tracing %q: %w", app.Name, err)
	}
	return AnalyzeRun(ctx, eng, run, plat)
}

// AnalyzeRun reconstructs the three execution flavours of an
// already-traced run on plat — the fan-out half of Analyze. Callers that
// trace through the engine's shared cache (engine.TraceCache) use it to
// analyze one traced execution under many platforms without re-tracing.
// Each flavour's trace build, compile and fresh-arena replay is one
// engine job.
func AnalyzeRun(ctx context.Context, eng *engine.Engine, run *tracer.Run, plat network.Platform) (*Report, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{App: run.Name, Ranks: run.NumRanks, Network: plat.InterConfig(), Platform: plat}
	type flavorJob struct {
		flavor Flavor
		build  func() *trace.Trace
	}
	jobs := []flavorJob{
		{FlavorBase, run.BaseTrace},
		{FlavorReal, run.OverlapReal},
		{FlavorIdeal, run.OverlapIdeal},
	}
	type flavorOut struct {
		tr  *trace.Trace
		res *sim.Result
	}
	outs, err := engine.Map(ctx, eng, len(jobs), func(ctx context.Context, i int) (flavorOut, error) {
		tr := jobs[i].build()
		if err := tr.Validate(); err != nil {
			return flavorOut{}, fmt.Errorf("core: generated trace invalid: %w", err)
		}
		prog, err := sim.Compile(tr)
		if err != nil {
			return flavorOut{}, fmt.Errorf("core: compiling %s: %w", jobs[i].flavor, err)
		}
		res, err := sim.RunProgram(plat, prog)
		if err != nil {
			return flavorOut{}, fmt.Errorf("core: replaying %s: %w", jobs[i].flavor, err)
		}
		return flavorOut{tr: tr, res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.BaseTrace, rep.Base = outs[0].tr, outs[0].res
	rep.RealTrace, rep.Real = outs[1].tr, outs[1].res
	rep.IdealTrace, rep.Ideal = outs[2].tr, outs[2].res
	rep.SpeedupReal = metrics.Speedup(rep.Base.FinishSec, rep.Real.FinishSec)
	rep.SpeedupIdeal = metrics.Speedup(rep.Base.FinishSec, rep.Ideal.FinishSec)
	rep.Patterns = pattern.Analyze(run)
	return rep, nil
}

// TraceOf returns the generated trace of one flavour.
func (r *Report) TraceOf(f Flavor) *trace.Trace {
	switch f {
	case FlavorBase:
		return r.BaseTrace
	case FlavorReal:
		return r.RealTrace
	case FlavorIdeal:
		return r.IdealTrace
	default:
		return nil
	}
}

// ResultOf returns the reconstructed behaviour of one flavour on the
// report's platform.
func (r *Report) ResultOf(f Flavor) *sim.Result {
	switch f {
	case FlavorBase:
		return r.Base
	case FlavorReal:
		return r.Real
	case FlavorIdeal:
		return r.Ideal
	default:
		return nil
	}
}

// FinishOn replays one flavour's trace on a modified hierarchical platform
// and returns its makespan. The flavour's compiled program is cached on
// the report and the replay runs on a pooled arena, so search loops
// (metrics.MinBandwidth probes this dozens of times) pay for compilation
// once and allocate no per-replay simulator state.
func (r *Report) FinishOn(f Flavor, plat network.Platform) (float64, error) {
	prog, err := r.programOf(f)
	if err != nil {
		return 0, err
	}
	return sim.ReplayFinish(plat, prog)
}

// finishFunc adapts FinishOn to the metrics search interface, swapping
// only the interconnect bandwidth of the report's platform: on a
// hierarchical platform the searches stress the interconnect while the
// intra-node links stay fixed, which is the knob a cluster buyer controls.
func (r *Report) finishFunc(f Flavor) metrics.FinishFunc {
	return func(bw float64) (float64, error) {
		return r.FinishOn(f, r.Platform.WithInterBandwidth(bw))
	}
}

// RelaxedBandwidth reproduces Fig. 6b for this application: the minimum
// bandwidth at which the overlapped execution still matches the
// performance of the non-overlapped execution on the report's reference
// platform. Lower is better — it quantifies how much cheaper a network the
// overlapped code tolerates.
func (r *Report) RelaxedBandwidth(f Flavor, opts metrics.SearchOptions) (float64, error) {
	if f == FlavorBase {
		return 0, fmt.Errorf("core: RelaxedBandwidth needs an overlapped flavor")
	}
	return metrics.MinBandwidth(r.finishFunc(f), r.Base.FinishSec, opts)
}

// EquivalentBandwidth reproduces Fig. 6c: the bandwidth the non-overlapped
// execution would need to match the overlapped execution on the reference
// platform. +Inf means no bandwidth suffices (the Sweep3D result).
func (r *Report) EquivalentBandwidth(f Flavor, opts metrics.SearchOptions) (float64, error) {
	if f == FlavorBase {
		return 0, fmt.Errorf("core: EquivalentBandwidth needs an overlapped flavor")
	}
	target := r.ResultOf(f).FinishSec
	return metrics.MinBandwidth(r.finishFunc(FlavorBase), target, opts)
}

// BandwidthSweep replays one flavour across the given interconnect
// bandwidths and returns the finish-time series, the raw data behind the
// Fig. 6 plots. Every bandwidth point replays the shared flavour program
// on one worker of eng (nil selects the default engine), and the series
// keeps the input bandwidth order.
func (r *Report) BandwidthSweep(ctx context.Context, eng *engine.Engine, f Flavor, bandwidths []float64) (*metrics.Series, error) {
	fins, err := engine.Map(ctx, eng, len(bandwidths), func(ctx context.Context, i int) (float64, error) {
		return r.FinishOn(f, r.Platform.WithInterBandwidth(bandwidths[i]))
	})
	if err != nil {
		return nil, err
	}
	s := &metrics.Series{Label: fmt.Sprintf("%s/%s", r.App, f)}
	for i, bw := range bandwidths {
		s.Add(bw, fins[i])
	}
	return s, nil
}
