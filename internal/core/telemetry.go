package core

import "repro/internal/telemetry"

// Per-point stage timings of the scenario stream. Six stages cover a
// point's life:
//
//   - trace: resolving the point's traced run (tracing the application
//     once per world size; memo and trace-cache hits included, so the
//     histogram shows the amortization)
//   - compile: the flavor program of progFor — trace build, validation,
//     digest and sim.Compile, memo hits included — and, for what-if
//     outputs, each per-buffer trace build and compile
//   - replay: the replays alone
//   - patterns: pattern.Analyze of a report point's run
//   - copyout: assembling the wire-format point from the measurements
//   - emit: the consumer's yield (an NDJSON encoder, a table printer, a
//     cache fill)
var (
	scenarioStage  = telemetry.Default().HistogramVec("scenario_stage_seconds", "per-point stage timings of the scenario stream", 1e-9, "stage")
	mStageTrace    = scenarioStage.With("trace")
	mStageCompile  = scenarioStage.With("compile")
	mStageReplay   = scenarioStage.With("replay")
	mStagePatterns = scenarioStage.With("patterns")
	mStageCopyout  = scenarioStage.With("copyout")
	mStageEmit     = scenarioStage.With("emit")
	scenarioPoints = telemetry.Default().CounterVec("scenario_points_total", "scenario grid points emitted, by origin", "source")
	mPtsComputed   = scenarioPoints.With("computed")
	mPtsCached     = scenarioPoints.With("cached")
	mPtsFaulted    = telemetry.Default().Counter("scenario_points_faulted_total", "flavor measurements reported as fault-induced stalls (injected faults severed required ranks)")
)
