package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// Chunk-count ablation built on the pipeline. Every point is a pure
// function of the traced run and its chunk count, so the sweep is a
// scenario: the application is traced once, the per-point trace rebuilds
// and replays fan out across the engine's worker pool, and results come
// back in input order, byte-identical to the serial reference path.

// ChunkPoint is one measurement of the chunk-count ablation.
type ChunkPoint struct {
	Chunks                    int
	SpeedupReal, SpeedupIdeal float64
}

// ChunkSweep measures overlap speedups across chunk counts on plat. The
// paper fixes 4 chunks; the sweep quantifies that design choice. It is a
// thin wrapper over a scenario spec — a chunks axis measuring all three
// flavors — so the application is traced once, each chunk count rebuilds
// the overlapped traces from a copy-on-write variant of the shared run,
// the chunk-independent base flavor compiles once, and every replay runs
// on a pooled arena of eng (nil selects the default engine).
func ChunkSweep(ctx context.Context, eng *engine.Engine, app App, ranks int, plat network.Platform, tCfg tracer.Config, counts []int) ([]ChunkPoint, error) {
	res, err := RunScenario(ctx, eng, Scenario{
		App: app, Ranks: ranks, Tracer: tCfg, Platform: plat,
		Flavors: []Flavor{FlavorBase, FlavorReal, FlavorIdeal},
		Axes:    []Axis{ChunksAxis(counts...)},
		Output:  OutputFinish,
	})
	if err != nil {
		return nil, err
	}
	out := make([]ChunkPoint, len(res.Points))
	for i, pt := range res.Points {
		base, real, ideal := pt.Flavors[0].FinishSec, pt.Flavors[1].FinishSec, pt.Flavors[2].FinishSec
		out[i] = ChunkPoint{
			Chunks:       counts[i],
			SpeedupReal:  metrics.Speedup(base, real),
			SpeedupIdeal: metrics.Speedup(base, ideal),
		}
	}
	return out, nil
}

// ChunkSweepSerial is the serial reference implementation of ChunkSweep:
// one goroutine, the original loop, every replay compiled and run on a
// fresh arena. It exists so determinism tests and
// BenchmarkEngineParallelSweep can assert the engine path returns
// byte-identical results while measuring its speedup.
func ChunkSweepSerial(app App, ranks int, plat network.Platform, tCfg tracer.Config, counts []int) ([]ChunkPoint, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	for _, k := range counts {
		if k <= 0 {
			return nil, fmt.Errorf("core: chunk count %d", k)
		}
	}
	run, err := tracer.Trace(app.Name, ranks, tCfg, app.Kernel)
	if err != nil {
		return nil, err
	}
	baseFinish, err := finishOf(run.BaseTrace(), plat)
	if err != nil {
		return nil, err
	}
	out := make([]ChunkPoint, 0, len(counts))
	for _, k := range counts {
		// The copy-on-write variant rebuilds the overlapped traces under a
		// different chunking of the same event log.
		kRun := run.WithChunks(k)
		real, err := finishOf(kRun.OverlapReal(), plat)
		if err != nil {
			return nil, fmt.Errorf("core: chunks=%d real: %w", k, err)
		}
		ideal, err := finishOf(kRun.OverlapIdeal(), plat)
		if err != nil {
			return nil, fmt.Errorf("core: chunks=%d ideal: %w", k, err)
		}
		out = append(out, ChunkPoint{
			Chunks:       k,
			SpeedupReal:  metrics.Speedup(baseFinish, real),
			SpeedupIdeal: metrics.Speedup(baseFinish, ideal),
		})
	}
	return out, nil
}

// finishOf validates tr, compiles it and replays it on plat with a fresh
// arena, returning the makespan.
func finishOf(tr *trace.Trace, plat network.Platform) (float64, error) {
	if err := tr.Validate(); err != nil {
		return 0, err
	}
	prog, err := sim.Compile(tr)
	if err != nil {
		return 0, err
	}
	res, err := sim.RunProgram(plat, prog)
	if err != nil {
		return 0, err
	}
	return res.FinishSec, nil
}
