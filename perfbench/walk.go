package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// walkCost is one layer walk's busy time and allocation per layer.
type walkCost struct {
	trace, build, validate, digest, compile, replay, pattern, marshal time.Duration
	buildAlloc, patternAlloc                                          uint64
	// records counts the records of the three built traces; each is
	// replayed once.
	records int
	// spans is the sum of every timed span, Report.Wire's own digests
	// included; wall is the whole walk.
	spans, wall time.Duration
}

func (w *walkCost) add(o walkCost) {
	w.trace += o.trace
	w.build += o.build
	w.validate += o.validate
	w.digest += o.digest
	w.compile += o.compile
	w.replay += o.replay
	w.pattern += o.pattern
	w.marshal += o.marshal
	w.buildAlloc += o.buildAlloc
	w.patternAlloc += o.patternAlloc
	w.records += o.records
	w.spans += o.spans
	w.wall += o.wall
}

// coverFrac is the share of the walks' wall time their timed layer
// spans account for. The walk runs serially, so the two measure the same
// work: a pipeline step no listed layer times pulls it below 1.
func (w *walkCost) coverFrac() float64 { return ratio(w.spans.Seconds(), w.wall.Seconds()) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// walkReport runs one report study's pipeline through the layers'
// public functions in the order the service runs them — tracer.Trace,
// the three flavor builds, Trace.Validate, trace.Digest, sim.Compile,
// ReplayArena.RunProgram, pattern.Analyze, Report.Wire plus
// json.Marshal — timing each call as a span. It runs serially, so each
// span is that layer's busy time; the service runs the three flavor
// chains as parallel engine jobs. The returned JSON is the report's wire
// form, which must equal the report inside the service's response.
//
// Report.Wire digests the three traces again; the marshal cost is the
// Wire span minus the separately timed digests, plus json.Marshal.
func walkReport(p *probe, req string, c *call) (walkCost, []byte, error) {
	var w walkCost
	start := time.Now()
	sr := c.scenario
	e, ok := apps.ByName(sr.App, sr.Ranks)
	if !ok {
		return w, nil, fmt.Errorf("walk: unknown app %q", sr.App)
	}
	cfg := tracer.DefaultConfig()
	cfg.Chunks = sr.Chunks
	plat := network.TestbedFor(sr.App, sr.Ranks).Platform()

	var run *tracer.Run
	var err error
	w.trace = p.timed(req, "tracer.trace", "walk", func() {
		run, err = tracer.Trace(sr.App, sr.Ranks, cfg, e.App.Kernel)
	})
	if err != nil {
		return w, nil, err
	}

	builds := []func() *trace.Trace{run.BaseTrace, run.OverlapReal, run.OverlapIdeal}
	trs := make([]*trace.Trace, len(builds))
	a0 := totalAlloc()
	for i, build := range builds {
		w.build += p.timed(req, "tracer.build", "walk", func() { trs[i] = build() })
	}
	w.buildAlloc = totalAlloc() - a0

	results := make([]*sim.Result, len(trs))
	for i, tr := range trs {
		w.records += tr.Stats().Records
		w.validate += p.timed(req, "trace.validate", "walk", func() { err = tr.Validate() })
		if err != nil {
			return w, nil, err
		}
		w.digest += p.timed(req, "trace.digest", "walk", func() { _, err = trace.Digest(tr) })
		if err != nil {
			return w, nil, err
		}
		var prog *sim.Program
		w.compile += p.timed(req, "sim.compile", "walk", func() { prog, err = sim.Compile(tr) })
		if err != nil {
			return w, nil, err
		}
		// One arena per flavor: a result lives in its arena until Wire.
		arena := sim.NewArena()
		w.replay += p.timed(req, "sim.replay", "walk", func() { results[i], err = arena.RunProgram(plat, prog) })
		if err != nil {
			return w, nil, err
		}
	}

	var an *pattern.Analysis
	a0 = totalAlloc()
	w.pattern = p.timed(req, "pattern.analyze", "walk", func() { an = pattern.Analyze(run) })
	w.patternAlloc = totalAlloc() - a0

	rep := &core.Report{
		App: run.Name, Ranks: run.NumRanks, Network: plat.InterConfig(), Platform: plat,
		BaseTrace: trs[0], RealTrace: trs[1], IdealTrace: trs[2],
		Base: results[0], Real: results[1], Ideal: results[2],
		SpeedupReal:  metrics.Speedup(results[0].FinishSec, results[1].FinishSec),
		SpeedupIdeal: metrics.Speedup(results[0].FinishSec, results[2].FinishSec),
		Patterns:     an,
	}
	var body []byte
	marshal := p.timed(req, "service.marshal", "walk", func() {
		var wire *core.WireReport
		if wire, err = rep.Wire(); err == nil {
			body, err = json.Marshal(wire)
		}
	})
	if err != nil {
		return w, nil, err
	}
	w.marshal = max(marshal-w.digest, 0)
	w.spans = w.trace + w.build + w.validate + w.digest + w.compile + w.replay + w.pattern + marshal
	w.wall = time.Since(start)
	return w, body, nil
}

// reportOf extracts the single point's wire report from a report
// scenario response body.
func reportOf(body []byte) ([]byte, error) {
	var res struct {
		Points []struct {
			Report json.RawMessage `json:"report"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	if len(res.Points) != 1 {
		return nil, fmt.Errorf("report response has %d points, want 1", len(res.Points))
	}
	return bytes.TrimSpace(res.Points[0].Report), nil
}

// remarshalCost times json.Marshal of the decoded response: the work
// the manager does between computing a result and caching its bytes.
func remarshalCost(c *call, body []byte) time.Duration {
	var v any
	switch c.route {
	case routeScenario:
		v = new(core.ScenarioResult)
	case routeAnalyze:
		v = new(core.WireReport)
	case routeSweep:
		v = new(core.WireBandwidthSweep)
	default:
		return 0
	}
	if err := json.Unmarshal(body, v); err != nil {
		return 0
	}
	start := time.Now()
	_, _ = json.Marshal(v)
	return time.Since(start)
}
