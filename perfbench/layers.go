package main

import (
	"time"
)

// layerMetric describes one per-layer metric of the traced run. Times
// are busy time per request unless the name says otherwise (per job,
// per call, per uploaded trace); LAYERS.md lists each one's definition
// and the end-to-end metric and workload it moves. A layer a workload
// does not exercise reports 0.
type layerMetric struct {
	name, unit string
}

var layerMetrics = []layerMetric{
	{"tracer.trace_ms", "ms"},
	{"tracer.build_ms", "ms"},
	{"tracer.build_alloc_mb", "MB"},
	{"tracer.records", "count"},
	{"trace.validate_ms", "ms"},
	{"trace.digest_ms", "ms"},
	{"sim.compile_ms", "ms"},
	{"sim.replay_ms", "ms"},
	{"sim.replay_records_per_s", "1/s"},
	{"sim.pdes_replay_frac", "ratio"},
	{"sim.pdes_windows_per_replay", "count"},
	{"pattern.analyze_ms", "ms"},
	{"pattern.alloc_mb", "MB"},
	{"core.scenario_self_ms", "ms"},
	{"core.points_computed", "count"},
	{"core.points_cached", "count"},
	{"engine.job_wait_ms", "ms"},
	{"engine.job_run_ms", "ms"},
	{"engine.jobs", "count"},
	{"engine.trace_cache_entries", "count"},
	{"service.marshal_ms", "ms"},
	{"service.http_self_ms", "ms"},
	{"service.result_cache_hit_ratio", "ratio"},
	{"service.point_cache_hit_ratio", "ratio"},
	{"service.dedup_joins", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.rejected", "count"},
	{"cluster.rpc_calls", "count"},
	{"cluster.rpc_ms", "ms"},
	{"cluster.forwards", "count"},
	{"cluster.fanout_points", "count"},
	{"cluster.remote_hits", "count"},
	{"cluster.replications", "count"},
	{"cluster.engine_jobs_per_study", "count"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.layer_cover_frac", "ratio"},
}

func layerUnit(name string) string {
	for _, l := range layerMetrics {
		if l.name == name {
			return l.unit
		}
	}
	return "count"
}

// selfLayers are the self-time metrics whose shares of their sum the
// run metadata reports (layer_shares).
var selfLayers = []string{
	"tracer.trace_ms", "tracer.build_ms", "trace.validate_ms", "trace.digest_ms",
	"sim.compile_ms", "sim.replay_ms", "pattern.analyze_ms", "core.scenario_self_ms",
	"service.marshal_ms", "service.http_self_ms", "service.queue_wait_ms",
}

// layerAcc accumulates a traced run's per-layer measurements.
type layerAcc struct {
	reqs     int // traced requests
	walk     walkCost
	walks    int
	httpSelf time.Duration
	coreSelf time.Duration
	marshal  time.Duration
	// coreN counts the requests core self time was measured on.
	coreN int
	// recordsReplayed counts trace records the service replayed in the
	// traced stretches (closed loops, where they are known).
	recordsReplayed float64
	metrics         counters
	latTraced       []float64
	latUntraced     []float64
}

func newLayerAcc() *layerAcc { return &layerAcc{metrics: counters{}} }

// serverSide folds in what the handler wrapper saw for one traced
// request and, where the closed loop knows the engine intervals, the
// core self time: the manager job span minus engine-job coverage minus
// the result marshal.
func (a *layerAcc) serverSide(info serverInfo, iv []interval, marshal time.Duration, haveIntervals bool) {
	a.httpSelf += max(info.handler-info.job, 0)
	if haveIntervals && info.hasJob {
		self := info.job - covered(iv, info.jobLo, info.jobHi) - marshal - info.queue
		a.coreSelf += max(self, 0)
		a.coreN++
	}
}

// finish computes the per-layer metrics, every one of layerMetrics,
// from what the traced stretches accumulated.
func (a *layerAcc) finish(p *probe) map[string]float64 {
	out := map[string]float64{}
	for _, l := range layerMetrics {
		out[l.name] = 0
	}
	perReq := func(d time.Duration) float64 { return ratio(ms(d), float64(a.reqs)) }
	if a.walks > 0 {
		n := float64(a.walks)
		w := a.walk
		out["tracer.trace_ms"] = ms(w.trace) / n
		out["tracer.build_ms"] = ms(w.build) / n
		out["tracer.build_alloc_mb"] = mb(w.buildAlloc) / n
		out["tracer.records"] = float64(w.records) / n
		out["trace.validate_ms"] = ms(w.validate) / n
		out["trace.digest_ms"] = ms(w.digest) / n
		out["sim.compile_ms"] = ms(w.compile) / n
		out["sim.replay_ms"] = ms(w.replay) / n
		out["sim.replay_records_per_s"] = ratio(float64(w.records), w.replay.Seconds())
		out["pattern.analyze_ms"] = ms(w.pattern) / n
		out["pattern.alloc_mb"] = mb(w.patternAlloc) / n
		out["service.marshal_ms"] = ms(w.marshal) / n
	} else {
		mt := a.metrics
		out["sim.compile_ms"] = ratio(1000*mt[`scenario_stage_seconds_sum{stage="compile"}`], float64(a.reqs))
		out["sim.replay_ms"] = ratio(1000*mt[`scenario_stage_seconds_sum{stage="replay"}`], float64(a.reqs))
		out["sim.replay_records_per_s"] = ratio(a.recordsReplayed, mt["sim_replay_seconds_sum"])
		out["service.marshal_ms"] = perReq(a.marshal)
	}
	mt := a.metrics
	out["sim.pdes_replay_frac"] = ratio(mt["sim_pdes_replays_total"], mt["sim_replays_total"])
	out["sim.pdes_windows_per_replay"] = ratio(mt["sim_pdes_windows_total"], mt["sim_pdes_replays_total"])
	out["core.points_computed"] = ratio(mt[`scenario_points_total{source="computed"}`], float64(a.reqs))
	out["core.points_cached"] = ratio(mt[`scenario_points_total{source="cached"}`], float64(a.reqs))
	out["core.scenario_self_ms"] = ratio(ms(a.coreSelf), float64(a.coreN))
	out["service.http_self_ms"] = perReq(a.httpSelf)
	out["service.queue_wait_ms"] = ratio(1000*mt["service_queue_wait_seconds_sum"], mt["service_queue_wait_seconds_count"])

	p.mu.Lock()
	out["engine.jobs"] = ratio(float64(p.jobs), float64(a.reqs))
	out["engine.job_wait_ms"] = ratio(ms(p.jobWait), float64(p.jobs))
	out["engine.job_run_ms"] = ratio(ms(p.jobRun), float64(p.jobs))
	out["cluster.rpc_calls"] = ratio(float64(p.rpcCalls), float64(a.reqs))
	out["cluster.rpc_ms"] = ratio(ms(p.rpcTime), float64(p.rpcCalls))
	p.mu.Unlock()

	if len(a.latTraced) > 0 && len(a.latUntraced) > 0 {
		out["bench.trace_overhead_ms"] = median(a.latTraced) - median(a.latUntraced)
	}
	return out
}

// shares returns each self-time layer's share of their sum.
func shares(layers map[string]float64) map[string]float64 {
	sum := 0.0
	for _, name := range selfLayers {
		sum += layers[name]
	}
	out := map[string]float64{}
	for _, name := range selfLayers {
		out[name] = round6(ratio(layers[name], sum))
	}
	return out
}
