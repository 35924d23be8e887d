package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
)

const (
	clusterNodes  = 3
	clusterSetups = 7
	// clusterRate is the offered rate in requests per second: half the
	// open-loop capacity measured with --rate on the reference host while
	// other tenants took a fifth to a third of its CPU (see LAYERS.md).
	// Re-measure it on a different host.
	clusterRate = 500.0
	// maxLag bounds the generator's 99th-percentile lateness; a run
	// beyond it is marked invalid.
	maxLag = 25 * time.Millisecond
	// arrivalWindow is the span of due times each of the run's windows
	// covers; the tail is taken per window.
	arrivalWindow = 2 * time.Second
	// drainGrace bounds how long a run waits, after the schedule ends,
	// for requests still queued or in flight.
	drainGrace = 60 * time.Second
)

// runServeCluster is the serve-cluster workload: an open loop at a
// fixed offered rate from one generator over at most nproc concurrent
// requests, sent to random nodes of a three-node in-process cluster.
// Latency is timed from each request's due time.
func runServeCluster(ctx context.Context, cfg *config) (*runStats, error) {
	pool := newClusterPool()
	rs := newRunStats()
	var p *probe
	if cfg.traced {
		p = newProbe(false)
	}

	var nodes []*stack
	var refs traceRefs
	for range clusterSetups {
		start := time.Now()
		next, nextRefs, err := clusterSetup(ctx, cfg, pool, p)
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(start))
		closeAll(nodes)
		nodes, refs = next, nextRefs
	}
	defer closeAll(nodes)

	senders := nproc
	if cfg.clients > 0 {
		senders = cfg.clients
	}
	rate := clusterRate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	sched, err := clusterSchedule(cfg.seed, pool, rate, cfg.dur, len(nodes))
	if err != nil {
		return nil, err
	}

	snap0 := snapshots(nodes)
	m0, err := scrape(ctx, nodes[0].cl)
	if err != nil {
		return nil, err
	}
	acc := newLayerAcc()
	var accMu sync.Mutex

	samples := make([]sample, len(sched))
	sent := make([]bool, len(sched))
	lags := make([]float64, 0, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	runCtx, cancel := context.WithTimeout(ctx, cfg.dur+drainGrace)
	defer cancel()
	ph := beginPhase()
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := sched[i]
				due := ph.start.Add(a.due)
				if now := time.Now(); now.Before(due) {
					due = now
				}
				traced := p != nil && p.on.Load()
				reqCtx := runCtx
				id := ""
				if traced {
					id = strconv.Itoa(i)
					reqCtx = withReq(runCtx, id)
				}
				body, err := nodes[a.node].send(reqCtx, a.c, refs)
				lat := time.Since(due)
				good := err == nil && cfg.golden.check(a.c.key, body)
				if err != nil {
					cfg.golden.fail(a.c.key)
				}
				samples[i] = sample{class: a.c.class, lat: lat, ok: good, points: a.c.points}
				sent[i] = true
				if p == nil {
					continue
				}
				var marshal time.Duration
				info, seen := p.takeServer(id)
				if traced && seen && !info.cached && err == nil {
					marshal = remarshalCost(a.c, body)
				}
				accMu.Lock()
				if traced {
					acc.reqs++
					acc.latTraced = append(acc.latTraced, ms(lat))
					acc.marshal += marshal
					acc.serverSide(info, nil, marshal, false)
				} else {
					acc.latUntraced = append(acc.latUntraced, ms(lat))
				}
				accMu.Unlock()
			}
		}()
	}
	win := openWindow(0)
	for i, a := range sched {
		if runCtx.Err() != nil {
			break
		}
		due := ph.start.Add(a.due)
		if d := time.Until(due) - timerSlack/2; d > 0 {
			time.Sleep(d)
		}
		if i > win.lo && a.due/arrivalWindow != sched[win.lo].due/arrivalWindow {
			rs.windows = append(rs.windows, win.close(i))
			win = openWindow(i)
		}
		lags = append(lags, ms(max(time.Since(due), 0)))
		if p != nil {
			// Traced and untraced one-second stretches alternate.
			p.on.Store(int(a.due/time.Second)%2 == 1)
		}
		queue <- i
	}
	close(queue)
	if runCtx.Err() == nil {
		time.Sleep(time.Until(ph.start.Add(cfg.dur)))
		rs.windows = append(rs.windows, win.close(len(sched)))
	}
	wg.Wait()
	if p != nil {
		p.on.Store(false)
	}
	ph.end(rs, nodes)

	for i := range sched {
		if !sent[i] {
			// Due but never answered before the drain deadline.
			cfg.golden.fail(sched[i].c.key)
			samples[i] = sample{class: sched[i].c.class}
		}
	}
	rs.samples = samples
	sort.Float64s(lags)
	lagP50, lagP99, lagMax := 0.0, 0.0, 0.0
	if n := len(lags); n > 0 {
		lagP50, lagP99, lagMax = lags[n/2], lags[(n*99)/100], lags[n-1]
	}
	rs.meta["generator_lag_p50_ms"] = round6(lagP50)
	rs.valid = lagP99 <= ms(maxLag)
	rs.tailPerWindow = true
	rs.meta["offered_rps"] = rate
	rs.meta["clients"] = senders
	rs.meta["scheduled"] = len(sched)
	rs.meta["generator_lag_p99_ms"] = round6(lagP99)
	rs.meta["generator_lag_max_ms"] = round6(lagMax)
	rs.meta["generator_lag_bound_ms"] = ms(maxLag)
	if !rs.valid {
		fmt.Fprintf(cfg.log, "perfbench: generator lag p99 %.3f ms exceeds the %v bound; run invalid\n", lagP99, maxLag)
	}

	if cfg.traced {
		m1, err := scrape(ctx, nodes[0].cl)
		if err != nil {
			return nil, err
		}
		acc.metrics.addDelta(m0, m1)
		rs.layers = acc.finish(p)
		clusterLayers(rs.layers, acc.metrics, snap0, snapshots(nodes), rs.samples, nodes)
		rs.meta["layer_shares"] = shares(rs.layers)
		rs.probe = p
	}
	return rs, nil
}

// clusterSetup starts the cluster, builds the setup traces, uploads the
// stored trace to every node (trace-mode requests resolve it locally),
// and warms up: every working-set and legacy call once on every node.
func clusterSetup(ctx context.Context, cfg *config, pool *clusterPool, p *probe) ([]*stack, traceRefs, error) {
	nodes, err := newCluster(ctx, clusterNodes, p)
	if err != nil {
		return nil, nil, err
	}
	refs, err := buildTraces(clusterUploads...)
	if err != nil {
		closeAll(nodes)
		return nil, nil, err
	}
	stored := refs[clusterTraceRef]
	for _, n := range nodes {
		info, err := n.cl.UploadTrace(ctx, stored.tr)
		if err != nil {
			closeAll(nodes)
			return nil, nil, fmt.Errorf("upload to %s: %w", n.name, err)
		}
		if info.Digest != stored.digest {
			closeAll(nodes)
			return nil, nil, fmt.Errorf("upload to %s: stored digest %s, want %s", n.name, info.Digest, stored.digest)
		}
	}
	for _, n := range nodes {
		for _, cs := range [][]call{pool.working, pool.legacy} {
			for i := range cs {
				body, err := n.send(ctx, &cs[i], refs)
				if err != nil {
					closeAll(nodes)
					return nil, nil, fmt.Errorf("warm-up %s on %s: %w", cs[i].key, n.name, err)
				}
				cfg.golden.check(cs[i].key, body)
			}
		}
	}
	return nodes, refs, nil
}

func closeAll(nodes []*stack) {
	for _, n := range nodes {
		n.close()
	}
}

func snapshots(nodes []*stack) []service.Metrics {
	out := make([]service.Metrics, len(nodes))
	for i, n := range nodes {
		out[i] = n.mgr.MetricsSnapshot()
	}
	return out
}

// clusterLayers fills the serve-cluster metrics that come from whole-run
// counters: per-node manager snapshots (the telemetry registry is
// process-wide, so /metrics sums the three nodes) and /metrics deltas.
// Counts are per attempted request.
func clusterLayers(out map[string]float64, mt counters, before, after []service.Metrics, samples []sample, nodes []*stack) {
	var hits, misses, phits, pmisses, dedup, rejected, started float64
	for i := range after {
		a, b := after[i], before[i]
		hits += float64(a.CacheHits - b.CacheHits)
		misses += float64(a.CacheMisses - b.CacheMisses)
		phits += float64(a.PointCacheHits - b.PointCacheHits)
		pmisses += float64(a.PointCacheMisses - b.PointCacheMisses)
		dedup += float64(a.Deduped - b.Deduped)
		rejected += float64(a.Rejected - b.Rejected)
		started += float64(a.Engine.Started - b.Engine.Started)
	}
	reqs, studies := 0.0, 0.0
	for _, s := range samples {
		reqs++
		if s.ok && s.points > 0 {
			studies++
		}
	}
	out["service.result_cache_hit_ratio"] = ratio(hits, hits+misses)
	out["service.point_cache_hit_ratio"] = ratio(phits, phits+pmisses)
	out["service.dedup_joins"] = ratio(dedup, reqs)
	out["service.rejected"] = ratio(rejected, reqs)
	out["engine.jobs"] = ratio(started, reqs)
	out["cluster.engine_jobs_per_study"] = ratio(started, studies)
	out["cluster.forwards"] = ratio(mt["cluster_forwarded_jobs_total"], reqs)
	out["cluster.fanout_points"] = ratio(mt["cluster_point_fanout_total"], reqs)
	out["cluster.remote_hits"] = ratio(mt["cluster_remote_point_hits_total"], reqs)
	out["cluster.replications"] = ratio(mt["cluster_artifact_replications_total"], reqs)
	out["core.points_computed"] = ratio(mt[`scenario_points_total{source="computed"}`], reqs)
	out["core.points_cached"] = ratio(mt[`scenario_points_total{source="cached"}`], reqs)
	out["sim.compile_ms"] = ratio(1000*mt[`scenario_stage_seconds_sum{stage="compile"}`], reqs)
	out["sim.replay_ms"] = ratio(1000*mt[`scenario_stage_seconds_sum{stage="replay"}`], reqs)
	entries := 0
	for _, n := range nodes {
		entries += n.eng.Traces().Len()
	}
	out["engine.trace_cache_entries"] = float64(entries)
}

// timerSlack is how late a Go timer fires on an idle process: up to a
// millisecond, about half of one on average. The generator aims half a
// slack early, and a request sent before its due time is timed from its
// send instead, so latency counts neither the early start nor most of
// the timer's own lateness.
const timerSlack = time.Millisecond
