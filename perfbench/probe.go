package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/service/client"
)

// The traced run's instrumentation, built entirely from outside the
// program: a wrapping http.Handler per node, a wrapping
// cluster.Transport, an engine observer per engine, and /metrics
// deltas. Spans are held in memory and written when the run ends.
// Nothing records unless the probe is switched on, so a traced run can
// alternate traced and untraced stretches and measure its own overhead.

// reqHeader carries the benchmark's request id from the client to the
// server wrapper, so both sides' spans of one request share it.
const reqHeader = "X-Perfbench-Req"

type reqIDKey struct{}

func withReq(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// idTransport stamps the request id of the request's context.
type idTransport struct{ inner http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, id)
	}
	return t.inner.RoundTrip(r)
}

// span is one recorded layer interval; times are nanoseconds since the
// probe started.
type span struct {
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type interval struct{ start, end time.Time }

// serverInfo is what the handler wrapper learned about one request.
type serverInfo struct {
	handler time.Duration // wrapped handler span
	job     time.Duration // manager job span, clipped to the handler span
	queue   time.Duration // job admission to execution start
	jobLo   time.Time
	jobHi   time.Time
	cached  bool // X-Cache: hit
	hasJob  bool
}

// maxSpans bounds the spans kept in memory; later ones are counted only.
const maxSpans = 200000

type probe struct {
	on atomic.Bool
	t0 time.Time
	// current names the request in flight in a closed loop, so engine
	// job spans can be attributed to it.
	current atomic.Pointer[string]
	// keepIntervals collects engine job intervals for core self time
	// (closed loops only: with one request in flight they are its own).
	keepIntervals bool

	mu        sync.Mutex
	spans     []span
	dropped   int
	server    map[string]serverInfo
	jobs      int
	jobWait   time.Duration
	jobRun    time.Duration
	intervals []interval
	rpcCalls  int
	rpcTime   time.Duration
}

func newProbe(keepIntervals bool) *probe {
	return &probe{t0: time.Now(), server: map[string]serverInfo{}, keepIntervals: keepIntervals}
}

func (p *probe) recordLocked(req, name, parent string, start, end time.Time) {
	if len(p.spans) >= maxSpans {
		p.dropped++
		return
	}
	p.spans = append(p.spans, span{Req: req, Name: name, Parent: parent,
		Start: start.Sub(p.t0).Nanoseconds(), End: end.Sub(p.t0).Nanoseconds()})
}

// record adds one span.
func (p *probe) record(req, name, parent string, start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recordLocked(req, name, parent, start, end)
}

// timed runs fn as one span and returns its duration.
func (p *probe) timed(req, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	p.record(req, name, parent, start, end)
	return end.Sub(start)
}

// wrapHandler wraps a node's handler: it spans every request that
// carries a benchmark request id and reads the manager job behind the
// response (X-Job-Id) to split handler time into job and HTTP self time.
func (p *probe) wrapHandler(h http.Handler, mgr *service.Manager, node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqHeader)
		if id == "" || !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		info := serverInfo{handler: end.Sub(start), cached: w.Header().Get("X-Cache") == "hit"}
		if jid := w.Header().Get("X-Job-Id"); jid != "" {
			if j, ok := mgr.Job(jid); ok {
				st := j.Status(false)
				if st.FinishedAt != nil {
					// A singleflight attach joins a job created before this
					// request: clip the job to the handler span.
					info.jobLo, info.jobHi = st.CreatedAt, *st.FinishedAt
					if info.jobLo.Before(start) {
						info.jobLo = start
					}
					if info.jobHi.After(end) {
						info.jobHi = end
					}
					if info.jobHi.After(info.jobLo) {
						info.job = info.jobHi.Sub(info.jobLo)
						info.hasJob = true
					}
				}
				if st.StartedAt != nil && st.StartedAt.After(st.CreatedAt) {
					info.queue = st.StartedAt.Sub(st.CreatedAt)
				}
			}
		}
		p.mu.Lock()
		p.recordLocked(id, "service.http", "", start, end)
		if info.hasJob {
			p.recordLocked(id, "service.job", "service.http", info.jobLo, info.jobHi)
		}
		p.server[id] = info
		p.mu.Unlock()
	})
}

// takeServer returns and forgets what the wrapper saw for a request.
func (p *probe) takeServer(id string) (serverInfo, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	info, ok := p.server[id]
	delete(p.server, id)
	return info, ok
}

// observe adds an engine observer timing every finished job.
func (p *probe) observe(eng *engine.Engine) func() {
	return eng.AddObserver(func(ev engine.JobEvent) {
		if !ev.Done || !p.on.Load() {
			return
		}
		end := time.Now()
		start := end.Add(-ev.Elapsed)
		req := ""
		if c := p.current.Load(); c != nil {
			req = *c
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.jobs++
		p.jobWait += ev.Wait
		p.jobRun += ev.Elapsed
		if p.keepIntervals {
			p.intervals = append(p.intervals, interval{start, end})
		}
		p.recordLocked(req, "engine.job", "service.job", start, end)
	})
}

// takeIntervals returns and forgets the engine job intervals collected
// so far.
func (p *probe) takeIntervals() []interval {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.intervals
	p.intervals = nil
	return out
}

// covered returns how much of [lo, hi] the union of the intervals
// covers.
func covered(iv []interval, lo, hi time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total time.Duration
	var curLo, curHi time.Time
	flush := func() {
		if curHi.After(curLo) {
			total += curHi.Sub(curLo)
		}
	}
	for _, it := range iv {
		s, e := it.start, it.end
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if !e.After(s) {
			continue
		}
		if curHi.IsZero() || s.After(curHi) {
			flush()
			curLo, curHi = s, e
			continue
		}
		if e.After(curHi) {
			curHi = e
		}
	}
	flush()
	return total
}

// rpcMeter wraps a node's cluster transport, timing every outbound RPC.
// MemNetwork calls the peer inline, so an RPC's time includes the work
// the peer does to answer it.
type rpcMeter struct {
	inner cluster.Transport
	p     *probe
}

func (m rpcMeter) Call(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	if !m.p.on.Load() {
		return m.inner.Call(ctx, addr, req)
	}
	start := time.Now()
	resp, err := m.inner.Call(ctx, addr, req)
	end := time.Now()
	m.p.mu.Lock()
	m.p.rpcCalls++
	m.p.rpcTime += end.Sub(start)
	m.p.recordLocked("", "cluster.rpc."+string(req.Op), "", start, end)
	m.p.mu.Unlock()
	return resp, err
}

// writeSpans writes the spans as JSON lines.
func (p *probe) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	p.mu.Lock()
	for _, s := range p.spans {
		if err := enc.Encode(s); err != nil {
			p.mu.Unlock()
			f.Close()
			return err
		}
	}
	p.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// /metrics deltas

// metricKeys are the /metrics samples the traced run diffs. A bare
// family name sums its labelled samples (telemetry.ParsedMetrics.Value).
var metricKeys = []string{
	"sim_replays_total",
	"sim_pdes_replays_total",
	"sim_pdes_windows_total",
	"sim_replay_seconds_sum",
	`scenario_stage_seconds_sum{stage="compile"}`,
	`scenario_stage_seconds_sum{stage="replay"}`,
	`scenario_points_total{source="computed"}`,
	`scenario_points_total{source="cached"}`,
	"service_queue_wait_seconds_sum",
	"service_queue_wait_seconds_count",
	"cluster_rpcs_total",
	"cluster_forwarded_jobs_total",
	"cluster_point_fanout_total",
	"cluster_remote_point_hits_total",
	"cluster_artifact_replications_total",
}

// counters holds /metrics samples or their deltas.
type counters map[string]float64

// scrape reads the metricKeys from a node's /metrics page (parsed by
// telemetry.ParseMetrics inside client.Metrics). The registry is
// process-wide, so in-process nodes share one page.
func scrape(ctx context.Context, cl *client.Client) (counters, error) {
	pm, err := cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := counters{}
	for _, k := range metricKeys {
		v, _ := pm.Value(k)
		out[k] = v
	}
	return out, nil
}

// addDelta accumulates after − before.
func (c counters) addDelta(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}
