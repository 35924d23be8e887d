package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// stack is one serving node: an engine and a job manager behind the
// service.NewHandler HTTP stack on an httptest server, plus the
// client.Client that talks to it.
type stack struct {
	name string
	eng  *engine.Engine
	mgr  *service.Manager
	srv  *httptest.Server
	hc   *http.Client
	cl   *client.Client
	// unobserve removes the probe's engine observer (nil untraced).
	unobserve func()
}

// newManager builds a manager on a fresh engine with nproc workers and
// its HTTP handler, wrapped by the probe when tracing.
func newManager(name string, opts service.Options, p *probe) (*service.Manager, http.Handler, func(), error) {
	if opts.Engine == nil {
		opts.Engine = engine.New(nproc)
	}
	mgr, err := service.NewManager(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	h := service.NewHandler(mgr)
	var unobserve func()
	if p != nil {
		h = p.wrapHandler(h, mgr, name)
		unobserve = p.observe(opts.Engine)
	}
	return mgr, h, unobserve, nil
}

// newStack starts one serving node.
func newStack(name string, opts service.Options, p *probe) (*stack, error) {
	mgr, h, unobserve, err := newManager(name, opts, p)
	if err != nil {
		return nil, err
	}
	s := &stack{name: name, eng: mgr.Engine(), mgr: mgr, unobserve: unobserve}
	s.serve(h, p)
	return s, nil
}

// serve starts the httptest server and the clients in front of h.
func (s *stack) serve(h http.Handler, p *probe) {
	s.srv = httptest.NewServer(h)
	s.hc = s.srv.Client()
	if p != nil {
		s.hc = &http.Client{Transport: idTransport{s.hc.Transport}}
	}
	s.cl = client.New(s.srv.URL, s.hc)
}

func (s *stack) close() {
	s.srv.Close()
	if s.unobserve != nil {
		s.unobserve()
	}
}

// swapHandler serves through whichever handler was stored last:
// cold-report swaps a fresh manager in before every request while the
// server and its keep-alive connection stay up.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// send issues one call and returns the response body. A non-2xx
// response is an error.
func (s *stack) send(ctx context.Context, c *call, refs traceRefs) ([]byte, error) {
	switch c.route {
	case routeScenario:
		req := c.scenario
		if c.traceRef != "" {
			req.Trace = refs[c.traceRef].digest
		}
		return s.cl.ScenarioRaw(ctx, req)
	case routeAnalyze:
		return s.cl.AnalyzeRaw(ctx, c.analyze)
	case routeSweep:
		req := c.sweep
		if c.traceRef != "" {
			req.Trace = refs[c.traceRef].digest
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		return s.post(ctx, "/v1/sweep/bandwidth", "application/json", body)
	case routeUpload:
		return s.post(ctx, "/v1/traces", "application/octet-stream", refs[c.traceRef].binary)
	}
	return nil, fmt.Errorf("unknown route %q", c.route)
}

// post sends a raw body. The client package decodes these two
// endpoints' responses, and the gate needs the exact bytes.
func (s *stack) post(ctx context.Context, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Setup traces

// traceSpec names the traced run and flavor behind a setup trace.
type traceSpec struct {
	app    string
	ranks  int
	flavor core.Flavor
}

// setupTraces are the traces workloads upload at setup or in their mix.
var setupTraces = map[string]traceSpec{
	"pop64-real":       {"pop", 64, core.FlavorReal},
	"sweep3d64-real":   {"sweep3d", 64, core.FlavorReal},
	"cg16-real":        {"cg", 16, core.FlavorReal},
	"cg16-base":        {"cg", 16, core.FlavorBase},
	"alya16-real":      {"alya", 16, core.FlavorReal},
	"specfem3d16-real": {"specfem3d", 16, core.FlavorReal},
}

// traceRef is a built setup trace: the trace, its content digest, and
// its binary encoding (the upload body).
type traceRef struct {
	tr     *trace.Trace
	digest string
	binary []byte
}

type traceRefs map[string]traceRef

// buildTraces traces each named setup trace's application and builds
// the flavor.
func buildTraces(names ...string) (traceRefs, error) {
	out := traceRefs{}
	for _, name := range names {
		spec, ok := setupTraces[name]
		if !ok {
			return nil, fmt.Errorf("unknown setup trace %q", name)
		}
		e, ok := apps.ByName(spec.app, spec.ranks)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", spec.app)
		}
		run, err := tracer.Trace(spec.app, spec.ranks, tracer.DefaultConfig(), e.App.Kernel)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", name, err)
		}
		var tr *trace.Trace
		switch spec.flavor {
		case core.FlavorBase:
			tr = run.BaseTrace()
		case core.FlavorReal:
			tr = run.OverlapReal()
		default:
			tr = run.OverlapIdeal()
		}
		digest, err := trace.Digest(tr)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			return nil, err
		}
		out[name] = traceRef{tr: tr, digest: digest, binary: buf.Bytes()}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Cluster

// newCluster starts n serving nodes joined over one cluster.MemNetwork
// and waits until every routing table knows every peer.
func newCluster(ctx context.Context, n int, p *probe) ([]*stack, error) {
	mem := cluster.NewMemNetwork()
	var stacks []*stack
	var nodes []*cluster.Node
	fail := func(err error) ([]*stack, error) {
		for _, s := range stacks {
			s.close()
		}
		return nil, err
	}
	for i := range n {
		name := fmt.Sprintf("node-%d", i)
		addr := "mem://" + name
		var tr cluster.Transport = mem
		if p != nil {
			tr = rpcMeter{inner: mem, p: p}
		}
		cn, err := cluster.NewNode(cluster.Config{Name: name, Addr: addr, Transport: tr})
		if err != nil {
			return fail(err)
		}
		mem.Attach(addr, cn.HandleRPC)
		s, err := newStack(name, service.Options{Cluster: cn}, p)
		if err != nil {
			return fail(err)
		}
		stacks = append(stacks, s)
		nodes = append(nodes, cn)
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(ctx, nodes[0].Self().Addr); err != nil {
			return fail(fmt.Errorf("join %s: %w", nodes[i].Name(), err))
		}
	}
	// A second round so early joiners learn the late ones.
	for _, cn := range nodes {
		if err := cn.Join(ctx); err != nil {
			return fail(fmt.Errorf("rejoin %s: %w", cn.Name(), err))
		}
	}
	for _, cn := range nodes {
		if got := cn.Table().Len(); got != n-1 {
			return fail(fmt.Errorf("%s knows %d peers, want %d", cn.Name(), got, n-1))
		}
	}
	return stacks, nil
}
