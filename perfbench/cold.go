package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/service"
)

// coldSetups is how many times cold-report sets up per run; setup_s is
// the median.
const coldSetups = 11

// coldMinRounds is the fewest whole rounds a run measures. Each round
// holds three bt requests at 16 ranks, the slowest class, and the timing
// metrics use the quieter two thirds of each study's calls; from six
// used calls of each on, the tail order statistic, ten samples below the
// top, falls in the middle of that class, so it neither jumps between
// classes with the host's speed nor rides on the class's extremes.
const coldMinRounds = 8

// coldWarmKey is the pool entry every cold-report setup warms up with.
const coldWarmKey = "cr/cg/r16/c4"

// runColdReport is the cold-report workload: a closed loop with one
// client, each request a report study sent to a fresh manager and
// engine, so no cache of the program ever answers. Requests come in
// seeded shuffled rounds over the whole (app, ranks, chunks) pool.
func runColdReport(ctx context.Context, cfg *config) (*runStats, error) {
	if cfg.clients > 1 {
		return nil, fmt.Errorf("cold-report is a one-client closed loop")
	}
	pool := coldReportPool()
	var warm *call
	for i := range pool {
		if pool[i].key == coldWarmKey {
			warm = &pool[i]
		}
	}
	rs := newRunStats()
	var p *probe
	if cfg.traced {
		p = newProbe(true)
	}

	// Setup: the server with its swappable handler and the client, and
	// one warm-up request through a fresh manager.
	var front *coldFront
	for range coldSetups {
		start := time.Now()
		f := newColdFront(p)
		if err := f.fresh(); err != nil {
			f.close()
			return nil, err
		}
		body, err := f.send(ctx, warm, nil)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("cold-report warm-up: %w", err)
		}
		cfg.golden.check(warm.key, body)
		rs.setups = append(rs.setups, time.Since(start))
		if front != nil {
			front.close()
		}
		front = f
	}
	defer front.close()

	acc := newLayerAcc()
	type served struct {
		c    *call
		id   string
		body []byte
	}
	var round []served
	// cacheEntries sums TraceCache.Len of each traced request's engine,
	// read before the next request swaps in a fresh one.
	var cacheEntries float64
	l := &loop{
		cfg: cfg, p: p, acc: acc, metrics: front.cl, minRounds: coldMinRounds,
		prepare: front.fresh,
		send:    func(ctx context.Context, c *call) ([]byte, error) { return front.send(ctx, c, nil) },
		traced: func(c *call, id string, body []byte) {
			round = append(round, served{c, id, body})
			cacheEntries += float64(front.eng.Traces().Len())
		},
		// The walks run after the round's /metrics window closes, so
		// their own replays never enter the deltas.
		tracedRoundDone: func() error {
			for _, s := range round {
				cost, err := walkChecked(p, s.id, s.c, s.body)
				if err != nil {
					return err
				}
				acc.walk.add(cost)
				acc.walks++
			}
			round = nil
			return nil
		},
	}
	ph := beginPhase()
	rounds, _, err := l.run(ctx, rs, newDeck(cfg.seed, [][]call{pool}, true))
	if err != nil {
		return nil, err
	}
	// Every request's manager is garbage by now. Swap in an idle one
	// without the probe, so the last request's manager is not held — by
	// the server or by the service's gauge registry, which follows the
	// newest handler — and the live heap shows only what outlives a
	// request.
	front.p = nil
	if err := front.fresh(); err != nil {
		return nil, err
	}
	ph.end(rs)
	rs.meta["rounds"] = rounds
	rs.meta["pool_size"] = len(pool)
	if cfg.traced {
		rs.layers = acc.finish(p)
		rs.layers["engine.trace_cache_entries"] = ratio(cacheEntries, float64(acc.walks))
		rs.layers["bench.layer_cover_frac"] = acc.walk.coverFrac()
		rs.meta["layer_shares"] = shares(rs.layers)
		rs.probe = p
	}
	return rs, nil
}

// coldFront is cold-report's server: one httptest server and client
// whose handler is swapped for a fresh manager's before every request,
// so the keep-alive connection stays up while no cache survives.
type coldFront struct {
	*stack
	sw *swapHandler
	p  *probe
}

func newColdFront(p *probe) *coldFront {
	f := &coldFront{stack: &stack{name: "node-0"}, sw: &swapHandler{}, p: p}
	f.serve(f.sw, p)
	return f
}

// fresh swaps in a new manager on a new engine.
func (f *coldFront) fresh() error {
	mgr, h, unobserve, err := newManager(f.name, service.Options{}, f.p)
	if err != nil {
		return err
	}
	f.eng = mgr.Engine()
	if f.unobserve != nil {
		f.unobserve()
	}
	f.unobserve = unobserve
	f.sw.set(h)
	return nil
}

// walkChecked runs the layer walk of a served request and makes sure
// it computed what the service served: the walk's wire report must
// equal the one in the response body.
func walkChecked(p *probe, id string, c *call, body []byte) (walkCost, error) {
	want, err := reportOf(body)
	if err != nil {
		return walkCost{}, fmt.Errorf("layer walk %s: %w", c.key, err)
	}
	cost, got, err := walkReport(p, id, c)
	if err != nil {
		return walkCost{}, fmt.Errorf("layer walk %s: %w", c.key, err)
	}
	if !bytes.Equal(got, want) {
		return walkCost{}, fmt.Errorf("layer walk %s computes a different report than the service", c.key)
	}
	return cost, nil
}
