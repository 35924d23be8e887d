package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// sweepSetups is how many times replay-sweep sets up per run.
const sweepSetups = 7

// runReplaySweep is the replay-sweep workload: a closed loop with one
// client against one long-lived stack. Setup traces pop and sweep3d at
// 64 ranks and uploads their overlap-real traces; every request is a
// trace-mode finish scenario on the fatnode-smp preset with fresh
// bandwidth values, so neither the result cache nor the point cache
// answers. Rounds hold sweepGrids for each trace; the seed picks which
// pool rounds run and in which order.
func runReplaySweep(ctx context.Context, cfg *config) (*runStats, error) {
	if cfg.clients > 1 {
		return nil, fmt.Errorf("replay-sweep is a one-client closed loop")
	}
	warm, rounds := replaySweepPool()
	rs := newRunStats()
	var p *probe
	if cfg.traced {
		p = newProbe(true)
	}

	var s *stack
	var refs traceRefs
	for range sweepSetups {
		start := time.Now()
		next, nextRefs, err := sweepSetup(ctx, cfg, warm, p)
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(start))
		if s != nil {
			s.close()
		}
		s, refs = next, nextRefs
	}
	defer s.close()

	acc := newLayerAcc()
	l := &loop{
		cfg: cfg, p: p, acc: acc, metrics: s.cl, minRounds: 1,
		send: func(ctx context.Context, c *call) ([]byte, error) { return s.send(ctx, c, refs) },
		traced: func(c *call, _ string, _ []byte) {
			// Each grid point replays the one stored flavor once.
			acc.recordsReplayed += float64(c.points * refs[c.traceRef].tr.Stats().Records)
		},
	}
	ph := beginPhase()
	measured, exhausted, err := l.run(ctx, rs, newDeck(cfg.seed, rounds, false))
	if err != nil {
		return nil, err
	}
	ph.end(rs, s)
	rs.meta["rounds"] = measured
	rs.meta["pool_rounds"] = len(rounds)
	rs.meta["pool_exhausted"] = exhausted
	if exhausted {
		fmt.Fprintf(cfg.log, "perfbench: replay-sweep pool exhausted after %d rounds; the run is shorter than --seconds\n", measured)
	}
	if cfg.traced {
		rs.layers = acc.finish(p)
		// Validation and digesting happen once per uploaded trace, at
		// setup (the store's PutTrace); time those calls on the traces.
		var validate, digest time.Duration
		for _, r := range refs {
			validate += p.timed("setup", "trace.validate", "setup", func() { _ = r.tr.Validate() })
			digest += p.timed("setup", "trace.digest", "setup", func() { _, _ = trace.Digest(r.tr) })
		}
		rs.layers["trace.validate_ms"] = ms(validate) / float64(len(refs))
		rs.layers["trace.digest_ms"] = ms(digest) / float64(len(refs))
		rs.layers["engine.trace_cache_entries"] = float64(s.eng.Traces().Len())
		rs.meta["layer_shares"] = shares(rs.layers)
		rs.probe = p
	}
	return rs, nil
}

// sweepSetup builds the stack, traces and uploads the two traces, and
// sends the warm-up requests, which compile each trace's program.
func sweepSetup(ctx context.Context, cfg *config, warm []call, p *probe) (*stack, traceRefs, error) {
	s, err := newStack("node-0", service.Options{}, p)
	if err != nil {
		return nil, nil, err
	}
	refs, err := buildTraces(sweepTraceRef("pop"), sweepTraceRef("sweep3d"))
	if err != nil {
		s.close()
		return nil, nil, err
	}
	for name, r := range refs {
		info, err := s.cl.UploadTrace(ctx, r.tr)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("upload %s: %w", name, err)
		}
		if info.Digest != r.digest {
			s.close()
			return nil, nil, fmt.Errorf("upload %s: stored digest %s, want %s", name, info.Digest, r.digest)
		}
	}
	for i := range warm {
		body, err := s.send(ctx, &warm[i], refs)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up %s: %w", warm[i].key, err)
		}
		cfg.golden.check(warm[i].key, body)
	}
	return s, refs, nil
}
