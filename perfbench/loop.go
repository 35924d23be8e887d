package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/service/client"
)

// loop drives the one-client closed loops of cold-report and
// replay-sweep.
type loop struct {
	cfg *config
	p   *probe // nil untraced
	acc *layerAcc
	// metrics serves the /metrics page diffed around traced rounds.
	metrics *client.Client
	// prepare, when set, runs before each call, outside its timing.
	prepare func() error
	// send issues one call; ctx carries the request id when traced.
	send func(ctx context.Context, c *call) ([]byte, error)
	// traced, when set, sees every successful traced request.
	traced func(c *call, id string, body []byte)
	// tracedRoundDone, when set, runs after a traced round's /metrics
	// window has closed.
	tracedRoundDone func() error
	// minRounds is the fewest whole rounds measured.
	minRounds int
}

// run deals rounds from d and sends each call, measuring whole rounds
// until cfg.dur has passed and at least minRounds are done. Each call is
// one of the run's windows, in the stratum of its round slot. A traced
// run alternates untraced and traced rounds, so it measures at least
// two.
// It returns the rounds measured and whether the deck ran out first.
func (l *loop) run(ctx context.Context, rs *runStats, d *deck) (rounds int, exhausted bool, err error) {
	minRounds := l.minRounds
	if l.p != nil {
		minRounds = max(minRounds, 2)
		defer l.p.on.Store(false)
	}
	start := time.Now()
	var before counters
	for {
		tracing := l.p != nil && rounds%2 == 1
		if tracing && before == nil {
			if before, err = scrape(ctx, l.metrics); err != nil {
				return rounds, false, err
			}
			l.p.on.Store(true)
		}
		c, roundEnd, ok := d.next()
		if !ok {
			return rounds, true, nil
		}
		reqCtx, id := ctx, ""
		if tracing {
			id = strconv.Itoa(len(rs.samples))
			reqCtx = withReq(ctx, id)
			l.p.current.Store(&id)
		}
		win := openWindow(len(rs.samples))
		if l.prepare != nil {
			if err := l.prepare(); err != nil {
				return rounds, false, err
			}
		}
		sent := time.Now()
		body, sendErr := l.send(reqCtx, c)
		lat := time.Since(sent)
		good := sendErr == nil && l.cfg.golden.check(c.key, body)
		if sendErr != nil {
			l.cfg.golden.fail(c.key)
			fmt.Fprintf(l.cfg.log, "perfbench: %s: %v\n", c.key, sendErr)
		}
		rs.samples = append(rs.samples, sample{class: c.class, lat: lat, ok: good, points: c.points})
		w := win.close(len(rs.samples))
		w.stratum = d.slot()
		rs.windows = append(rs.windows, w)
		switch {
		case tracing:
			l.acc.reqs++
			l.acc.latTraced = append(l.acc.latTraced, ms(lat))
			info, _ := l.p.takeServer(id)
			marshal := remarshalCost(c, body)
			l.acc.marshal += marshal
			l.acc.serverSide(info, l.p.takeIntervals(), marshal, true)
			if good && l.traced != nil {
				l.traced(c, id, body)
			}
		case l.p != nil:
			l.acc.latUntraced = append(l.acc.latUntraced, ms(lat))
		}
		if !roundEnd {
			continue
		}
		if tracing {
			after, err := scrape(ctx, l.metrics)
			if err != nil {
				return rounds, false, err
			}
			l.acc.metrics.addDelta(before, after)
			before = nil
			if l.tracedRoundDone != nil {
				if err := l.tracedRoundDone(); err != nil {
					return rounds, false, err
				}
			}
			l.p.on.Store(false)
		}
		rounds++
		if time.Since(start) >= l.cfg.dur && rounds >= minRounds {
			return rounds, false, nil
		}
	}
}
