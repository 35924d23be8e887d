package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/service"
)

// regenGolden recomputes every pool call's response digest on one
// standalone manager with serial replay and rewrites the golden files,
// of every workload or only of the one named.
func regenGolden(ctx context.Context, dir, only string, log io.Writer) error {
	s, err := newStack("golden", service.Options{ReplayShards: 1}, nil)
	if err != nil {
		return err
	}
	defer s.close()
	names := make([]string, 0, len(setupTraces))
	for name := range setupTraces {
		names = append(names, name)
	}
	sort.Strings(names)
	refs, err := buildTraces(names...)
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, err := s.cl.UploadTrace(ctx, refs[name].tr); err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
	}

	warm, rounds := replaySweepPool()
	sweep := warm
	for _, r := range rounds {
		sweep = append(sweep, r...)
	}
	for _, w := range []struct {
		name  string
		calls []call
	}{
		{"cold-report", coldReportPool()},
		{"replay-sweep", sweep},
		{"serve-cluster", newClusterPool().all()},
	} {
		if only != "" && only != w.name {
			continue
		}
		start := time.Now()
		keys := make([]string, len(w.calls))
		digests := map[string]string{}
		for i := range w.calls {
			c := &w.calls[i]
			body, err := s.send(ctx, c, refs)
			if err != nil {
				return fmt.Errorf("%s: %w", c.key, err)
			}
			if _, dup := digests[c.key]; dup {
				return fmt.Errorf("%s: duplicate pool key", c.key)
			}
			keys[i] = c.key
			digests[c.key] = digestOf(body)
		}
		if err := writeGolden(dir, w.name, keys, digests); err != nil {
			return err
		}
		fmt.Fprintf(log, "perfbench: %s: %d golden digests in %.1fs\n", w.name, len(keys), time.Since(start).Seconds())
	}
	return nil
}
