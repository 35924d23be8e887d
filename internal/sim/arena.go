package sim

import (
	"sync"

	"repro/internal/network"
)

// Pooled replays: the sweep and search paths (bandwidth searches, what-if
// studies, service sweeps) replay a compiled program many times and retain
// only scalars. They borrow a warm arena from a process-wide pool, so a
// saturated worker pool converges on one arena per worker and the
// steady-state replay allocates nothing.

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// ReplayFinish replays prog on p using a pooled arena and returns only the
// makespan. Safe for concurrent use.
func ReplayFinish(p network.Platform, prog *Program) (float64, error) {
	s, err := ReplaySummary(p, prog)
	return s.FinishSec, err
}

// ReplaySummary replays prog on p using a pooled arena and returns the
// replay's scalar summary: makespan, wait and compute totals, and the
// traffic split. The replay records no timeline (see the package
// comment). Safe for concurrent use.
func ReplaySummary(p network.Platform, prog *Program) (Summary, error) {
	return ReplayShardsSummary(p, prog, 1)
}

// ReplayShardsSummary is ReplaySummary with a shard request: the replay
// runs sharded when shards != 1 and the platform allows it (see
// EffectiveShards). Safe for concurrent use.
func ReplayShardsSummary(p network.Platform, prog *Program, shards int) (Summary, error) {
	a := arenaPool.Get().(*ReplayArena)
	defer arenaPool.Put(a)
	if err := a.run(p, prog, shards, false); err != nil {
		return Summary{}, err
	}
	return a.summary(), nil
}
