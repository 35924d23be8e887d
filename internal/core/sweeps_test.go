package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/tracer"
)

func TestChunkSweep(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 150)}
	pts, err := ChunkSweep(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig(), []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points=%d", len(pts))
	}
	// One chunk = no chunking: the overlapped trace differs from base
	// only by the async sends and postponed wait, so it can never lose.
	if pts[0].Chunks != 1 || pts[0].SpeedupReal < 0.99 {
		t.Fatalf("chunks=1 point: %+v", pts[0])
	}
	// More chunks must help this sequential pipeline: 4 chunks beats 1.
	if pts[2].SpeedupReal <= pts[0].SpeedupReal {
		t.Fatalf("4 chunks (%.3f) not better than 1 (%.3f)", pts[2].SpeedupReal, pts[0].SpeedupReal)
	}
	for _, p := range pts {
		if p.SpeedupIdeal < p.SpeedupReal*0.9 {
			t.Fatalf("ideal far below real at %d chunks: %+v", p.Chunks, p)
		}
	}
}

func TestChunkSweepRejectsBadCount(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(100, 1, 10)}
	if _, err := ChunkSweep(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig(), []int{0}); err == nil {
		t.Fatal("chunk count 0 accepted")
	}
}

// TestScenarioRanksAxisDeterministic: a strong-scaling study is a ranks-axis
// scenario with a per-world-size factory; every point is well-formed and a
// rerun on a different worker count reproduces it byte for byte.
func TestScenarioRanksAxisDeterministic(t *testing.T) {
	factory := func(ranks int) (App, error) { return scenarioApp(), nil }
	spec := Scenario{
		Factory: factory, Ranks: 2, Platform: network.TestbedFor("cg", 4).Platform(),
		Flavors: []Flavor{FlavorBase, FlavorReal, FlavorIdeal},
		Axes:    []Axis{RanksAxis(2, 4)},
	}
	first, err := RunScenario(context.Background(), engine.New(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Points) != 2 {
		t.Fatalf("points=%d", len(first.Points))
	}
	for _, pt := range first.Points {
		for _, fm := range pt.Flavors {
			if fm.FinishSec <= 0 {
				t.Fatalf("degenerate point %s: %+v", coordsLabel(pt.Coords), fm)
			}
		}
	}
	again, err := RunScenario(context.Background(), engine.New(4), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatalf("nondeterministic study:\n%s\n%s", a, b)
	}
}
