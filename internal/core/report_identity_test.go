package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/tracer"
)

// reportJSON runs a report scenario and returns each point's marshalled
// wire report.
func reportJSON(t *testing.T, sc core.Scenario) [][]byte {
	t.Helper()
	res, err := core.RunScenario(context.Background(), engine.New(2), sc)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(res.Points))
	for i, pt := range res.Points {
		if out[i], err = json.Marshal(pt.Report); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReportPointMatchesAnalyzeRun pins the report output to the full
// analysis: a report scenario's point, built from summary replays of the
// planner's memoized programs, marshals to exactly the JSON of
// AnalyzeRun's fresh-arena Results through Report.Wire — for every
// registry app, on a flat testbed, a hierarchical preset and a derated,
// jittered platform, with and without the engine's shared trace cache.
func TestReportPointMatchesAnalyzeRun(t *testing.T) {
	const ranks = 8
	mn, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		t.Fatal(err)
	}
	degrade := faults.Spec{DerateInter: 0.6, DerateIntra: 0.8, JitterFrac: 0.3, Seed: 5}
	cfg := tracer.DefaultConfig()
	for _, name := range apps.Names {
		e, ok := apps.ByName(name, ranks)
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		run, err := tracer.Trace(name, ranks, cfg, e.App.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range []struct {
			name     string
			plat     network.Platform
			degraded bool
		}{
			{"testbed", network.TestbedFor(name, ranks).Platform(), false},
			{"marenostrum-4x", mn, false},
			{"marenostrum-4x-degraded", mn, true},
		} {
			t.Run(name+"/"+pc.name, func(t *testing.T) {
				sc := core.Scenario{App: e.App, Ranks: ranks, Tracer: cfg, Platform: pc.plat, Output: core.OutputReport}
				plat := pc.plat
				if pc.degraded {
					sc.Degradations = degrade
					plat = plat.WithDegradations(degrade)
				}
				rep, err := core.AnalyzeRun(context.Background(), nil, run, plat)
				if err != nil {
					t.Fatal(err)
				}
				wire, err := rep.Wire()
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				if got := reportJSON(t, sc)[0]; !bytes.Equal(got, want) {
					t.Fatalf("report point differs from AnalyzeRun.Wire:\n%s\n%s", got, want)
				}
				sc.Traces = engine.NewTraceCache()
				if got := reportJSON(t, sc)[0]; !bytes.Equal(got, want) {
					t.Fatalf("trace-cached report point differs from AnalyzeRun.Wire:\n%s\n%s", got, want)
				}
			})
		}
	}
}

// TestReportAxisMatchesSinglePoints: every point of a report grid over a
// bandwidth axis, whose three points share one compiled program per
// flavor and one pattern analysis, equals the one-point report of its
// platform byte for byte. A chunks axis, which shares the base flavor
// across points, must hold the same.
func TestReportAxisMatchesSinglePoints(t *testing.T) {
	const ranks = 8
	e, _ := apps.ByName("pop", ranks)
	plat, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Scenario{App: e.App, Ranks: ranks, Platform: plat, Output: core.OutputReport}

	bws := []float64{60, 250, 1000}
	swept := base
	swept.Axes = []core.Axis{core.BandwidthAxis(bws...)}
	grid := reportJSON(t, swept)
	for i, bw := range bws {
		one := base
		one.Platform = plat.WithInterBandwidth(bw)
		if got := reportJSON(t, one)[0]; !bytes.Equal(grid[i], got) {
			t.Fatalf("bandwidth %g: grid point differs from the one-point report:\n%s\n%s", bw, grid[i], got)
		}
	}

	chunks := []int{2, 4, 8}
	swept = base
	swept.Axes = []core.Axis{core.ChunksAxis(chunks...)}
	grid = reportJSON(t, swept)
	for i, k := range chunks {
		one := base
		one.Tracer = tracer.DefaultConfig()
		one.Tracer.Chunks = k
		if got := reportJSON(t, one)[0]; !bytes.Equal(grid[i], got) {
			t.Fatalf("chunks %d: grid point differs from the one-point report:\n%s\n%s", k, grid[i], got)
		}
	}
}
