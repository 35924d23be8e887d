package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/tracer"
)

// Placement studies on hierarchical platforms: which rank→node mapping and
// which node count serve an application best? Both sweeps are scenarios:
// they trace the application once and fan the per-point replays out
// across the experiment engine, exactly like the chunk sweep.

// MappingPoint is one measurement of a placement sweep.
type MappingPoint struct {
	// Mapping is the placement this point measured.
	Mapping network.Mapping
	// BaseFinishSec and RealFinishSec are the non-overlapped and
	// overlapped(real) makespans under this placement.
	BaseFinishSec, RealFinishSec float64
	// SpeedupReal compares the overlapped against the non-overlapped
	// execution under this placement.
	SpeedupReal float64
	// IntraBytes and InterBytes split the non-overlapped traffic by link
	// class — the quantity a placement optimizer drives up and down.
	IntraBytes, InterBytes int64
}

// MappingSweep replays the application under each rank→node mapping on
// plat. It is a thin wrapper over a scenario spec — a mapping axis with
// traffic output — so the application is traced once, each flavor
// compiles once, and the per-mapping replays run on pooled arenas across
// eng (nil selects the default engine).
func MappingSweep(ctx context.Context, eng *engine.Engine, app App, ranks int, plat network.Platform, tCfg tracer.Config, mappings []network.Mapping) ([]MappingPoint, error) {
	specs := make([]string, len(mappings))
	for i, m := range mappings {
		specs[i] = m.String()
	}
	res, err := RunScenario(ctx, eng, Scenario{
		App: app, Ranks: ranks, Tracer: tCfg, Platform: plat,
		Flavors: []Flavor{FlavorBase, FlavorReal},
		Axes:    []Axis{MappingAxis(specs...)},
		Output:  OutputTraffic,
	})
	if err != nil {
		return nil, err
	}
	return MappingPoints(res, mappings), nil
}

// MappingPoints converts the result of a mapping-axis scenario with
// traffic output and flavors (base, overlap-real) back to the placement
// sweep vocabulary; mappings lists the axis values in grid order.
func MappingPoints(res *ScenarioResult, mappings []network.Mapping) []MappingPoint {
	out := make([]MappingPoint, len(res.Points))
	for i, pt := range res.Points {
		out[i] = mappingPointFrom(mappings[i], pt)
	}
	return out
}

// mappingPointFrom converts one traffic-output scenario point (flavors
// base, overlap-real) to the placement sweep vocabulary.
func mappingPointFrom(m network.Mapping, pt ScenarioPoint) MappingPoint {
	base, real := pt.Flavors[0], pt.Flavors[1]
	return MappingPoint{
		Mapping:       m,
		BaseFinishSec: base.FinishSec,
		RealFinishSec: real.FinishSec,
		SpeedupReal:   metrics.Speedup(base.FinishSec, real.FinishSec),
		IntraBytes:    base.Traffic.IntraBytes,
		InterBytes:    base.Traffic.InterBytes,
	}
}

// NodeCountPoint is one measurement of a node-count sweep.
type NodeCountPoint struct {
	// Nodes is the cluster size this point measured (ranks fixed).
	Nodes int
	// BaseFinishSec and RealFinishSec are the two makespans; SpeedupReal
	// compares them.
	BaseFinishSec, RealFinishSec float64
	SpeedupReal                  float64
	// IntraBytes and InterBytes split the non-overlapped traffic.
	IntraBytes, InterBytes int64
}

// NodeCountSweep replays the application across cluster shapes: the same
// ranks packed onto each of the given node counts under plat's mapping.
// It is a thin wrapper over a node-count-axis scenario spec whose points
// run concurrently on eng (nil selects the default engine).
func NodeCountSweep(ctx context.Context, eng *engine.Engine, app App, ranks int, plat network.Platform, tCfg tracer.Config, nodeCounts []int) ([]NodeCountPoint, error) {
	res, err := RunScenario(ctx, eng, Scenario{
		App: app, Ranks: ranks, Tracer: tCfg, Platform: plat,
		Flavors: []Flavor{FlavorBase, FlavorReal},
		Axes:    []Axis{NodeCountAxis(nodeCounts...)},
		Output:  OutputTraffic,
	})
	if err != nil {
		return nil, err
	}
	out := make([]NodeCountPoint, len(res.Points))
	for i, pt := range res.Points {
		mp := mappingPointFrom(plat.Mapping, pt)
		out[i] = NodeCountPoint{
			Nodes:         nodeCounts[i],
			BaseFinishSec: mp.BaseFinishSec,
			RealFinishSec: mp.RealFinishSec,
			SpeedupReal:   mp.SpeedupReal,
			IntraBytes:    mp.IntraBytes,
			InterBytes:    mp.InterBytes,
		}
	}
	return out, nil
}
