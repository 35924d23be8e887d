package pattern

import (
	"math"
	"testing"
	"testing/quick"
)

func idealProd() ProductionStats {
	return ProductionStats{FirstElem: 0, Quarter: 25, Half: 50, Whole: 100, Chunkable: true, Intervals: 1}
}

func idealCons() ConsumptionStats {
	return ConsumptionStats{Nothing: 0, Quarter: 25, Half: 50, Chunkable: true, Intervals: 1}
}

func TestOverlapPotentialIdealMatchesClosedForm(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		got := OverlapPotential(idealProd(), idealCons(), k)
		want := IdealPotential(k)
		if len(got.PerChunkPct) != k {
			t.Fatalf("k=%d: len=%d", k, len(got.PerChunkPct))
		}
		for i := range got.PerChunkPct {
			if math.Abs(got.PerChunkPct[i]-want.PerChunkPct[i]) > 1e-9 {
				t.Fatalf("k=%d chunk %d: %.3f vs closed form %.3f", k, i, got.PerChunkPct[i], want.PerChunkPct[i])
			}
		}
	}
}

func TestOverlapPotentialLateProducerIsPoor(t *testing.T) {
	// BT-like: production at 99%+, consumption ~13.7% flat.
	p := ProductionStats{FirstElem: 99.1, Quarter: 99.37, Half: 99.56, Whole: 99.98, Chunkable: true}
	c := ConsumptionStats{Nothing: 13.68, Quarter: 13.71, Half: 13.74, Chunkable: true}
	pot := OverlapPotential(p, c, 4)
	// Chunk 0 gets almost nothing from production (everything settles at
	// 99%+) and nothing from consumption (no chunks before it): ~1%+13.7%.
	if pot.PerChunkPct[0] > 20 {
		t.Fatalf("chunk 0 potential %.1f%%, want small", pot.PerChunkPct[0])
	}
	if pot.AvgPct > 25 {
		t.Fatalf("avg potential %.1f%%, BT patterns must be unfavourable", pot.AvgPct)
	}
	// Compare with CG-like near-ideal patterns: must be far better.
	cg := OverlapPotential(
		ProductionStats{FirstElem: 3.98, Quarter: 27.98, Half: 51.99, Whole: 99.97, Chunkable: true},
		ConsumptionStats{Nothing: 2.175, Quarter: 18.35, Half: 34.53, Chunkable: true}, 4)
	if cg.AvgPct <= pot.AvgPct+20 {
		t.Fatalf("CG potential %.1f%% not clearly above BT %.1f%%", cg.AvgPct, pot.AvgPct)
	}
}

func TestOverlapPotentialUnchunkable(t *testing.T) {
	p := ProductionStats{FirstElem: 98.8, Quarter: math.NaN(), Half: math.NaN(), Whole: math.NaN(), Chunkable: false}
	c := ConsumptionStats{Nothing: 0.4, Quarter: math.NaN(), Half: math.NaN(), Chunkable: false}
	pot := OverlapPotential(p, c, 4)
	if len(pot.PerChunkPct) != 0 {
		t.Fatal("unchunkable patterns must yield an empty potential")
	}
}

// TestOverlapPotentialNeedsBothSidesChunkable: a chunkable production
// paired with an unchunkable consumption has no consumption curve to
// interpolate, so the potential is empty rather than NaN.
func TestOverlapPotentialNeedsBothSidesChunkable(t *testing.T) {
	c := ConsumptionStats{Nothing: 0.4, Quarter: math.NaN(), Half: math.NaN(), Intervals: 1, Chunkable: false}
	pot := OverlapPotential(idealProd(), c, 4)
	if len(pot.PerChunkPct) != 0 || pot.MinPct != 0 || pot.AvgPct != 0 {
		t.Fatalf("potential %+v, want the zero Potential", pot)
	}
}

func TestIdealPotentialClosedForm(t *testing.T) {
	if got := IdealPotential(4).MinPct; math.Abs(got-75) > 1e-9 {
		t.Fatalf("4-chunk ideal potential %.2f, want 75", got)
	}
	if got := IdealPotential(1).MinPct; got != 0 {
		t.Fatalf("1-chunk potential %.2f, want 0 (no overlap without chunking)", got)
	}
	if len(IdealPotential(0).PerChunkPct) != 0 {
		t.Fatal("0 chunks must be empty")
	}
}

func TestPropertyPotentialWithinBounds(t *testing.T) {
	f := func(a, b, c0, d uint8) bool {
		// Build a monotone production curve and a monotone consumption
		// curve from random offsets.
		f1 := float64(a) / 255 * 100
		q := f1 + float64(b)/255*(100-f1)
		h := q + float64(c0)/255*(100-q)
		p := ProductionStats{FirstElem: f1, Quarter: q, Half: h, Whole: 100, Chunkable: true}
		n0 := float64(d) / 255 * 100
		cs := ConsumptionStats{Nothing: n0, Quarter: math.Min(100, n0+10), Half: math.Min(100, n0+20), Chunkable: true}
		pot := OverlapPotential(p, cs, 4)
		for _, v := range pot.PerChunkPct {
			if v < -1e-9 || v > 200+1e-9 { // at most one full phase each side
				return false
			}
		}
		return pot.MinPct <= pot.AvgPct+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredPotentialPredictsSimulatedOrdering(t *testing.T) {
	// The Eq. 1 estimate from measured patterns must rank the
	// sequential pipeline above the late producer, mirroring what the
	// replay finds.
	seq := Analyze(mustTrace(t, "seq", 2, sequentialProducer(64, 4)))
	late := Analyze(mustTrace(t, "late", 2, lateProducer(64, 4)))
	pSeq := OverlapPotential(seq.AppProduction, seq.AppConsumption, 4)
	pLate := OverlapPotential(late.AppProduction, late.AppConsumption, 4)
	if pSeq.AvgPct <= pLate.AvgPct {
		t.Fatalf("Eq.1: sequential %.1f%% not above late %.1f%%", pSeq.AvgPct, pLate.AvgPct)
	}
}
