package pattern

import "math"

// Equation 1 of the paper bounds the computation time available to overlap
// chunk i of an n-chunk message:
//
//	sum_{j=i+1..n-1} Tp_j  +  sum_{j=0..i-1} Tc_j
//
// — the time producing the chunks after i plus the time consuming the
// chunks before i. OverlapPotential evaluates that bound under *measured*
// patterns: the Table II statistics give the times at which successive
// quarters of the message are produced/consumable, from which the per-chunk
// windows follow. The result is an analytic prediction of how much of each
// chunk's transfer can hide, the quantity the replay simulator measures
// for real.

// Potential is the Eq. 1 evaluation for one message under given patterns.
type Potential struct {
	// PerChunkPct[i] is the share of the production+consumption phases
	// available to overlap chunk i, in percent of one phase pair.
	PerChunkPct []float64
	// MinPct and AvgPct summarize the chunks: the minimum governs the
	// chunk that bounds the pipeline; the average the expected benefit.
	MinPct, AvgPct float64
}

// prodDoneAt interpolates the production completion curve at fraction f of
// the message (0..1) from the four Table II order statistics.
func prodDoneAt(p ProductionStats, f float64) float64 {
	xs := []float64{0, 0.25, 0.5, 1}
	ys := []float64{p.FirstElem, p.Quarter, p.Half, p.Whole}
	return interp(xs, ys, f)
}

// consPassableAt interpolates the consumption progress curve at fraction f
// of the message received.
func consPassableAt(c ConsumptionStats, f float64) float64 {
	xs := []float64{0, 0.25, 0.5}
	ys := []float64{c.Nothing, c.Quarter, c.Half}
	if f >= 0.5 {
		// Conservative extension beyond the last measured column:
		// linear continuation capped at 100.
		slope := (c.Half - c.Quarter) / 0.25
		v := c.Half + slope*(f-0.5)
		return math.Min(v, 100)
	}
	return interp(xs, ys, f)
}

func interp(xs, ys []float64, x float64) float64 {
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			t := (x - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1] + t*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// OverlapPotential evaluates Eq. 1 for an n-chunk split under the measured
// patterns. Returns a zero-value Potential unless both production and
// consumption are chunkable: an unchunkable side (the Alya case) has no
// quarter or half statistics to interpolate.
func OverlapPotential(p ProductionStats, c ConsumptionStats, chunks int) Potential {
	if chunks < 1 || !p.Chunkable || !c.Chunkable || math.IsNaN(p.FirstElem) || math.IsNaN(c.Nothing) {
		return Potential{}
	}
	per := make([]float64, chunks)
	minV := math.Inf(1)
	var sum float64
	for i := 0; i < chunks; i++ {
		// Production side: chunk i's final element settles when fraction
		// (i+1)/chunks of the message is produced; everything after that
		// point overlaps the chunk's transfer.
		prodAvail := 100 - prodDoneAt(p, float64(i+1)/float64(chunks))
		// Consumption side: with chunks 0..i-1 delivered, execution
		// passes consPassableAt(i/chunks) percent of the phase before
		// chunk i is first needed.
		consAvail := consPassableAt(c, float64(i)/float64(chunks))
		v := prodAvail + consAvail
		per[i] = v
		sum += v
		if v < minV {
			minV = v
		}
	}
	return Potential{PerChunkPct: per, MinPct: minV, AvgPct: sum / float64(chunks)}
}

// IdealPotential returns Eq. 1 under ideal patterns: chunk i of n gets
// (n-1-i)/n of the production phase plus i/n of the consumption phase, so
// every chunk has (n-1)/n of one phase available.
func IdealPotential(chunks int) Potential {
	if chunks < 1 {
		return Potential{}
	}
	per := make([]float64, chunks)
	v := 100 * float64(chunks-1) / float64(chunks)
	for i := range per {
		per[i] = v
	}
	return Potential{PerChunkPct: per, MinPct: v, AvgPct: v}
}
