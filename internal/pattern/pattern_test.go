package pattern

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/tracer"
)

// sequentialProducer sends a buffer produced element-by-element (near-ideal
// pattern) and consumes it element-by-element.
func sequentialProducer(n, iters int) func(p *tracer.Proc) {
	return func(p *tracer.Proc) {
		buf := p.NewArray("seq", n)
		for it := 0; it < iters; it++ {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.Compute(100)
					buf.Store(i, float64(i))
				}
				p.Send(1, 0, buf)
			} else {
				p.Recv(buf, 0, 0)
				for i := 0; i < n; i++ {
					p.Compute(100)
					_ = buf.Load(i)
				}
			}
		}
	}
}

// lateProducer stores the whole buffer in a tight pack loop at the very end
// of each interval (the BT/POP production shape).
func lateProducer(n, iters int) func(p *tracer.Proc) {
	return func(p *tracer.Proc) {
		buf := p.NewArray("late", n)
		for it := 0; it < iters; it++ {
			if p.Rank() == 0 {
				p.Compute(100_000)
				for i := 0; i < n; i++ {
					buf.Store(i, 1)
				}
				p.Send(1, 0, buf)
			} else {
				p.Recv(buf, 0, 0)
				for i := 0; i < n; i++ {
					_ = buf.Load(i)
				}
				p.Compute(100_000)
			}
		}
	}
}

func mustTrace(t *testing.T, name string, ranks int, app func(p *tracer.Proc)) *tracer.Run {
	t.Helper()
	run, err := tracer.Trace(name, ranks, tracer.DefaultConfig(), app)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSequentialProductionNearIdeal(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(100, 4))
	an := Analyze(run)
	p := an.AppProduction
	if p.Intervals != 3 { // 4 sends -> 3 intervals
		t.Fatalf("intervals=%d, want 3", p.Intervals)
	}
	if !p.Chunkable {
		t.Fatal("100-element buffer must be chunkable")
	}
	// Sequential production: first element finalized right after the
	// interval starts, quarter near 25%, half near 50%, whole at 100%.
	if p.FirstElem > 5 {
		t.Errorf("FirstElem=%.2f%%, want near 0", p.FirstElem)
	}
	if math.Abs(p.Quarter-25) > 5 {
		t.Errorf("Quarter=%.2f%%, want near 25", p.Quarter)
	}
	if math.Abs(p.Half-50) > 5 {
		t.Errorf("Half=%.2f%%, want near 50", p.Half)
	}
	if p.Whole < 95 {
		t.Errorf("Whole=%.2f%%, want near 100", p.Whole)
	}
}

func TestSequentialConsumptionNearIdeal(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(100, 4))
	an := Analyze(run)
	c := an.AppConsumption
	if c.Intervals != 3 {
		t.Fatalf("intervals=%d, want 3", c.Intervals)
	}
	if c.Nothing > 5 {
		t.Errorf("Nothing=%.2f%%, want near 0 (consumes immediately)", c.Nothing)
	}
	if math.Abs(c.Quarter-25) > 6 {
		t.Errorf("Quarter=%.2f%%, want near 25", c.Quarter)
	}
	if math.Abs(c.Half-50) > 6 {
		t.Errorf("Half=%.2f%%, want near 50", c.Half)
	}
}

func TestLateProductionUnfavourable(t *testing.T) {
	run := mustTrace(t, "lateapp", 2, lateProducer(64, 4))
	an := Analyze(run)
	p := an.AppProduction
	// The pack loop sits at the end: everything finalized past ~99%.
	if p.FirstElem < 95 || p.Whole < 99 {
		t.Errorf("late producer: first=%.2f whole=%.2f, want >95/>99", p.FirstElem, p.Whole)
	}
	c := an.AppConsumption
	// Consumed in a copy burst right after the receive.
	if c.Nothing > 2 {
		t.Errorf("late consumer Nothing=%.2f%%, want ~0", c.Nothing)
	}
}

func TestSingleElementBuffersNotChunkable(t *testing.T) {
	app := func(p *tracer.Proc) {
		in := p.NewArray("dot", 1)
		out := p.NewArray("res", 1)
		for it := 0; it < 3; it++ {
			p.Compute(1000)
			in.Store(0, 1)
			p.AllreduceTracked(in, out, mpi.OpSum)
			_ = out.Load(0)
			p.Compute(1000)
		}
	}
	run := mustTrace(t, "alya-like", 2, app)
	an := Analyze(run)
	p := an.AppProduction
	if p.Chunkable {
		t.Fatal("single-element buffers must not be chunkable")
	}
	if math.IsNaN(p.FirstElem) {
		t.Fatal("FirstElem must still be measured")
	}
	if !math.IsNaN(p.Quarter) || !math.IsNaN(p.Half) {
		t.Fatal("partial-message columns must be NaN for unchunkable apps")
	}
	if p.FirstElem < 40 {
		t.Errorf("FirstElem=%.2f%%, expected late production (store just before reduce)", p.FirstElem)
	}
	c := an.AppConsumption
	if c.Nothing > 5 {
		t.Errorf("Nothing=%.2f%%, result is consumed immediately", c.Nothing)
	}
}

func TestEmptyRunYieldsNaN(t *testing.T) {
	run := mustTrace(t, "empty", 1, func(p *tracer.Proc) { p.Compute(10) })
	an := Analyze(run)
	if !math.IsNaN(an.AppProduction.FirstElem) || !math.IsNaN(an.AppConsumption.Nothing) {
		t.Fatal("run without tracked communication must produce NaN stats")
	}
}

func TestPerBufferKeys(t *testing.T) {
	app := func(p *tracer.Proc) {
		a := p.NewArray("alpha", 8)
		b := p.NewArray("beta", 8)
		for it := 0; it < 3; it++ {
			if p.Rank() == 0 {
				for i := 0; i < 8; i++ {
					a.Store(i, 1)
					b.Store(i, 2)
				}
				p.Compute(100)
				p.Send(1, 0, a)
				p.Send(1, 1, b)
			} else {
				p.Recv(a, 0, 0)
				p.Recv(b, 0, 1)
				for i := 0; i < 8; i++ {
					_ = a.Load(i)
					_ = b.Load(i)
				}
				p.Compute(100)
			}
		}
	}
	run := mustTrace(t, "two-buffers", 2, app)
	an := Analyze(run)
	if _, ok := an.Production["alpha"]; !ok {
		t.Error("missing production stats for alpha")
	}
	if _, ok := an.Production["beta"]; !ok {
		t.Error("missing production stats for beta")
	}
	if _, ok := an.Consumption["alpha"]; !ok {
		t.Error("missing consumption stats for alpha")
	}
}

func TestScatterProduction(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(50, 3))
	sc := ScatterFor(run, "seq", 0, Production)
	if sc == nil {
		t.Fatal("no scatter for rank 0")
	}
	if sc.Intervals != 2 {
		t.Fatalf("scatter intervals=%d, want 2", sc.Intervals)
	}
	if len(sc.Points) != 2*50 {
		t.Fatalf("points=%d, want 100", len(sc.Points))
	}
	// Sequential producer: RelT should grow with element offset.
	for _, p := range sc.Points {
		if p.RelT < 0 || p.RelT > 1 {
			t.Fatalf("RelT out of range: %v", p.RelT)
		}
		expected := float64(p.Elem+1) / 50
		if math.Abs(p.RelT-expected) > 0.1 {
			t.Fatalf("elem %d at RelT %.3f, want near %.3f", p.Elem, p.RelT, expected)
		}
	}
}

func TestScatterConsumption(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(50, 3))
	sc := ScatterFor(run, "seq", 1, Consumption)
	if sc == nil || len(sc.Points) == 0 {
		t.Fatal("no consumption scatter for rank 1")
	}
	if sc.Side != Consumption || sc.Side.String() != "consumption" {
		t.Fatal("side metadata wrong")
	}
}

// TestScatterMatchesPerIntervalScan checks ScatterFor's single cursor
// against the definition: for each interval, every access of the buffer
// with a time in (start, end], in program order. The kernel revisits
// elements, leaves some intervals without accesses and sends twice at one
// instant, which yields an empty interval.
func TestScatterMatchesPerIntervalScan(t *testing.T) {
	const n = 12
	run := mustTrace(t, "revisit", 2, func(p *tracer.Proc) {
		buf := p.NewArray("buf", n)
		for it := 0; it < 6; it++ {
			if p.Rank() == 0 {
				for i := 0; i < n*(it%3); i++ {
					p.Compute(int64(1 + (i*7)%5))
					buf.Store((i*5)%n, float64(i))
				}
				p.Send(1, 0, buf)
				if it == 2 {
					p.Send(1, 1, buf)
				}
			} else {
				p.Recv(buf, 0, 0)
				if it == 2 {
					p.Recv(buf, 0, 1)
				}
				for i := 0; i < n*(it%2); i++ {
					p.Compute(3)
					_ = buf.Load((i * 7) % n)
				}
			}
		}
	})
	for rank := 0; rank < 2; rank++ {
		log := run.Logs[rank]
		sends, recvs := log.IntervalMarks()
		for _, side := range []Side{Production, Consumption} {
			marks, col := sends[0], log.Stores[0]
			if side == Consumption {
				marks, col = recvs[0], log.Loads[0]
			}
			var want []Point
			intervals := 0
			for j := 0; j+1 < len(marks); j++ {
				start, end := marks[j], marks[j+1]
				if end <= start {
					continue
				}
				added := false
				for _, s := range col {
					for k := range s.N {
						if a := s.At(k); a.T > start && a.T <= end {
							want = append(want, Point{RelT: float64(a.T-start) / float64(end-start), Elem: int(a.Idx)})
							added = true
						}
					}
				}
				if added {
					intervals++
				}
			}
			if active := (rank == 0) == (side == Production); active && intervals < 2 {
				t.Fatalf("rank %d %s: only %d intervals with accesses", rank, side, intervals)
			}
			sc := ScatterFor(run, "buf", rank, side)
			if !reflect.DeepEqual(sc.Points, want) || sc.Intervals != intervals {
				t.Errorf("rank %d %s: %d points in %d intervals, want %d in %d",
					rank, side, len(sc.Points), sc.Intervals, len(want), intervals)
			}
		}
	}
}

func TestScatterUnknownBufferOrRank(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(10, 2))
	if ScatterFor(run, "nope", 0, Production) != nil {
		t.Error("unknown buffer should return nil")
	}
	if ScatterFor(run, "seq", 99, Production) != nil {
		t.Error("out-of-range rank should return nil")
	}
}

func TestScatterASCIIAndCSV(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(40, 3))
	sc := ScatterFor(run, "seq", 0, Production)
	art := sc.ASCII(40, 12)
	if !strings.Contains(art, "*") {
		t.Fatal("ASCII scatter has no points")
	}
	if !strings.Contains(art, "production") {
		t.Fatal("ASCII scatter missing title")
	}
	var sb strings.Builder
	if err := sc.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2+len(sc.Points) {
		t.Fatalf("CSV lines=%d, want %d", len(lines), 2+len(sc.Points))
	}
}

func TestFormatTableII(t *testing.T) {
	run := mustTrace(t, "seqapp", 2, sequentialProducer(20, 3))
	out := FormatTableII([]*Analysis{Analyze(run)})
	if !strings.Contains(out, "seqapp") || !strings.Contains(out, "ideal") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "advancing sends") || !strings.Contains(out, "post-postponing") {
		t.Fatalf("table missing captions:\n%s", out)
	}
}

func TestPropertyStatsWithinRange(t *testing.T) {
	f := func(nRaw, itRaw uint8) bool {
		n := int(nRaw%80) + 2
		iters := int(itRaw%4) + 2
		run, err := tracer.Trace("prop", 2, tracer.DefaultConfig(), sequentialProducer(n, iters))
		if err != nil {
			return false
		}
		an := Analyze(run)
		p, c := an.AppProduction, an.AppConsumption
		inRange := func(v float64) bool { return v >= 0 && v <= 100.000001 }
		if !inRange(p.FirstElem) || !inRange(p.Quarter) || !inRange(p.Half) || !inRange(p.Whole) {
			return false
		}
		if !(p.FirstElem <= p.Quarter+1e-9 && p.Quarter <= p.Half+1e-9 && p.Half <= p.Whole+1e-9) {
			return false // order statistics must be monotone
		}
		if !inRange(c.Nothing) || !inRange(c.Quarter) || !inRange(c.Half) {
			return false
		}
		return c.Nothing <= c.Quarter+1e-9 && c.Quarter <= c.Half+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
