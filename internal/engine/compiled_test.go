package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/tracer"
)

// compiledKernel is a two-rank exchange with enough records that a replay
// is non-trivial.
func compiledKernel(p *tracer.Proc) {
	buf := p.NewArray("buf", 64)
	for it := 0; it < 4; it++ {
		if p.Rank() == 0 {
			for i := 0; i < 64; i++ {
				p.Compute(500)
				buf.Store(i, float64(i))
			}
			p.Send(1, it, buf)
		} else {
			p.Recv(buf, 0, it)
			for i := 0; i < 64; i++ {
				p.Compute(200)
				_ = buf.Load(i)
			}
		}
	}
}

// TestCompiledTraceMemoizes: the (trace, program) pair of one flavour is
// built once per cache entry and shared by every caller, concurrent ones
// included; distinct flavours get distinct programs.
func TestCompiledTraceMemoizes(t *testing.T) {
	c := NewTraceCache()
	cfg := tracer.DefaultConfig()
	type pair struct {
		tr   any
		prog *sim.Program
	}
	results := make([]pair, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, prog, err := c.CompiledTrace("compiled-app", 2, cfg, compiledKernel, FlavorBase)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = pair{tr: tr, prog: prog}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent CompiledTrace calls returned distinct trace/program pairs")
		}
	}
	_, real, err := c.CompiledTrace("compiled-app", 2, cfg, compiledKernel, FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	if real == results[0].prog {
		t.Fatal("base and overlap-real flavours share one program")
	}
	if _, _, err := c.CompiledTrace("compiled-app", 2, cfg, compiledKernel, "bogus"); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

// TestCompiledTraceReplaysIdentically: the cached program replays exactly
// like a fresh compile of the trace it was compiled from.
func TestCompiledTraceReplaysIdentically(t *testing.T) {
	c := NewTraceCache()
	tr, prog, err := c.CompiledTrace("compiled-app-replay", 2, tracer.DefaultConfig(), compiledKernel, FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	plat := network.Testbed(2).Platform()
	fresh, err := sim.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunProgram(plat, fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunProgram(plat, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cached program diverges: finish %g vs %g", want.FinishSec, got.FinishSec)
	}
}
