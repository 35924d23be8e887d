package tracer_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// FuzzSweepsMatchAccesses runs a random kernel on every rank and checks
// the sweep columns three ways: expanded, they equal the (clock, index)
// accesses the kernel logged itself; the overlap builders produce the same
// traces as a per-access reference builder; and the pattern analysis and
// scatter datasets equal a per-access reference analysis.
func FuzzSweepsMatchAccesses(f *testing.F) {
	rng := rand.New(rand.NewPCG(14, 7))
	for range 32 {
		b := make([]byte, 8+rng.IntN(120))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(data)
		logs := make([]*kernelLog, prog.ranks)
		run, err := tracer.Trace("fuzz", prog.ranks, prog.cfg, prog.kernel(logs))
		if err != nil {
			t.Fatal(err)
		}
		cols := checkColumns(t, run, logs)

		digest := func(tr *trace.Trace) string {
			d, err := trace.Digest(tr)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		names := run.BufferNames()
		selective := map[string]bool{}
		for i := 0; i < len(names); i += 2 {
			selective[names[i]] = true
		}
		realTr, selTr := run.OverlapReal(), run.OverlapSelective(selective)
		if got, want := digest(realTr), digest(refOverlap(run, cols, "overlap-real", nil)); got != want {
			t.Errorf("overlap-real digest %s, per-access reference %s", got, want)
		}
		if got, want := digest(selTr), digest(refOverlap(run, cols, "overlap-selective", selective)); got != want {
			t.Errorf("overlap-selective digest %s, per-access reference %s", got, want)
		}
		// The builders size each rank's records exactly before filling them.
		for _, tr := range []*trace.Trace{run.BaseTrace(), realTr, selTr} {
			for r, rt := range tr.Ranks {
				if len(rt.Records) != cap(rt.Records) {
					t.Errorf("%s rank %d: %d records in a slice sized for %d", tr.Flavor, r, len(rt.Records), cap(rt.Records))
				}
			}
		}

		if got, want := describe(pattern.Analyze(run)), describe(refAnalyze(run, cols)); got != want {
			t.Errorf("Analyze:\n%s\nper-access reference:\n%s", got, want)
		}
		for rank := range run.NumRanks {
			for _, name := range run.Logs[rank].ArrayNames {
				for _, side := range []pattern.Side{pattern.Production, pattern.Consumption} {
					got, want := pattern.ScatterFor(run, name, rank, side), refScatter(run, cols, name, rank, side)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("ScatterFor(%s, rank %d, %s): %d points in %d intervals, reference %d in %d",
							name, rank, side, len(got.Points), got.Intervals, len(want.Points), want.Intervals)
					}
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Random kernels

type stepKind uint8

const (
	stStore stepKind = iota
	stLoad
	stCompute
	stExchange  // blocking Send to the next rank, Recv from the previous
	stIsend     // Isend to the next rank, then Irecv from the previous
	stWait      // Wait of the array's outstanding Irecv
	stAllreduce // raw collective
	stTracked   // AllreduceTracked from array 0 into array 1
	stBarrier
)

type step struct {
	kind stepKind
	arr  int
	idx  int
	n    int64 // Compute argument
}

// fuzzProgram is a kernel every rank runs the same way, so the ranks'
// communication always matches: a ring where each rank sends to the next.
type fuzzProgram struct {
	ranks int
	cfg   tracer.Config
	lens  []int
	steps []step
}

// decodeProgram turns fuzz bytes into a kernel. Loops walk one to three
// arrays forward, backward, in place or in jumps, and may have an event
// replace or precede one of their accesses, so a sweep of another array
// can keep its strides across that event. Zero costs and Compute(0) make
// accesses share a time with each other and with interval marks.
func decodeProgram(data []byte) *fuzzProgram {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pr := &fuzzProgram{
		ranks: 2 + next()%2,
		cfg: tracer.Config{
			Chunks:    1 + next()%12,
			ElemBytes: 8,
			LoadCost:  int64(next() % 3),
			StoreCost: int64(next() % 3),
		},
	}
	pr.lens = []int{1, 1 + next()%3}
	for range next() % 3 {
		pr.lens = append(pr.lens, 1+next()%24)
	}
	event := func(b int) step {
		kinds := []stepKind{stExchange, stIsend, stWait, stAllreduce, stTracked, stBarrier}
		return step{kind: kinds[b%len(kinds)], arr: (b / len(kinds)) % len(pr.lens)}
	}
	for len(data) > 0 && len(pr.steps) < 2000 {
		switch op := next() % 8; {
		case op < 5:
			type member struct{ arr, kind, start, jump int }
			ms := make([]member, 1+next()%3)
			for i := range ms {
				ms[i] = member{arr: next() % len(pr.lens), kind: next(), start: next(), jump: 2 + next()%5}
			}
			count := next() % 24
			compute := []int64{0, 0, 1, 7}[next()%4]
			evAt, ev, replace := next(), event(next()), next()&1 == 1
			for i := range count {
				if compute > 0 {
					pr.steps = append(pr.steps, step{kind: stCompute, n: compute})
				}
				for j, m := range ms {
					L := pr.lens[m.arr]
					idx := []int{m.start + i, m.start - i + 24*L, m.start, m.start + i*m.jump}[(m.kind>>1)%4] % L
					s := step{kind: stStore + stepKind(m.kind&1), arr: m.arr, idx: idx}
					if i*len(ms)+j == evAt {
						pr.steps = append(pr.steps, ev)
						if replace {
							continue // the event takes the access's place
						}
					}
					pr.steps = append(pr.steps, s)
				}
			}
		case op < 7:
			pr.steps = append(pr.steps, event(next()))
		default:
			pr.steps = append(pr.steps, step{kind: stCompute, n: int64(next() % 16)})
		}
	}
	return pr
}

// logItem is one entry of a rank's program order: an access or a tracked
// event.
type logItem struct {
	access bool
	ev     tracer.EvKind
	store  bool
	arr    int
}

// kernelLog is what a kernel records of itself: per array, its stores and
// loads as (clock after the call, index), and the program order of its
// accesses and tracked events.
type kernelLog struct {
	stores, loads [][]tracer.Access
	order         []logItem
}

func (pr *fuzzProgram) kernel(logs []*kernelLog) func(p *tracer.Proc) {
	return func(p *tracer.Proc) {
		kl := &kernelLog{stores: make([][]tracer.Access, len(pr.lens)), loads: make([][]tracer.Access, len(pr.lens))}
		logs[p.Rank()] = kl
		arrs := make([]*tracer.Array, len(pr.lens))
		for i, n := range pr.lens {
			arrs[i] = p.NewArray(fmt.Sprintf("a%d", i), n)
		}
		next, prev := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		// An array with a posted Irecv is off limits until its Wait: the
		// sender may be writing into it.
		pending := make([]*tracer.RecvReq, len(pr.lens))
		evs := func(arr int, kinds ...tracer.EvKind) {
			for _, k := range kinds {
				kl.order = append(kl.order, logItem{ev: k, arr: arr})
			}
		}
		out := make([]float64, 1)
		for _, s := range pr.steps {
			a := arrs[s.arr]
			switch s.kind {
			case stStore, stLoad:
				if pending[s.arr] != nil {
					continue
				}
				acc := &kl.loads[s.arr]
				if s.kind == stStore {
					a.Store(s.idx, float64(s.idx))
					acc = &kl.stores[s.arr]
				} else {
					_ = a.Load(s.idx)
				}
				*acc = append(*acc, tracer.Access{T: p.Clock(), Idx: int32(s.idx)})
				kl.order = append(kl.order, logItem{access: true, store: s.kind == stStore, arr: s.arr})
			case stCompute:
				p.Compute(s.n)
			case stExchange:
				if pending[s.arr] == nil {
					p.Send(next, 10+s.arr, a)
					p.Recv(a, prev, 10+s.arr)
					evs(s.arr, tracer.EvSend, tracer.EvRecv)
				}
			case stIsend:
				if pending[s.arr] == nil {
					p.Isend(next, 20+s.arr, a)
					pending[s.arr] = p.Irecv(a, prev, 20+s.arr)
					evs(s.arr, tracer.EvISend, tracer.EvIRecvPost)
				}
			case stWait:
				if pending[s.arr] != nil {
					pending[s.arr].Wait()
					pending[s.arr] = nil
					evs(s.arr, tracer.EvRecvWait)
				}
			case stAllreduce:
				p.Allreduce([]float64{1}, out, mpi.OpSum)
			case stTracked:
				if pending[0] == nil && pending[1] == nil && pr.lens[1] == 1 {
					p.AllreduceTracked(arrs[0], arrs[1], mpi.OpSum)
					evs(0, tracer.EvCollSend)
					evs(1, tracer.EvCollRecv)
				}
			case stBarrier:
				p.Barrier()
			}
		}
		for i, req := range pending {
			if req != nil {
				req.Wait()
				evs(i, tracer.EvRecvWait)
			}
		}
	}
}

// checkColumns compares the expanded sweep columns with the kernels' own
// logs and checks that events and accesses share one gapless Seq order
// matching the kernels' program order. It returns the expanded columns,
// [rank][0 stores, 1 loads][array].
func checkColumns(t *testing.T, run *tracer.Run, logs []*kernelLog) [][2][][]tracer.Access {
	t.Helper()
	cols := make([][2][][]tracer.Access, run.NumRanks)
	for rank, log := range run.Logs {
		kl := logs[rank]
		type seqItem struct {
			seq int32
			t   int64
			it  logItem
			raw bool
		}
		var items []seqItem
		for side, logged := range [2][][]tracer.Access{kl.stores, kl.loads} {
			swept := [2][][]tracer.Sweep{log.Stores, log.Loads}[side]
			cols[rank][side] = make([][]tracer.Access, len(swept))
			for a, col := range swept {
				var got []tracer.Access
				for _, s := range col {
					for k := range s.N {
						acc := s.At(k)
						got = append(got, acc)
						items = append(items, seqItem{seq: acc.Seq, t: acc.T, it: logItem{access: true, store: side == 0, arr: a}})
					}
				}
				cols[rank][side][a] = got
				want := logged[a]
				if len(got) != len(want) {
					t.Fatalf("rank %d array %d side %d: %d accesses in %d sweeps, kernel logged %d", rank, a, side, len(got), len(col), len(want))
				}
				for i := range got {
					if got[i].T != want[i].T || got[i].Idx != want[i].Idx {
						t.Fatalf("rank %d array %d side %d access %d: %+v, kernel logged %+v", rank, a, side, i, got[i], want[i])
					}
				}
			}
		}
		for _, e := range log.Events {
			raw := e.Kind == tracer.EvSendRaw || e.Kind == tracer.EvRecvRaw
			items = append(items, seqItem{seq: e.Seq, t: e.T, it: logItem{ev: e.Kind, arr: e.Arr}, raw: raw})
		}
		slices.SortFunc(items, func(x, y seqItem) int { return cmp.Compare(x.seq, y.seq) })
		var order []logItem
		for i, it := range items {
			if it.seq != int32(i) {
				t.Fatalf("rank %d: Seq %d at program position %d", rank, it.seq, i)
			}
			if i > 0 && it.t < items[i-1].t {
				t.Fatalf("rank %d: time %d at Seq %d runs backwards from %d", rank, it.t, it.seq, items[i-1].t)
			}
			if !it.raw {
				order = append(order, it.it)
			}
		}
		if !slices.Equal(order, kl.order) {
			t.Fatalf("rank %d: program order of accesses and events differs from the kernel's", rank)
		}
	}
	return cols
}

// ---------------------------------------------------------------------------
// Per-access reference builder: the overlapped traces built by folding
// one access at a time into the chunk schedule.

type refSynthOp struct {
	t     int64
	minEv int
	rec   trace.Record
}

func refMsgID(rank int, seq int64) int64 { return int64(rank)*1_000_000_000 + seq }

func refOverlap(r *tracer.Run, cols [][2][][]tracer.Access, flavor string, ideal map[string]bool) *trace.Trace {
	tr := trace.New(r.Name, flavor, r.NumRanks)
	for rank, log := range r.Logs {
		refRankOverlap(r, tr, rank, log, cols[rank][0], cols[rank][1], ideal)
	}
	return tr
}

func refRankOverlap(r *tracer.Run, tr *trace.Trace, rank int, log *tracer.Log, storeCols, loadCols [][]tracer.Access, idealBufs map[string]bool) {
	events := log.Events
	nArr := len(log.ArrayLens)
	type recvInst struct{ postIdx, waitIdx int }
	sendsOf := make([][]int, nArr)
	recvsOf := make([][]recvInst, nArr)
	pendingWait := map[int]int{}
	pendingArr := map[int]int{}
	var commTimes []int64
	commIdxBefore := make([]int, len(events))
	for i, e := range events {
		commIdxBefore[i] = len(commTimes)
		switch e.Kind {
		case tracer.EvSend, tracer.EvISend:
			sendsOf[e.Arr] = append(sendsOf[e.Arr], i)
			commTimes = append(commTimes, e.T)
		case tracer.EvRecv:
			recvsOf[e.Arr] = append(recvsOf[e.Arr], recvInst{i, i})
			commTimes = append(commTimes, e.T)
		case tracer.EvIRecvPost:
			recvsOf[e.Arr] = append(recvsOf[e.Arr], recvInst{i, i})
			pendingWait[e.Handle] = len(recvsOf[e.Arr]) - 1
			pendingArr[e.Handle] = e.Arr
			commTimes = append(commTimes, e.T)
		case tracer.EvRecvWait:
			if pos, ok := pendingWait[e.Handle]; ok {
				recvsOf[pendingArr[e.Handle]][pos].waitIdx = i
				delete(pendingWait, e.Handle)
				delete(pendingArr, e.Handle)
			}
			commTimes = append(commTimes, e.T)
		case tracer.EvSendRaw, tracer.EvRecvRaw:
			commTimes = append(commTimes, e.T)
		}
	}
	prevStrict := make([]int64, len(commTimes))
	nextStrict := make([]int64, len(commTimes))
	for k := range commTimes {
		switch {
		case k == 0:
		case commTimes[k-1] < commTimes[k]:
			prevStrict[k] = commTimes[k-1]
		default:
			prevStrict[k] = prevStrict[k-1]
		}
	}
	for k := len(commTimes) - 1; k >= 0; k-- {
		switch {
		case k == len(commTimes)-1:
			nextStrict[k] = log.FinalClock
		case commTimes[k+1] > commTimes[k]:
			nextStrict[k] = commTimes[k+1]
		default:
			nextStrict[k] = nextStrict[k+1]
		}
	}

	var synth []refSynthOp
	irecvAt := make([][]trace.Record, len(events))
	handleCounter := 0
	var msgSeq int64
	for a := 0; a < nArr; a++ {
		n := log.ArrayLens[a]
		k := r.Cfg.ChunkCount(n)
		ideal := idealBufs[log.ArrayNames[a]]
		stores, loads := storeCols[a], loadCols[a]
		si := 0
		for j, evIdx := range sendsOf[a] {
			e := events[evIdx]
			msgSeq++
			id := refMsgID(rank, msgSeq) + 500_000
			last := make([]int64, k)
			if ideal {
				burstStart := prevStrict[commIdxBefore[evIdx]]
				for c := range last {
					last[c] = burstStart + (e.T-burstStart)*int64(c+1)/int64(k)
				}
			} else {
				intervalStart := int64(0)
				if j > 0 {
					intervalStart = events[sendsOf[a][j-1]].T
				}
				for c := range last {
					last[c] = intervalStart
				}
				for ; si < len(stores) && stores[si].Seq < e.Seq; si++ {
					acc := stores[si]
					c := tracer.ChunkOf(n, k, int(acc.Idx))
					if acc.T > last[c] {
						last[c] = acc.T
					}
				}
			}
			for c := 0; c < k; c++ {
				synth = append(synth, refSynthOp{t: last[c], minEv: -1, rec: trace.Record{
					Kind: trace.KindISend, Peer: e.Peer, Tag: e.Tag, Chunk: c,
					Bytes: r.Cfg.ChunkBytes(n, k, c), MsgID: id,
				}})
			}
		}
		li := 0
		for j, inst := range recvsOf[a] {
			post, wait := events[inst.postIdx], events[inst.waitIdx]
			msgSeq++
			id := refMsgID(rank, msgSeq) + 500_000
			first := make([]int64, k)
			if ideal {
				burstEnd := nextStrict[commIdxBefore[inst.waitIdx]]
				for c := range first {
					first[c] = wait.T + (burstEnd-wait.T)*int64(c)/int64(k)
				}
			} else {
				nextPostSeq := int32(math.MaxInt32)
				intervalEnd := log.FinalClock
				if j+1 < len(recvsOf[a]) {
					next := events[recvsOf[a][j+1].postIdx]
					nextPostSeq, intervalEnd = next.Seq, next.T
				}
				for c := range first {
					first[c] = intervalEnd
				}
				for li < len(loads) && loads[li].Seq < wait.Seq {
					li++
				}
				for ; li < len(loads) && loads[li].Seq < nextPostSeq; li++ {
					acc := loads[li]
					c := tracer.ChunkOf(n, k, int(acc.Idx))
					if acc.T < first[c] {
						first[c] = acc.T
					}
				}
			}
			specs := make([]trace.Record, k)
			for c := 0; c < k; c++ {
				handleCounter++
				specs[c] = trace.Record{
					Kind: trace.KindIRecv, Peer: post.Peer, Tag: post.Tag, Chunk: c,
					Bytes: r.Cfg.ChunkBytes(n, k, c), Handle: handleCounter, MsgID: id,
				}
				synth = append(synth, refSynthOp{t: first[c], minEv: inst.postIdx, rec: trace.Record{Kind: trace.KindWait, Handle: handleCounter}})
			}
			irecvAt[inst.postIdx] = specs
		}
	}
	slices.SortStableFunc(synth, func(x, y refSynthOp) int { return cmp.Compare(x.t, y.t) })

	var lastT int64
	var rawSeq int64
	emitCompute := func(to int64) {
		if to > lastT {
			tr.Append(rank, trace.Record{Kind: trace.KindCompute, Instr: to - lastT})
			lastT = to
		}
	}
	si := 0
	flush := func(upTo int64, curEv int) {
		for si < len(synth) && (synth[si].t < upTo || (synth[si].t == upTo && synth[si].minEv <= curEv)) {
			emitCompute(synth[si].t)
			tr.Append(rank, synth[si].rec)
			si++
		}
	}
	for i, e := range events {
		switch e.Kind {
		case tracer.EvSend, tracer.EvISend, tracer.EvRecvWait:
			flush(e.T, i)
			emitCompute(e.T)
		case tracer.EvRecv, tracer.EvIRecvPost:
			flush(e.T, i-1)
			emitCompute(e.T)
			for _, rec := range irecvAt[i] {
				tr.Append(rank, rec)
			}
			flush(e.T, i)
		case tracer.EvSendRaw, tracer.EvRecvRaw:
			flush(e.T, i)
			emitCompute(e.T)
			rawSeq++
			kind := trace.KindSend
			if e.Kind == tracer.EvRecvRaw {
				kind = trace.KindRecv
			}
			tr.Append(rank, trace.Record{
				Kind: kind, Peer: e.Peer, Tag: e.Tag,
				Bytes: int64(e.Elems) * r.Cfg.ElemBytes,
				MsgID: refMsgID(rank, rawSeq) + 800_000,
			})
		}
	}
	flush(log.FinalClock, len(events))
	emitCompute(log.FinalClock)
	tr.Append(rank, trace.Record{Kind: trace.KindWaitAll})
}

// ---------------------------------------------------------------------------
// Per-access reference analysis: Table II statistics and scatter datasets
// straight from the definitions, one access at a time.

// inInterval lists the accesses of a time-ordered column inside (start, end].
func inInterval(col []tracer.Access, start, end int64) []tracer.Access {
	var in []tracer.Access
	for _, a := range col {
		if a.T > start && a.T <= end {
			in = append(in, a)
		}
	}
	return in
}

type refAccum struct {
	sum   [4]float64
	n     int
	multi bool
}

func (a *refAccum) add(v [4]float64, multi bool) {
	for i := range v {
		a.sum[i] += v[i]
	}
	a.n++
	a.multi = a.multi || multi
}

func (a *refAccum) mean() (m [4]float64, ok bool) {
	if a.n == 0 {
		return [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}, false
	}
	for i := range m {
		m[i] = a.sum[i] / float64(a.n)
	}
	if !a.multi {
		m[1], m[2], m[3] = math.NaN(), math.NaN(), math.NaN()
	}
	return m, true
}

func (a *refAccum) prod() pattern.ProductionStats {
	m, ok := a.mean()
	s := pattern.ProductionStats{FirstElem: m[0], Quarter: m[1], Half: m[2], Whole: m[3]}
	if ok {
		s.Intervals, s.Chunkable = a.n, a.multi
	}
	return s
}

func (a *refAccum) cons() pattern.ConsumptionStats {
	m, ok := a.mean()
	s := pattern.ConsumptionStats{Nothing: m[0], Quarter: m[1], Half: m[2]}
	if ok {
		s.Intervals, s.Chunkable = a.n, a.multi
	}
	return s
}

func refAnalyze(run *tracer.Run, cols [][2][][]tracer.Access) *pattern.Analysis {
	an := &pattern.Analysis{App: run.Name, Production: map[string]*pattern.ProductionStats{}, Consumption: map[string]*pattern.ConsumptionStats{}}
	prodAcc, consAcc := map[string]*refAccum{}, map[string]*refAccum{}
	var appProd, appCons refAccum
	add := func(m map[string]*refAccum, app *refAccum, name string, v [4]float64, multi bool) {
		if m[name] == nil {
			m[name] = &refAccum{}
		}
		m[name].add(v, multi)
		app.add(v, multi)
	}
	for rank, log := range run.Logs {
		sends, recvs := log.IntervalMarks()
		for id, name := range log.ArrayNames {
			n := log.ArrayLens[id]
			for j := 1; j < len(sends[id]); j++ {
				start, end := sends[id][j-1], sends[id][j]
				in := inInterval(cols[rank][0][id], start, end)
				if len(in) == 0 || end <= start {
					continue
				}
				final := make([]int64, n)
				for _, a := range in {
					final[a.Idx] = max(final[a.Idx], a.T-start)
				}
				rel := make([]float64, n)
				for i, f := range final {
					rel[i] = 100 * float64(f) / float64(end-start)
				}
				sort.Float64s(rel)
				add(prodAcc, &appProd, name, [4]float64{rel[0], rel[(n+3)/4-1], rel[(n+1)/2-1], rel[n-1]}, n > 1)
			}
			for j := 0; j+1 < len(recvs[id]); j++ {
				start, end := recvs[id][j], recvs[id][j+1]
				in := inInterval(cols[rank][1][id], start, end)
				if len(in) == 0 || end <= start {
					continue
				}
				pct := func(minIdx int32) float64 {
					for _, a := range in {
						if a.Idx >= minIdx {
							return 100 * float64(a.T-start) / float64(end-start)
						}
					}
					return 100
				}
				add(consAcc, &appCons, name, [4]float64{pct(0), pct(int32((n + 3) / 4)), pct(int32((n + 1) / 2)), 0}, n > 1)
			}
		}
	}
	for name, acc := range prodAcc {
		s := acc.prod()
		an.Production[name] = &s
	}
	for name, acc := range consAcc {
		s := acc.cons()
		an.Consumption[name] = &s
	}
	an.AppProduction, an.AppConsumption = appProd.prod(), appCons.cons()
	return an
}

// describe renders an analysis with every float spelled out, NaN included.
func describe(an *pattern.Analysis) string {
	return fmt.Sprintf("%s\n%+v\n%+v\n%+v", an.App, an.AppProduction, an.AppConsumption, an.PerBufferRows())
}

func refScatter(run *tracer.Run, cols [][2][][]tracer.Access, name string, rank int, side pattern.Side) *pattern.Scatter {
	log := run.Logs[rank]
	id := slices.Index(log.ArrayNames, name)
	sc := &pattern.Scatter{App: run.Name, Buffer: name, Side: side, BufferLen: log.ArrayLens[id]}
	sends, recvs := log.IntervalMarks()
	marks, col := sends[id], cols[rank][0][id]
	if side == pattern.Consumption {
		marks, col = recvs[id], cols[rank][1][id]
	}
	for j := 0; j+1 < len(marks); j++ {
		start, end := marks[j], marks[j+1]
		in := inInterval(col, start, end)
		for _, a := range in {
			sc.Points = append(sc.Points, pattern.Point{RelT: float64(a.T-start) / float64(end-start), Elem: int(a.Idx)})
		}
		if len(in) > 0 {
			sc.Intervals++
		}
	}
	return sc
}
