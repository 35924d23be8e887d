package tracer

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/trace"
)

// This file turns a Run's logs into the three Dimemas-style traces:
//
//   - BaseTrace: the original execution — compute bursts between MPI events
//     plus blocking Send/Recv records, exactly what the legacy code did.
//   - OverlapReal: every tracked message split into chunks; each chunk's
//     ISend is placed at the virtual time of the chunk's *last store*
//     within its production interval (advancing sends), the chunk IRecvs
//     are posted where the original receive was (the paper's tracer emits
//     one non-blocking-receive record per chunk on intercepting the
//     receive call), and each chunk's Wait is placed at the virtual time of
//     the chunk's *first load* within its consumption interval
//     (post-postponing receptions).
//   - OverlapIdeal: the same transformation but with chunk sends and waits
//     uniformly distributed across the original computation bursts — the
//     best case of Eq. 1 in the paper.
//
// Production intervals span consecutive sends of the same buffer and
// consumption intervals span consecutive receives of the same buffer,
// matching the definitions in Section V.A of the paper. Double buffering is
// what lets the transformed execution keep only one outstanding generation
// per buffer; the builder enforces it by draining un-consumed chunk waits
// just before the buffer's next reception, and a final WaitAll at the end
// of each rank.

// BaseTrace builds the non-overlapped trace of the original execution.
func (r *Run) BaseTrace() *trace.Trace {
	tr := trace.New(r.Name, "base", r.NumRanks)
	for rank, log := range r.Logs {
		// Every comm event becomes one record, plus a final WaitAll when
		// any receive was non-blocking.
		n := computeRecords(nil, log.Events, log.FinalClock)
		anyIRecv := false
		for _, e := range log.Events {
			if isComm(e.Kind) {
				n++
			}
			anyIRecv = anyIRecv || e.Kind == EvIRecvPost
		}
		if anyIRecv {
			n++
		}
		tr.Ranks[rank].Records = make([]trace.Record, 0, n)

		var lastT int64
		var msgSeq int64
		emitCompute := func(to int64) {
			if to > lastT {
				tr.Append(rank, trace.Record{Kind: trace.KindCompute, Instr: to - lastT})
				lastT = to
			}
		}
		for _, e := range log.Events {
			switch e.Kind {
			case EvSend, EvSendRaw:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindSend, Peer: e.Peer, Tag: e.Tag,
					Bytes: int64(e.Elems) * r.Cfg.ElemBytes,
					MsgID: msgID(rank, msgSeq),
				})
			case EvISend:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindISend, Peer: e.Peer, Tag: e.Tag,
					Bytes: int64(e.Elems) * r.Cfg.ElemBytes,
					MsgID: msgID(rank, msgSeq),
				})
			case EvRecv, EvRecvRaw:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindRecv, Peer: e.Peer, Tag: e.Tag,
					Bytes: int64(e.Elems) * r.Cfg.ElemBytes,
					MsgID: msgID(rank, msgSeq),
				})
			case EvIRecvPost:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindIRecv, Peer: e.Peer, Tag: e.Tag,
					Bytes:  int64(e.Elems) * r.Cfg.ElemBytes,
					Handle: e.Handle, MsgID: msgID(rank, msgSeq),
				})
			case EvRecvWait:
				emitCompute(e.T)
				tr.Append(rank, trace.Record{Kind: trace.KindWait, Handle: e.Handle})
			}
		}
		emitCompute(log.FinalClock)
		if anyIRecv {
			// Defensive drain should an application have skipped a wait.
			tr.Append(rank, trace.Record{Kind: trace.KindWaitAll})
		}
	}
	return tr
}

// isComm reports whether an event is a transfer, a receive post or a
// wait: every event but a tracked collective's markers. The merge walks
// end a compute burst at each of them.
func isComm(k EvKind) bool { return k != EvCollSend && k != EvCollRecv }

// computeRecords counts the compute records of a merge walk over the
// times of synth, sorted, and of events' comm events, then the final
// clock. emitCompute emits one only when the time passes the end of the
// last burst, so the walk, visiting the times in order, emits one per
// distinct positive time. A gated synthetic op the walk holds back past
// its time waits behind a comm event at that very time, so it adds none.
func computeRecords(synth []synthOp, events []Event, final int64) int {
	n, lastT := 0, int64(0)
	burstTo := func(t int64) {
		if t > lastT {
			n++
			lastT = t
		}
	}
	si := 0
	for _, e := range events {
		if !isComm(e.Kind) {
			continue
		}
		for ; si < len(synth) && synth[si].t <= e.T; si++ {
			burstTo(synth[si].t)
		}
		burstTo(e.T)
	}
	for _, op := range synth[si:] {
		burstTo(op.t)
	}
	burstTo(final)
	return n
}

// chunkRuns calls f once per run of consecutive accesses of sweep p that
// fall in one chunk of an n-element message split into k chunks, with the
// run's first and last access offsets. The elements of a sweep move
// monotonically, so each run ends where the stride leaves its chunk and
// costs one ChunkOf, however many accesses it holds. As the sweep's times
// never decrease, access lo is the run's earliest and hi its latest.
func chunkRuns(p Sweep, n, k int, f func(c int, lo, hi int32)) {
	for lo := 0; lo < int(p.N); {
		idx, hi := int(p.Idx)+lo*int(p.DIdx), int(p.N)-1
		c := ChunkOf(n, k, idx)
		switch cLo, cHi := ChunkBounds(n, k, c); {
		case p.DIdx > 0:
			hi = min(hi, lo+(cHi-1-idx)/int(p.DIdx))
		case p.DIdx < 0:
			hi = min(hi, lo+(idx-cLo)/int(-p.DIdx))
		}
		f(c, int32(lo), int32(hi))
		lo = hi + 1
	}
}

// msgID derives a run-unique logical message id.
func msgID(rank int, seq int64) int64 { return int64(rank)*1_000_000_000 + seq }

// OverlapReal builds the overlapped trace driven by the measured
// production/consumption patterns.
func (r *Run) OverlapReal() *trace.Trace {
	return r.buildOverlap("overlap-real", func(string) bool { return false })
}

// OverlapIdeal builds the overlapped trace with ideal (uniform)
// production/consumption patterns.
func (r *Run) OverlapIdeal() *trace.Trace {
	return r.buildOverlap("overlap-ideal", func(string) bool { return true })
}

// OverlapSelective builds an overlapped trace in which only the named
// buffers get the ideal (uniform) chunk schedule while all others keep
// their measured patterns. Comparing selective traces quantifies which
// buffer's production/consumption pattern limits the overlap — the
// "identify bottlenecks and fix them" workflow of the paper, one buffer at
// a time.
func (r *Run) OverlapSelective(idealBuffers map[string]bool) *trace.Trace {
	return r.buildOverlap("overlap-selective", func(name string) bool { return idealBuffers[name] })
}

// BufferNames returns the names of all tracked buffers that participate in
// communication anywhere in the run, sorted.
func (r *Run) BufferNames() []string {
	seen := map[string]bool{}
	for _, log := range r.Logs {
		for _, e := range log.Events {
			switch e.Kind {
			case EvSend, EvISend, EvRecv, EvIRecvPost, EvCollSend, EvCollRecv:
				if e.Arr >= 0 && e.Arr < len(log.ArrayNames) {
					seen[log.ArrayNames[e.Arr]] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// synthOp is a chunk ISend or chunk Wait scheduled at virtual time t.
// minEv gates emission: the op may only be emitted once the merge walk has
// processed the original event with that index, which keeps a chunk Wait
// scheduled at exactly its receive's timestamp behind the IRecv that
// defines its handle. ISends carry minEv -1 (no gate).
type synthOp struct {
	t     int64
	minEv int
	rec   trace.Record
}

func (r *Run) buildOverlap(flavor string, idealFor func(bufferName string) bool) *trace.Trace {
	tr := trace.New(r.Name, flavor, r.NumRanks)
	var synth []synthOp // one rank's schedule at a time
	for rank, log := range r.Logs {
		synth = r.buildRankOverlap(tr, rank, log, idealFor, synth[:0])
	}
	return tr
}

// buildRankOverlap emits one rank's overlapped records. It plans the
// rank's synthetic ops in synth's storage and returns that storage for
// the next rank to reuse.
func (r *Run) buildRankOverlap(tr *trace.Trace, rank int, log *Log, idealFor func(string) bool, synth []synthOp) []synthOp {
	events := log.Events

	// Pass 0: index per-array send/receive event positions and the
	// times of all comm events (for the ideal variant's burst
	// boundaries). Events hold only communication, a few entries per
	// message; the access columns are walked in place by pass 1.
	nArr := len(log.ArrayLens)
	// A receive instance pairs the posting event with the event at which
	// the data became available on the rank: for blocking receives both
	// are the EvRecv itself, for non-blocking ones the EvIRecvPost and
	// its EvRecvWait.
	type recvInst struct {
		postIdx, waitIdx int
	}
	sendsOf := make([][]int, nArr) // EvSend/EvISend event indices per array
	recvsOf := make([][]recvInst, nArr)
	pendingWait := map[int]int{} // tracked irecv handle -> recvsOf position (by array)
	pendingArr := map[int]int{}  // tracked irecv handle -> array id
	var commTimes []int64        // times of all comm events in program order
	nRaw := 0                    // untracked transfers, kept as they are
	commIdxBefore := make([]int, len(events))
	for i, e := range events {
		commIdxBefore[i] = len(commTimes)
		switch e.Kind {
		case EvSend, EvISend:
			sendsOf[e.Arr] = append(sendsOf[e.Arr], i)
			commTimes = append(commTimes, e.T)
		case EvRecv:
			recvsOf[e.Arr] = append(recvsOf[e.Arr], recvInst{postIdx: i, waitIdx: i})
			commTimes = append(commTimes, e.T)
		case EvIRecvPost:
			recvsOf[e.Arr] = append(recvsOf[e.Arr], recvInst{postIdx: i, waitIdx: i})
			pendingWait[e.Handle] = len(recvsOf[e.Arr]) - 1
			pendingArr[e.Handle] = e.Arr
			commTimes = append(commTimes, e.T)
		case EvRecvWait:
			if pos, ok := pendingWait[e.Handle]; ok {
				recvsOf[pendingArr[e.Handle]][pos].waitIdx = i
				delete(pendingWait, e.Handle)
				delete(pendingArr, e.Handle)
			}
			commTimes = append(commTimes, e.T)
		case EvSendRaw, EvRecvRaw:
			commTimes = append(commTimes, e.T)
			nRaw++
		}
	}
	// Burst boundaries for the ideal variant: the producing/consuming
	// computation burst is delimited by the nearest comm events at a
	// *strictly different* time. Consecutive comm events at the same
	// virtual instant (a halo-exchange phase, a collective's internal
	// steps) belong to one communication phase and must not collapse the
	// burst to zero length. Precomputed in O(n).
	prevStrict := make([]int64, len(commTimes))
	nextStrict := make([]int64, len(commTimes))
	for k := range commTimes {
		if k == 0 {
			prevStrict[k] = 0
		} else if commTimes[k-1] < commTimes[k] {
			prevStrict[k] = commTimes[k-1]
		} else {
			prevStrict[k] = prevStrict[k-1]
		}
	}
	for k := len(commTimes) - 1; k >= 0; k-- {
		if k == len(commTimes)-1 {
			nextStrict[k] = log.FinalClock
		} else if commTimes[k+1] > commTimes[k] {
			nextStrict[k] = commTimes[k+1]
		} else {
			nextStrict[k] = nextStrict[k+1]
		}
	}
	prevCommTime := func(evIdx int) int64 {
		// The comm event at evIdx occupies slot commIdxBefore[evIdx].
		return prevStrict[commIdxBefore[evIdx]]
	}
	nextCommTime := func(evIdx int) int64 {
		return nextStrict[commIdxBefore[evIdx]]
	}

	// Pass 1: plan synthetic chunk ISends and Waits, plus the IRecv
	// inserts at each replaced receive.
	nSynth := 0
	for a := 0; a < nArr; a++ {
		nSynth += (len(sendsOf[a]) + len(recvsOf[a])) * r.Cfg.ChunkCount(log.ArrayLens[a])
	}
	synth = slices.Grow(synth, nSynth)
	irecvAt := make([][]trace.Record, len(events)) // original event index -> chunk irecvs
	sched := make([]int64, max(r.Cfg.Chunks, 1))   // per-chunk times of one message
	handleCounter := 0                             // also the number of chunk IRecvs
	var msgSeq int64

	for a := 0; a < nArr; a++ {
		n := log.ArrayLens[a]
		k := r.Cfg.ChunkCount(n)
		ideal := idealFor(log.ArrayNames[a])
		stores, loads := NewCursor(log.Stores[a]), NewCursor(log.Loads[a])

		// Sends: chunk c leaves at its last update (real) or uniformly
		// through the producing burst (ideal).
		for j, evIdx := range sendsOf[a] {
			e := events[evIdx]
			msgSeq++
			id := msgID(rank, msgSeq) + 500_000 // offset avoids clashing with base ids
			last := sched[:k]
			if ideal {
				burstStart := prevCommTime(evIdx)
				for c := range last {
					last[c] = burstStart + (e.T-burstStart)*int64(c+1)/int64(k)
				}
			} else {
				// The production interval holds the stores since the
				// previous send, which the cursor has already passed.
				intervalStart := int64(0)
				if j > 0 {
					intervalStart = events[sendsOf[a][j-1]].T
				}
				for c := range last {
					last[c] = intervalStart
				}
				for p := range stores.BeforeSeq(e.Seq) {
					chunkRuns(p, n, k, func(c int, _, hi int32) {
						last[c] = max(last[c], p.At(hi).T)
					})
				}
			}
			for c := 0; c < k; c++ {
				synth = append(synth, synthOp{
					t:     last[c],
					minEv: -1,
					rec: trace.Record{
						Kind: trace.KindISend, Peer: e.Peer, Tag: e.Tag, Chunk: c,
						Bytes: r.Cfg.ChunkBytes(n, k, c), MsgID: id,
					},
				})
			}
		}

		// Receives: chunk IRecvs post where the original receive was
		// posted; chunk c's Wait sits at its first load (real) or
		// uniformly across the consuming burst (ideal); chunks never
		// loaded drain at the end of the consumption interval.
		for j, inst := range recvsOf[a] {
			post := events[inst.postIdx]
			wait := events[inst.waitIdx]
			msgSeq++
			id := msgID(rank, msgSeq) + 500_000
			first := sched[:k]
			if ideal {
				burstEnd := nextCommTime(inst.waitIdx)
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
				// Loads before this receive belong to the previous interval.
				for range loads.BeforeSeq(wait.Seq) {
				}
				for p := range loads.BeforeSeq(nextPostSeq) {
					chunkRuns(p, n, k, func(c int, lo, _ int32) {
						first[c] = min(first[c], p.At(lo).T)
					})
				}
			}
			specs := make([]trace.Record, k)
			for c := 0; c < k; c++ {
				handleCounter++
				h := handleCounter
				specs[c] = trace.Record{
					Kind: trace.KindIRecv, Peer: post.Peer, Tag: post.Tag, Chunk: c,
					Bytes: r.Cfg.ChunkBytes(n, k, c), Handle: h, MsgID: id,
				}
				synth = append(synth, synthOp{
					t:     first[c],
					minEv: inst.postIdx,
					rec:   trace.Record{Kind: trace.KindWait, Handle: h},
				})
			}
			irecvAt[inst.postIdx] = specs
		}
	}
	slices.SortStableFunc(synth, func(x, y synthOp) int { return cmp.Compare(x.t, y.t) })

	// Pass 2 emits every synthetic op, chunk IRecv and raw transfer, the
	// compute bursts between them and a final WaitAll.
	tr.Ranks[rank].Records = make([]trace.Record, 0,
		computeRecords(synth, events, log.FinalClock)+len(synth)+handleCounter+nRaw+1)

	// Pass 2: merge the original comm events with the synthetic schedule,
	// splitting compute bursts at every injection point.
	var lastT int64
	var rawSeq int64
	emitCompute := func(to int64) {
		if to > lastT {
			tr.Append(rank, trace.Record{Kind: trace.KindCompute, Instr: to - lastT})
			lastT = to
		}
	}
	si := 0
	// flush emits synthetic ops scheduled strictly before upTo, plus ops
	// at exactly upTo whose gating event (minEv) has been processed. On
	// an equal-time gate the cursor stops — head-of-line order at a
	// single virtual instant is immaterial to the reconstruction.
	flush := func(upTo int64, curEv int) {
		for si < len(synth) && (synth[si].t < upTo || (synth[si].t == upTo && synth[si].minEv <= curEv)) {
			emitCompute(synth[si].t)
			tr.Append(rank, synth[si].rec)
			si++
		}
	}
	for i, e := range events {
		switch e.Kind {
		case EvSend, EvISend:
			flush(e.T, i)
			emitCompute(e.T)
			// The original send is fully replaced by the already-flushed
			// chunk ISends.
		case EvRecvWait:
			flush(e.T, i)
			emitCompute(e.T)
			// The original completion wait dissolves into the per-chunk
			// Waits at the chunks' first use.
		case EvRecv, EvIRecvPost:
			flush(e.T, i-1)
			emitCompute(e.T)
			for _, rec := range irecvAt[i] {
				tr.Append(rank, rec)
			}
			flush(e.T, i)
		case EvSendRaw:
			flush(e.T, i)
			emitCompute(e.T)
			rawSeq++
			tr.Append(rank, trace.Record{
				Kind: trace.KindSend, Peer: e.Peer, Tag: e.Tag,
				Bytes: int64(e.Elems) * r.Cfg.ElemBytes,
				MsgID: msgID(rank, rawSeq) + 800_000,
			})
		case EvRecvRaw:
			flush(e.T, i)
			emitCompute(e.T)
			rawSeq++
			tr.Append(rank, trace.Record{
				Kind: trace.KindRecv, Peer: e.Peer, Tag: e.Tag,
				Bytes: int64(e.Elems) * r.Cfg.ElemBytes,
				MsgID: msgID(rank, rawSeq) + 800_000,
			})
		}
	}
	flush(log.FinalClock, len(events))
	emitCompute(log.FinalClock)
	tr.Append(rank, trace.Record{Kind: trace.KindWaitAll})
	return synth
}
