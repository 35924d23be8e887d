// Package tracer is the Valgrind-equivalent front end of the framework: it
// instruments an application run and produces, from that single run, the
// non-overlapped trace and the two overlapped (real-pattern and
// ideal-pattern) traces described in the paper.
//
// The paper's tool executes each MPI process in a binary-translation VM,
// wrapping every MPI call and intercepting every load and store to
// communicated buffers; time-stamps are executed-instruction counts scaled
// by an average MIPS rate. Our substitute asks the application to express
// the same information directly:
//
//   - Proc.Compute(n) advances the rank's virtual clock by n instructions
//     (the compute bursts Valgrind would have counted);
//   - communicated buffers are tracker-owned Arrays whose Load and Store
//     methods record (virtual time, element) access pairs and charge a
//     configurable per-access instruction cost;
//   - Proc.Send/Proc.Recv transfer whole tracked Arrays through the mpi
//     substrate, and collectives decompose into instrumented raw
//     point-to-point transfers.
//
// A Run holds one Log per rank in two parts. Log.Events lists the
// communication events and tracked-collective markers, a few per message.
// The element accesses, which outnumber them by orders of magnitude, are
// kept as columns: Log.Stores[a] and Log.Loads[a] hold array a's accesses
// in program order. Every event and access carries a Seq, its position in
// the rank's single program-order stream, so the columns interleave with
// the events without being stored in one list.
//
// A column is a list of strided sweeps, not one entry per access. One
// Sweep stands for N accesses whose time, element and Seq each advance by
// a fixed stride, which is how kernels walk their buffers: a loop over a
// halo is one sweep however long the halo is. While a rank runs, each
// column holds its closed sweeps, one open sweep and the access that would
// extend it. An access matching that prediction costs three compares and
// four adds. Any other access goes to a slow path: the second access of a
// sweep fixes its strides, and a stride break closes the open sweep and
// opens a new one. The open sweep joins the column when the rank's kernel
// returns. The encoding is lossless and Sweep.At recovers any access.
//
// The builders in build.go and the pattern analyzer cut sweeps at event
// Seqs and interval times with a Cursor, and fold each piece per chunk
// analytically instead of visiting its accesses. The builders count each
// rank's records before emitting them, so every record slice is allocated
// once at its final size.
package tracer

import (
	"fmt"
	"iter"
	"math"
	"sync"

	"repro/internal/mpi"
)

// Config tunes the instrumentation and the chunking transformation.
type Config struct {
	// Chunks is the number of chunks each tracked message is split into
	// in the overlapped traces (the paper uses 4). Messages with fewer
	// elements than Chunks get one chunk per element; one-element
	// messages are never chunked (the Alya rule).
	Chunks int
	// ElemBytes is the wire size of one tracked element (8 = float64).
	ElemBytes int64
	// LoadCost and StoreCost are the instructions charged per tracked
	// access, modelling the work of the instruction stream around each
	// memory operation.
	LoadCost, StoreCost int64
}

// DefaultConfig mirrors the paper's setup: four chunks per message,
// 8-byte elements, one instruction per tracked access.
func DefaultConfig() Config {
	return Config{Chunks: 4, ElemBytes: 8, LoadCost: 1, StoreCost: 1}
}

func (c Config) validate() error {
	switch {
	case c.Chunks <= 0:
		return fmt.Errorf("tracer: Chunks=%d, must be positive", c.Chunks)
	case c.ElemBytes <= 0:
		return fmt.Errorf("tracer: ElemBytes=%d, must be positive", c.ElemBytes)
	case c.LoadCost < 0 || c.StoreCost < 0:
		return fmt.Errorf("tracer: negative access cost (load=%d store=%d)", c.LoadCost, c.StoreCost)
	}
	return nil
}

// EvKind discriminates event-log entries.
type EvKind uint8

// Event kinds recorded in a rank's log.
const (
	// EvSend: a tracked array was sent (blocking at the MPI level).
	EvSend EvKind = iota
	// EvRecv: a tracked array was received.
	EvRecv
	// EvSendRaw / EvRecvRaw: untracked point-to-point transfers
	// (collective internals and scalar control traffic). Never chunked.
	EvSendRaw
	EvRecvRaw
	// EvCollSend / EvCollRecv mark a tracked array passing through a
	// collective (contribution and result, respectively). They carry no
	// transfer themselves — the collective's raw point-to-point events do
	// — but they delimit production/consumption intervals for the
	// pattern analyzer (how Table II reports Alya).
	EvCollSend
	EvCollRecv
	// EvISend: a tracked array was sent with a non-blocking send.
	EvISend
	// EvIRecvPost / EvRecvWait: a tracked non-blocking receive was
	// posted / waited. Handle links the pair.
	EvIRecvPost
	EvRecvWait
)

// Event is one communication record. T is the rank's virtual time, in
// instructions, when the event occurred; Seq is its position in the rank's
// program-order stream of events and accesses.
type Event struct {
	T     int64
	Seq   int32
	Kind  EvKind
	Arr   int // array id, -1 for raw transfers
	Peer  int // partner rank (comm events)
	Tag   int
	Elems int // element count of the transfer or marked buffer
	// Handle pairs EvIRecvPost with its EvRecvWait (rank-local).
	Handle int
}

// Access is one tracked element access: the virtual time T after charging
// the access cost, the element index Idx, and the access's Seq in the
// rank's program-order stream.
type Access struct {
	T   int64
	Idx int32
	Seq int32
}

// Sweep encodes N accesses in arithmetic progression: access k has time
// T+k·DT, element Idx+k·DIdx and program position Seq+k·DSeq. A
// one-access sweep has zero strides. DT is never negative and DSeq is
// positive once N > 1, as the clock never runs backwards and Seq grows.
type Sweep struct {
	T, DT                int64
	Idx, DIdx, Seq, DSeq int32
	N                    int32
}

// At returns access k of the sweep, 0 <= k < N.
func (s Sweep) At(k int32) Access {
	return Access{T: s.T + int64(k)*s.DT, Idx: s.Idx + k*s.DIdx, Seq: s.Seq + k*s.DSeq}
}

// slice returns the sub-sweep of accesses [lo, hi).
func (s Sweep) slice(lo, hi int32) Sweep {
	a := s.At(lo)
	s.T, s.Idx, s.Seq, s.N = a.T, a.Idx, a.Seq, hi-lo
	return s
}

// Cursor walks a sweep column in program order, handing out the accesses
// before a Seq or up to a time as sub-sweeps. Each cut costs one division,
// whatever the number of accesses it passes.
type Cursor struct {
	col []Sweep
	off int32 // accesses of col[0] already handed out
}

// NewCursor returns a cursor at the start of col.
func NewCursor(col []Sweep) Cursor { return Cursor{col: col} }

// BeforeSeq yields the column's next pieces whose accesses all have a Seq
// below seq, and leaves the cursor at the first access at or past seq.
func (c *Cursor) BeforeSeq(seq int32) iter.Seq[Sweep] {
	return c.pieces(func(s Sweep) int64 {
		switch {
		case s.Seq >= seq:
			return 0
		case s.DSeq == 0:
			return int64(s.N)
		}
		return (int64(seq) - int64(s.Seq) + int64(s.DSeq) - 1) / int64(s.DSeq)
	})
}

// UpTo yields the column's next pieces whose accesses all have a time at
// or before t, and leaves the cursor at the first later access.
func (c *Cursor) UpTo(t int64) iter.Seq[Sweep] {
	return c.pieces(func(s Sweep) int64 {
		switch {
		case s.T > t:
			return 0
		case s.DT == 0:
			return int64(s.N)
		}
		return (t-s.T)/s.DT + 1
	})
}

// pieces yields the leading accesses of each remaining sweep, as many as
// count returns for the sweep's unread part (all when it returns more),
// until count stops short of a whole sweep.
func (c *Cursor) pieces(count func(rest Sweep) int64) iter.Seq[Sweep] {
	return func(yield func(Sweep) bool) {
		for len(c.col) > 0 {
			rest := c.col[0].slice(c.off, c.col[0].N)
			k := int32(min(count(rest), int64(rest.N)))
			if k == 0 {
				return
			}
			if k == rest.N {
				c.col, c.off = c.col[1:], 0
			} else {
				c.off += k
			}
			if !yield(rest.slice(0, k)) || k < rest.N {
				return
			}
		}
	}
}

// Log is the complete instrumentation record of one rank: its
// communication events plus per-array access columns. Within a column, T
// is non-decreasing and Seq strictly increasing.
type Log struct {
	Rank       int
	Events     []Event
	FinalClock int64
	// ArrayLens maps array id to element count, for analysis.
	ArrayLens []int
	// ArrayNames maps array id to the name given at NewArray.
	ArrayNames []string
	// Stores and Loads map array id to that array's store and load
	// accesses in program order, as strided sweeps.
	Stores, Loads [][]Sweep
}

// IntervalMarks returns, per array id, the virtual times that delimit the
// array's production and consumption intervals (Section V.A of the paper),
// in program order. sends marks each hand-off of the array to the network:
// Send, Isend and a tracked collective's contribution. recvs marks each
// time received data became available: Recv, the Wait of an Irecv and a
// tracked collective's result.
func (l *Log) IntervalMarks() (sends, recvs [][]int64) {
	sends, recvs = make([][]int64, len(l.ArrayLens)), make([][]int64, len(l.ArrayLens))
	for _, e := range l.Events {
		switch e.Kind {
		case EvSend, EvISend, EvCollSend:
			sends[e.Arr] = append(sends[e.Arr], e.T)
		case EvRecv, EvRecvWait, EvCollRecv:
			recvs[e.Arr] = append(recvs[e.Arr], e.T)
		}
	}
	return sends, recvs
}

// Run is the output of tracing one application execution.
//
// A Run is immutable once Trace returns: the trace builders only read the
// event logs, so one Run may back any number of concurrent replays and
// variant builds. Derive re-parameterized variants with WithChunks (or
// WithConfig) instead of mutating Cfg in place — a shallow struct copy
// (`v := *run`) would alias Logs and its event slices, and writing through
// either copy would race with readers of the other.
type Run struct {
	Name     string
	NumRanks int
	Cfg      Config
	Logs     []*Log // indexed by rank; treat as immutable
}

// WithConfig returns a copy-on-write variant of the run whose traces are
// built under cfg. The variant owns its Run header and Logs slice (so
// appends or element writes through one cannot reach the other) while the
// per-rank logs — immutable after Trace — stay shared, keeping variant
// creation O(ranks) instead of O(events).
func (r *Run) WithConfig(cfg Config) *Run {
	v := *r
	v.Cfg = cfg
	v.Logs = append([]*Log(nil), r.Logs...)
	return &v
}

// WithChunks returns a copy-on-write variant of the run whose overlapped
// traces split each message into k chunks. This is the safe spelling of
// the chunk-count ablation's per-point rebuild; see WithConfig for the
// sharing contract.
func (r *Run) WithChunks(k int) *Run {
	cfg := r.Cfg
	cfg.Chunks = k
	return r.WithConfig(cfg)
}

// Proc is the instrumented per-rank endpoint handed to application kernels.
type Proc struct {
	mp    *mpi.Proc
	cfg   Config
	clock int64
	// progSeq is the next program-order position. Accesses advance it
	// unchecked; record and the end of the rank's kernel fail the trace
	// once it has passed math.MaxInt32 positions.
	progSeq  int64
	events   []Event
	arrays   []*Array
	seq      int // collective sequence counter
	irecvSeq int // tracked non-blocking receive handles
}

// Trace executes app once per rank under instrumentation and returns the
// collected run. A non-positive rank count, a rank that records more than
// math.MaxInt32 events and accesses, or an Array of more than
// math.MaxInt32 elements fails the trace with an error.
func Trace(name string, ranks int, cfg Config, app func(p *Proc)) (*Run, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("tracer: %d ranks, must be positive", ranks)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	run := &Run{Name: name, NumRanks: ranks, Cfg: cfg, Logs: make([]*Log, ranks)}
	var mu sync.Mutex
	err := mpi.Run(ranks, func(mp *mpi.Proc) {
		p := &Proc{mp: mp, cfg: cfg}
		app(p)
		if p.progSeq > math.MaxInt32 {
			p.overflow()
		}
		log := &Log{
			Rank:       mp.Rank(),
			Events:     p.events,
			FinalClock: p.clock,
			ArrayLens:  make([]int, len(p.arrays)),
			ArrayNames: make([]string, len(p.arrays)),
			Stores:     make([][]Sweep, len(p.arrays)),
			Loads:      make([][]Sweep, len(p.arrays)),
		}
		for i, a := range p.arrays {
			log.ArrayLens[i] = len(a.data)
			log.ArrayNames[i] = a.name
			log.Stores[i] = a.stores.sweeps()
			log.Loads[i] = a.loads.sweeps()
		}
		mu.Lock()
		run.Logs[mp.Rank()] = log
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// Rank returns the rank id.
func (p *Proc) Rank() int { return p.mp.Rank() }

// Size returns the world size.
func (p *Proc) Size() int { return p.mp.Size() }

// Clock returns the rank's current virtual time in instructions.
func (p *Proc) Clock() int64 { return p.clock }

// Compute advances the virtual clock by n executed instructions. Negative
// n is ignored.
func (p *Proc) Compute(n int64) {
	if n > 0 {
		p.clock += n
	}
}

// overflow fails the trace of a rank that recorded more than
// math.MaxInt32 events and accesses, whose Seqs no longer fit an int32.
func (p *Proc) overflow() {
	panic(fmt.Sprintf("tracer: rank %d recorded more than %d events and accesses", p.Rank(), math.MaxInt32))
}

func (p *Proc) record(e Event) {
	if p.progSeq >= math.MaxInt32 {
		p.overflow()
	}
	e.T = p.clock
	e.Seq = int32(p.progSeq)
	p.progSeq++
	p.events = append(p.events, e)
}

// column records one array's stores or loads: the closed sweeps, the open
// sweep that accesses are extending, and the access that would extend it.
type column struct {
	closed []Sweep
	open   Sweep // N == 0 before the first access
	// nextT, nextIdx and nextSeq predict the access that continues all
	// three strides of open. nextSeq is -1, which no access has, while
	// open holds fewer than two accesses.
	nextT   int64
	nextIdx int32
	nextSeq int64
}

// access records element i's access at the current clock. An access that
// continues the open sweep's strides, the common case, costs three
// compares and four adds; anything else goes to the column's slow path.
func (p *Proc) access(c *column, i int) {
	seq := p.progSeq
	p.progSeq++
	if c.nextSeq == seq && c.nextT == p.clock && c.nextIdx == int32(i) {
		c.open.N++
		c.nextT += c.open.DT
		c.nextIdx += c.open.DIdx
		c.nextSeq += int64(c.open.DSeq)
		return
	}
	c.miss(p.clock, int32(i), seq)
}

// miss records an access the prediction did not match. The second access
// of a sweep fixes its strides; any later mismatch closes the open sweep
// and starts a one-access sweep. A predicted index past math.MaxInt32
// wraps negative in int32 and so matches no element; a Seq past it fails
// the trace.
func (c *column) miss(t int64, idx int32, seq int64) {
	switch {
	case c.open.N == 1:
		s := &c.open
		s.DT, s.DIdx, s.DSeq, s.N = t-s.T, idx-s.Idx, int32(seq)-s.Seq, 2
		c.nextT, c.nextIdx, c.nextSeq = t+s.DT, idx+s.DIdx, seq+int64(s.DSeq)
		return
	case c.open.N > 1:
		c.closed = append(c.closed, c.open)
	}
	c.open = Sweep{T: t, Idx: idx, Seq: int32(seq), N: 1}
	c.nextSeq = -1
}

// sweeps returns the column's sweeps in program order, the open one last.
func (c *column) sweeps() []Sweep {
	if c.open.N == 0 {
		return c.closed
	}
	return append(c.closed, c.open)
}

// ---------------------------------------------------------------------------
// Tracked arrays

// Array is a tracked communication buffer. Every Load and Store is recorded
// with its virtual time, exactly the information the paper's tracer
// extracts by intercepting memory accesses.
type Array struct {
	p      *Proc
	id     int
	name   string
	data   []float64
	stores column
	loads  column
}

// NewArray allocates a tracked buffer of n elements. More than
// math.MaxInt32 elements fails the trace before anything is allocated.
func (p *Proc) NewArray(name string, n int) *Array {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("tracer: array %q has %d elements, more than %d", name, n, math.MaxInt32))
	}
	a := &Array{p: p, id: len(p.arrays), name: name, data: make([]float64, n),
		stores: column{nextSeq: -1}, loads: column{nextSeq: -1}}
	p.arrays = append(p.arrays, a)
	return a
}

// Len returns the element count.
func (a *Array) Len() int { return len(a.data) }

// Name returns the name given at creation.
func (a *Array) Name() string { return a.name }

// Load reads element i, recording the access and charging LoadCost
// instructions.
func (a *Array) Load(i int) float64 {
	v := a.data[i]
	a.p.clock += a.p.cfg.LoadCost
	a.p.access(&a.loads, i)
	return v
}

// Store writes element i, recording the access and charging StoreCost
// instructions.
func (a *Array) Store(i int, v float64) {
	a.data[i] = v
	a.p.clock += a.p.cfg.StoreCost
	a.p.access(&a.stores, i)
}

// Data exposes the raw storage without instrumentation. Use it only for
// initialization and verification; accesses through Data are invisible to
// the tracer, like accesses outside the traced region in the paper's tool.
func (a *Array) Data() []float64 { return a.data }

// ---------------------------------------------------------------------------
// Instrumented communication

// Send transfers the whole tracked array to dst (blocking at the MPI
// level). In the overlapped traces this message is the unit that gets
// chunked. Tracked sends must be received by Recv into a tracked array of
// the same length on the destination rank.
func (p *Proc) Send(dst, tag int, a *Array) {
	p.record(Event{Kind: EvSend, Arr: a.id, Peer: dst, Tag: tag, Elems: len(a.data)})
	p.mp.Send(dst, tag, a.data)
}

// Recv receives a tracked array previously sent with Send.
func (p *Proc) Recv(a *Array, src, tag int) {
	p.record(Event{Kind: EvRecv, Arr: a.id, Peer: src, Tag: tag, Elems: len(a.data)})
	p.mp.Recv(a.data, src, tag)
}

// Isend transfers the whole tracked array to dst without blocking, the way
// halo-exchange codes post their sends. In the overlapped traces it is
// chunked exactly like a blocking Send. The transport is buffered, so no
// completion wait is needed (double buffering is assumed throughout, as in
// the paper).
func (p *Proc) Isend(dst, tag int, a *Array) {
	p.record(Event{Kind: EvISend, Arr: a.id, Peer: dst, Tag: tag, Elems: len(a.data)})
	p.mp.Send(dst, tag, a.data)
}

// RecvReq is an outstanding tracked non-blocking receive.
type RecvReq struct {
	p      *Proc
	req    *mpi.Request
	arr    *Array
	handle int
	waited bool
}

// Irecv posts a tracked non-blocking receive. The returned request must be
// waited exactly once before the buffer is read or reposted.
func (p *Proc) Irecv(a *Array, src, tag int) *RecvReq {
	p.irecvSeq++
	h := p.irecvSeq
	p.record(Event{Kind: EvIRecvPost, Arr: a.id, Peer: src, Tag: tag, Elems: len(a.data), Handle: h})
	return &RecvReq{p: p, req: p.mp.Irecv(a.data, src, tag), arr: a, handle: h}
}

// Wait blocks until the receive completed. Waiting twice is a no-op.
func (r *RecvReq) Wait() {
	if r.waited {
		return
	}
	r.waited = true
	r.p.record(Event{Kind: EvRecvWait, Arr: r.arr.id, Handle: r.handle})
	r.req.Wait()
}

// SendRaw transfers an untracked buffer: traced as a plain (unchunkable)
// message. Collectives use this path internally.
func (p *Proc) SendRaw(dst, tag int, data []float64) {
	p.record(Event{Kind: EvSendRaw, Arr: -1, Peer: dst, Tag: tag, Elems: len(data)})
	p.mp.Send(dst, tag, data)
}

// RecvRaw receives an untracked buffer.
func (p *Proc) RecvRaw(buf []float64, src, tag int) {
	p.record(Event{Kind: EvRecvRaw, Arr: -1, Peer: src, Tag: tag, Elems: len(buf)})
	p.mp.Recv(buf, src, tag)
}

// rawAdapter exposes the instrumented raw path as mpi.PointToPoint so the
// mpi collectives decompose into traced transfers.
type rawAdapter struct{ p *Proc }

func (r rawAdapter) Rank() int                         { return r.p.Rank() }
func (r rawAdapter) Size() int                         { return r.p.Size() }
func (r rawAdapter) Send(dst, tag int, data []float64) { r.p.SendRaw(dst, tag, data) }
func (r rawAdapter) Recv(buf []float64, src, tag int)  { r.p.RecvRaw(buf, src, tag) }

var _ mpi.PointToPoint = rawAdapter{}

func (p *Proc) nextSeq() int {
	s := p.seq
	p.seq += 2
	return s
}

// Barrier blocks until all ranks reach it; the dissemination exchanges are
// traced as raw transfers.
func (p *Proc) Barrier() { mpi.Barrier(rawAdapter{p}, p.nextSeq()) }

// Bcast broadcasts buf from root through instrumented transfers.
func (p *Proc) Bcast(buf []float64, root int) { mpi.Bcast(rawAdapter{p}, buf, root, p.nextSeq()) }

// Reduce reduces into out on root through instrumented transfers.
func (p *Proc) Reduce(buf, out []float64, op mpi.Op, root int) {
	mpi.Reduce(rawAdapter{p}, buf, out, op, root, p.nextSeq())
}

// Allreduce reduces into out on all ranks through instrumented transfers.
func (p *Proc) Allreduce(buf, out []float64, op mpi.Op) {
	mpi.Allreduce(rawAdapter{p}, buf, out, op, p.nextSeq())
}

// Gather gathers into out on root through instrumented transfers.
func (p *Proc) Gather(buf, out []float64, root int) {
	mpi.Gather(rawAdapter{p}, buf, out, root, p.nextSeq())
}

// Allgather gathers into out on all ranks through instrumented transfers.
func (p *Proc) Allgather(buf, out []float64) { mpi.Allgather(rawAdapter{p}, buf, out, p.nextSeq()) }

// Alltoall exchanges personalized blocks through instrumented transfers.
func (p *Proc) Alltoall(buf, out []float64, m int) {
	mpi.Alltoall(rawAdapter{p}, buf, out, m, p.nextSeq())
}

// ReduceScatter reduces and scatters through instrumented transfers.
func (p *Proc) ReduceScatter(buf, out []float64, op mpi.Op) {
	mpi.ReduceScatter(rawAdapter{p}, buf, out, op, p.nextSeq())
}

// AllreduceTracked performs an Allreduce whose contribution and result
// buffers are tracked arrays. The transfer itself is raw (reduction
// messages cannot be chunked — the Alya case), but EvCollSend/EvCollRecv
// markers delimit the production interval of `in` and the consumption
// interval of `out` for the pattern analyzer.
func (p *Proc) AllreduceTracked(in, out *Array, op mpi.Op) {
	p.record(Event{Kind: EvCollSend, Arr: in.id, Peer: -1, Elems: len(in.data)})
	p.record(Event{Kind: EvCollRecv, Arr: out.id, Peer: -1, Elems: len(out.data)})
	mpi.Allreduce(rawAdapter{p}, in.data, out.data, op, p.nextSeq())
}

// ---------------------------------------------------------------------------
// Chunk geometry

// ChunkCount returns how many chunks an n-element message splits into under
// this config: never more than n, never more than cfg.Chunks, and
// one-element messages stay whole.
func (c Config) ChunkCount(n int) int {
	if n <= 1 {
		return 1
	}
	if n < c.Chunks {
		return n
	}
	return c.Chunks
}

// ChunkBounds returns the half-open element range [lo, hi) of chunk k out
// of kTotal for an n-element message. Chunks differ in size by at most one
// element.
func ChunkBounds(n, kTotal, k int) (lo, hi int) {
	lo = k * n / kTotal
	hi = (k + 1) * n / kTotal
	return lo, hi
}

// ChunkBytes returns the wire size of chunk k.
func (c Config) ChunkBytes(n, kTotal, k int) int64 {
	lo, hi := ChunkBounds(n, kTotal, k)
	return int64(hi-lo) * c.ElemBytes
}

// ChunkOf returns which chunk element idx belongs to.
func ChunkOf(n, kTotal, idx int) int {
	// Inverse of ChunkBounds: chunk k holds [k*n/kTotal, (k+1)*n/kTotal).
	k := (idx*kTotal + kTotal - 1) / n
	for k > 0 && idx < k*n/kTotal {
		k--
	}
	for (k+1)*n/kTotal <= idx {
		k++
	}
	return k
}
