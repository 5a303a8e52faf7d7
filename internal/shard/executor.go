package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/graph"
)

// Op is one operator registered with a sharded executor. Shard operators
// are the single-vertex May-Fail flavor of the paper's §3.2 taxonomy: the
// whole shared-state effect is one read-modify-write of the target word,
// which is what lets every cross-shard spawn travel as a three-word
// message unit and every mechanism apply it without multi-word footprints.
type Op struct {
	Name string
	// Addr returns the target word of the operator for owner-local vertex
	// lv (an index into the shard's state region).
	Addr func(lv int, arg uint64) int
	// Mutate computes the replacement value from the current one; ok=false
	// reports a May-Fail failure and leaves the word untouched.
	Mutate func(cur, arg uint64) (next uint64, ok bool)
	// OnCommit runs after a successful application, outside isolation, on
	// the applying worker (frontier pushes, change counters). Optional.
	OnCommit func(w *Worker, lv int, arg uint64)
}

// message is one coalesced cross-shard operator unit.
type message struct {
	op  uint16
	lv  int32
	arg uint64
}

// inbox receives flushed batches; any worker of the owning shard pops and
// applies them during Drain.
type inbox struct {
	mu      sync.Mutex
	batches [][]message
}

// msgPool is the executor-wide recycle list for coalescing buffers.
// Buffers circulate sender → inbox → applying worker → pool → sender, so
// once enough are in flight the message path stops allocating. Workers
// keep a small lock-free local cache in front of it (Worker.cache); the
// shared list only absorbs imbalance between senders and receivers.
type msgPool struct {
	mu   sync.Mutex
	free [][]message
}

func (p *msgPool) get() []message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	return nil
}

func (p *msgPool) put(b []message) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// workerBufCache bounds each worker's local free-list; overflow spills to
// the shared pool.
const workerBufCache = 8

// Executor runs operators over a sharded graph.
type Executor struct {
	G    *graph.Graph
	Part graph.Partitioner
	cfg  Config

	ops    []*Op
	shards []*Shard
	epochs int
	pool   msgPool

	// words is the per-vertex state width; the transport's barrier uses it
	// to size the replicated state regions it synchronizes.
	words int
	// tr carries cross-shard batches (transport_inproc.go by default).
	// rank/nranks and the shard→owner map come from it: shards owned by
	// this process run workers; the rest hold state replicas only.
	tr        Transport
	rank      int
	nranks    int
	shardRank []int
	// opened is set by the first Parallel call's opening collective.
	opened bool
}

// Shard owns one contiguous vertex block and its state words.
type Shard struct {
	ex *Executor
	ID int
	// Lo and Hi delimit the owned global-vertex range [Lo, Hi).
	Lo, Hi int
	mech   aam.Mechanism

	// state holds words*MaxLocal() uint64 cells, accessed atomically.
	state []uint64
	// locks are per-vertex spin bits (MechLock and the HTM fallback path);
	// vers are per-vertex seqlock-style version cells (MechOptimistic).
	locks []uint32
	vers  []uint64
	// fallbackMu serializes emulated-HTM activities that exhausted their
	// optimistic retries.
	fallbackMu sync.Mutex
	// Flat combining: one publication slot per worker plus the combiner
	// flag.
	fcSlots []fcSlot
	fcLock  atomic.Bool

	inbox   inbox
	workers []*Worker
}

// Worker is one goroutine slot of a shard's pool. Workers persist across
// Parallel calls; their coalescing buffers and counters carry over until
// the run ends.
type Worker struct {
	S  *Shard
	ID int // worker index within the shard

	out   [][]message // per-destination coalescing buffers
	cache [][]message // local buffer free-list (recycle fast path)
	wire  []byte      // frame scratch for wire sends (tcp transport only)
	stats Stats
}

// New builds an executor over g with words state cells per vertex.
func New(g *graph.Graph, words int, cfg Config) (*Executor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if words < 1 {
		words = 1
	}
	ex := &Executor{G: g, cfg: cfg, words: words}
	ex.tr = cfg.transport
	if ex.tr == nil {
		ex.tr = &inprocTransport{}
	}
	ex.rank, ex.nranks = ex.tr.endpoints()
	if ex.nranks < 1 || ex.rank < 0 || ex.rank >= ex.nranks {
		return nil, fmt.Errorf("shard: transport reports rank %d of %d", ex.rank, ex.nranks)
	}
	ex.shardRank = shardOwners(cfg.Shards, ex.nranks)
	switch cfg.Part {
	case PartEdge:
		ex.Part = graph.NewEdgePartition(g, cfg.Shards)
	default:
		ex.Part = graph.NewPartition(g.N, cfg.Shards)
	}
	L := ex.Part.MaxLocal()
	for id := 0; id < cfg.Shards; id++ {
		lo, hi := ex.Part.Range(id)
		s := &Shard{
			ex:    ex,
			ID:    id,
			Lo:    lo,
			Hi:    hi,
			mech:  cfg.Mechanism,
			state: make([]uint64, words*L),
		}
		// Non-owned shards are state replicas (refreshed by the transport's
		// barrier): no workers, no isolation scaffolding — every operator on
		// them applies at the owning process.
		if ex.shardRank[id] == ex.rank {
			switch s.mech {
			case aam.MechLock:
				s.locks = make([]uint32, L)
			case aam.MechOptimistic:
				s.vers = make([]uint64, L)
			case aam.MechFlatCombining:
				s.fcSlots = make([]fcSlot, cfg.Workers)
			}
			for wid := 0; wid < cfg.Workers; wid++ {
				s.workers = append(s.workers, &Worker{
					S:     s,
					ID:    wid,
					out:   make([][]message, cfg.Shards),
					cache: make([][]message, 0, workerBufCache),
				})
			}
		}
		ex.shards = append(ex.shards, s)
	}
	ex.tr.attach(ex)
	return ex, nil
}

// shardOwners block-distributes shard ids over nranks processes: rank r
// owns [r*shards/nranks, (r+1)*shards/nranks). Every process computes the
// same map from the shared config, so ownership needs no negotiation.
func shardOwners(shards, nranks int) []int {
	owners := make([]int, shards)
	for r := 0; r < nranks; r++ {
		lo, hi := r*shards/nranks, (r+1)*shards/nranks
		for id := lo; id < hi; id++ {
			owners[id] = r
		}
	}
	return owners
}

// Register adds an operator and returns its id.
func (ex *Executor) Register(op *Op) int {
	ex.ops = append(ex.ops, op)
	return len(ex.ops) - 1
}

// Config returns the normalized configuration.
func (ex *Executor) Config() Config { return ex.cfg }

// Shards returns the shard list (indexed by shard id).
func (ex *Executor) Shards() []*Shard { return ex.shards }

// Workers returns the total worker count across shards (all processes).
func (ex *Executor) Workers() int { return ex.cfg.Shards * ex.cfg.Workers }

// Parallel runs fn once per locally-owned worker and waits for all of
// them; returning from it is a full barrier (the coordinator observes
// every worker's writes, and vice versa on the next call). On a
// multi-process transport the barrier spans every rank and refreshes the
// non-owned state replicas, so the guarantee holds machine-wide.
//
// The first call opens the run with one empty collective before any
// worker starts. A rank reaches it only after New attached its executor,
// so once any rank is past it every rank is attached: no batch of this
// run can reach a rank that is not. It runs after every operator is
// registered, so the tcp check word's fingerprint covers the op registry.
// In-process it is a no-op.
func (ex *Executor) Parallel(fn func(w *Worker)) {
	if !ex.opened {
		ex.opened = true
		ex.tr.allreduce(redSum, nil)
	}
	var wg sync.WaitGroup
	for _, s := range ex.shards {
		for _, w := range s.workers {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				fn(w)
			}(w)
		}
	}
	wg.Wait()
	ex.tr.barrier()
}

// Drain is the epoch barrier: it flushes every coalescing buffer and
// applies inboxed batches until the whole machine is quiescent — no unit
// buffered, no batch undelivered, no frame in flight. Quiescence is the
// transport's call (a counter exchange across ranks on tcp). Batch
// application may itself spawn (OnCommit chains), so the loop re-flushes
// until a clean pass.
func (ex *Executor) Drain() {
	start := time.Now()
	defer func() { metDrainLatency.RecordSince(int64(time.Since(start))) }()
	ex.epochs++
	for {
		ex.Parallel(func(w *Worker) { w.FlushAll() })
		if ex.tr.quiesced() {
			return
		}
		ex.Parallel(func(w *Worker) { w.S.drainInbox(w) })
	}
}

// pendingBatches counts batches delivered to this process but not yet
// applied; called between Parallel phases only. The count is
// transport-owned: in-flight wire frames belong to the sender until the
// receiver enqueues them, which is why Drain asks quiesced() — not this —
// for the global verdict.
func (ex *Executor) pendingBatches() int { return ex.tr.pending() }

// Result assembles the per-shard counters; call after the run. On a
// multi-process transport the counters are merged across ranks with a
// sum-allreduce (each shard's counters are non-zero only at its owner),
// so every rank returns the same machine-wide view — which also makes
// Result a synchronization point all ranks must reach.
func (ex *Executor) Result() Result {
	r := Result{Epochs: ex.epochs, PerShard: make([]Stats, len(ex.shards))}
	for i, s := range ex.shards {
		for _, w := range s.workers {
			r.PerShard[i].add(w.stats)
		}
	}
	if ex.nranks > 1 {
		flat := flattenStats(r.PerShard)
		ex.tr.allreduce(redSum, flat)
		unflattenStats(flat, r.PerShard)
	}
	return r
}

// Index returns the worker's global index (shard-major), for per-worker
// algorithm scratch arrays.
func (w *Worker) Index() int { return w.S.ID*w.S.ex.cfg.Workers + w.ID }

// Range splits the shard's owned vertex block evenly over its workers and
// returns this worker's global sub-range [lo, hi).
func (w *Worker) Range() (lo, hi int) {
	count := w.S.Hi - w.S.Lo
	W := w.S.ex.cfg.Workers
	return w.S.Lo + w.ID*count/W, w.S.Lo + (w.ID+1)*count/W
}

// Spawn applies operator op to global vertex gv: directly when this shard
// owns gv, otherwise by coalescing a message unit toward the owner. It
// reports whether the operator committed; cross-shard spawns always report
// true (Fire-and-Forget: the outcome materializes at the owner during
// Drain and is visible only in the owner's counters).
//
// Ownership resolves once: the local case is a range check against this
// shard's own [Lo, Hi), and the remote local index is gv minus the owner
// range's start (Partitioner guarantees contiguous ranges) — no second
// Owner lookup, which matters under the binary-searched edge partition.
func (w *Worker) Spawn(op int, gv int, arg uint64) bool {
	s := w.S
	if gv >= s.Lo && gv < s.Hi {
		w.stats.LocalOps++
		ok := s.apply(w, op, gv-s.Lo, arg)
		if !ok {
			w.stats.LocalFailed++
		}
		return ok
	}
	ex := s.ex
	dst := ex.Part.Owner(gv)
	lo, _ := ex.Part.Range(dst)
	w.out[dst] = append(w.out[dst], message{op: uint16(op), lv: int32(gv - lo), arg: arg})
	switch ex.cfg.Flush {
	case FlushEager:
		w.flush(dst)
	case FlushBySize:
		if len(w.out[dst]) >= ex.cfg.BatchSize {
			w.flush(dst)
		}
	}
	return true
}

// Pending returns the number of units buffered toward dst.
func (w *Worker) Pending(dst int) int { return len(w.out[dst]) }

// flush hands dst's buffered units to the owner shard as one batch,
// through the transport: an inbox append when this process owns dst, a
// wire frame otherwise. The buffer itself is handed off (no copy); the
// replacement comes from the recycle pool — the applying worker returns
// every consumed batch there, and wire sends recycle theirs immediately
// after encoding — so the steady-state flush path performs zero
// allocations in-process. Recycled buffers keep the capacity of whatever
// traffic they last carried, which tracks the effective batch size under
// every flush policy (BatchSize for size-triggered flushes, the full
// epoch volume under FlushByEpoch).
func (w *Worker) flush(dst int) {
	batch := w.out[dst]
	if len(batch) == 0 {
		return
	}
	w.out[dst] = w.getBuf(len(batch))
	n := uint64(len(batch))
	w.S.ex.tr.deliver(w, dst, batch)
	w.stats.RemoteBatchesSent++
	w.stats.RemoteUnitsSent += n
	metRemoteBatchesSent.Inc()
	metRemoteUnitsSent.Add(n)
	metFlushBatchUnits.Record(n)
}

// getBuf returns an empty message buffer: the worker's local cache first,
// then the shared pool, then — counted as a BufferAllocs pool miss — a
// fresh allocation sized to the batch just flushed.
func (w *Worker) getBuf(hint int) []message {
	if n := len(w.cache); n > 0 {
		b := w.cache[n-1]
		w.cache[n-1] = nil
		w.cache = w.cache[:n-1]
		metBufferRecycles.Inc()
		return b[:0]
	}
	if b := w.S.ex.pool.get(); b != nil {
		metBufferRecycles.Inc()
		return b[:0]
	}
	w.stats.BufferAllocs++
	metBufferAllocs.Inc()
	return make([]message, 0, hint)
}

// putBuf recycles a consumed batch buffer.
func (w *Worker) putBuf(b []message) {
	if cap(b) == 0 {
		return
	}
	if len(w.cache) < workerBufCache {
		w.cache = append(w.cache, b[:0])
		return
	}
	w.S.ex.pool.put(b[:0])
}

// FlushAll flushes every destination's buffer.
func (w *Worker) FlushAll() {
	for dst := range w.out {
		w.flush(dst)
	}
}

// drainInbox pops and applies batches until the shard's inbox is empty.
// Batches race between the shard's workers; each unit is applied under the
// shard's isolation mechanism, so concurrent application is safe.
func (s *Shard) drainInbox(w *Worker) {
	for {
		s.inbox.mu.Lock()
		n := len(s.inbox.batches)
		if n == 0 {
			s.inbox.mu.Unlock()
			return
		}
		batch := s.inbox.batches[n-1]
		s.inbox.batches[n-1] = nil
		s.inbox.batches = s.inbox.batches[:n-1]
		s.inbox.mu.Unlock()
		w.stats.RemoteBatchesRecv++
		w.stats.RemoteUnitsRecv += uint64(len(batch))
		metRemoteBatchesRecv.Inc()
		metRemoteUnitsRecv.Add(uint64(len(batch)))
		for _, m := range batch {
			if !s.apply(w, int(m.op), int(m.lv), m.arg) {
				w.stats.RemoteFailed++
			}
		}
		w.putBuf(batch)
	}
}

// Load reads a state word atomically (valid concurrently with any
// mechanism; single-word reads may observe benign staleness, as in the
// paper's §4.2 visited check).
func (s *Shard) Load(addr int) uint64 { return atomic.LoadUint64(&s.state[addr]) }

// Store writes a state word atomically. Reserved for single-owner phases
// (initialization, between Parallel barriers); inside a parallel phase all
// mutation goes through operators.
func (s *Shard) Store(addr int, v uint64) { atomic.StoreUint64(&s.state[addr], v) }

func (s *Shard) cas(addr int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&s.state[addr], old, new)
}

// Load reads a state word of the worker's own shard.
func (w *Worker) Load(addr int) uint64 { return w.S.Load(addr) }
