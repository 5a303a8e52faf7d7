package algo

import (
	"fmt"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

// BFSMode selects the implementation under test.
type BFSMode int

const (
	// BFSAAM is the paper's contribution: marking executed through the
	// AAM engine (coarsened transactions, or atomics/locks for the
	// mechanism comparison).
	BFSAAM BFSMode = iota
	// BFSGraph500 is the baseline: the highly optimized atomics BFS of
	// the Graph500 reference code, including its check-before-CAS
	// optimization (§6.1). Single node only.
	BFSGraph500
)

// BFSConfig configures one BFS execution.
type BFSConfig struct {
	Mode BFSMode
	// AAM engine settings (BFSAAM only). Part is filled in by NewBFS.
	Engine aam.Config
	// VisitedCheck enables the "verify the vertex has not been visited
	// before spawning" optimization (§4.2); the ablation turns it off.
	VisitedCheck bool
}

// BFS is a prepared breadth-first search: construct with NewBFS, splice
// Handlers into the machine config, size memory with MemWords, run Body
// SPMD, then read results with Parents.
//
// The algorithm is level-synchronized. Each node owns a contiguous vertex
// block (1-D partition); frontier queues are segmented per thread — as in
// the Graph500 reference code, each thread appends discoveries to its own
// segment, so queue maintenance does not contend — and marking a vertex is
// the paper's FF&MF operator (Listing 4): concurrent activities updating
// one vertex conflict, exactly one wins, nothing flows back to the spawner.
type BFS struct {
	G    *graph.Graph
	Part graph.Partition
	Cfg  BFSConfig

	rt         *aam.Runtime
	markOp     int
	markFastOp int

	L      int // per-node vertex block size
	segLen int // frontier segment words per thread (L plus duplicate slack)
	T      int // threads per node

	// Node-memory layout (per node).
	parentBase int    // L words: parent+1, 0 = unvisited
	qBase      [2]int // T segments of L words each
	tailBase   [2]int // T per-thread tails
	parityAddr int
	lockBase   int // MechLock region

	// LevelTimes records the per-level durations observed by thread 0
	// (Figure 1). Written only by global thread 0.
	LevelTimes []vtime.Time
}

// NewBFS prepares a BFS over g distributed across nodes with T threads per
// node.
func NewBFS(g *graph.Graph, nodes int, cfg BFSConfig) *BFS {
	part := graph.NewPartition(g.N, nodes)
	L := part.MaxLocal()
	b := &BFS{G: g, Part: part, Cfg: cfg, L: L}
	b.Cfg.Engine.Part = part

	b.rt = aam.NewRuntime()
	// markFastOp is the checked-spawn operator: the spawner verified the
	// vertex was unvisited with a plain load (§4.2's optimization, as the
	// Graph500 baseline does before its CAS), so the transaction writes
	// the parent and appends to this thread's frontier segment without a
	// read — its write set is the whole footprint. A stale check (the
	// vertex was marked while the activity was buffered) overwrites the
	// parent with another same-level parent, which keeps the BFS tree
	// valid; the duplicate queue entry is benign (re-expansion finds all
	// neighbors visited) and the segments carry slack for it.
	b.markFastOp = b.rt.Register(&aam.Op{
		Name: "bfs-mark-fast",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			// Re-test inside the transaction: a duplicate mark that lost
			// the race reads the fresh parent and fails benignly instead
			// of forcing a write-write conflict (important on meshes,
			// where the wavefront discovers most vertices twice).
			if tx.Read(b.parentBase+v) != 0 {
				return 0, true
			}
			tx.Write(b.parentBase+v, arg+1)
			b.txPush(tx, e.Ctx(), v)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			if !ctx.CAS(b.parentBase+v, 0, arg+1) {
				return 0, true
			}
			next := int(ctx.Load(b.parityAddr)) ^ 1
			b.push(ctx, next, uint64(v))
			return 0, false
		},
	})
	// markOp is the unchecked variant (VisitedCheck off): the operator
	// must test inside the activity, which puts the parent word in the
	// read set as well.
	b.markOp = b.rt.Register(&aam.Op{
		Name: "bfs-mark",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := b.parentBase + v
			if tx.Read(addr) != 0 {
				return 0, true // already visited: May-Fail failure
			}
			tx.Write(addr, arg+1)
			b.txPush(tx, e.Ctx(), v)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := b.parentBase + v
			if ctx.Load(addr) != 0 {
				return 0, true
			}
			if !ctx.CAS(addr, 0, arg+1) {
				return 0, true
			}
			next := int(ctx.Load(b.parityAddr)) ^ 1
			b.push(ctx, next, uint64(v))
			return 0, false
		},
	})
	return b
}

// txPush appends local vertex lv to the executing thread's segment of the
// next-level frontier, transactionally: the tail counter and slot join the
// activity's write set and roll back with it. Segments are per thread, so
// the only cross-thread word in the footprint is the (read-only within a
// level) parity cell.
func (b *BFS) txPush(tx exec.Tx, ctx exec.Context, lv int) {
	next := int(tx.Read(b.parityAddr)) ^ 1
	lid := ctx.LocalID()
	ta := b.tailBase[next] + lid*tailStride
	idx := int(tx.Read(ta))
	tx.Write(ta, uint64(idx)+1)
	tx.Write(b.qBase[next]+lid*b.segLen+idx, uint64(lv))
}

// tailStride pads per-thread tail counters to one per cache line so they
// do not false-share.
const tailStride = 8

// layout computes the memory map once the thread count is known. Frontier
// segments carry 1/8 slack for duplicate pushes from stale visited checks.
func (b *BFS) layout(T int) {
	b.T = T
	b.segLen = b.L + b.L/8 + 16
	b.parentBase = 0
	b.qBase[0] = b.L
	b.qBase[1] = b.L + T*b.segLen
	b.tailBase[0] = b.L + 2*T*b.segLen
	b.tailBase[1] = b.tailBase[0] + T*tailStride
	b.parityAddr = b.tailBase[1] + T*tailStride
	b.lockBase = b.parityAddr + 8
	b.Cfg.Engine.LockBase = b.lockBase
}

// push appends a local vertex to this thread's segment of queue parity q.
func (b *BFS) push(ctx exec.Context, q int, lv uint64) {
	lid := ctx.LocalID()
	idx := ctx.FetchAdd(b.tailBase[q]+lid*tailStride, 1)
	ctx.Store(b.qBase[q]+lid*b.segLen+int(idx), lv)
}

// Handlers splices the BFS runtime handlers into existing.
func (b *BFS) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	return b.rt.Handlers(existing)
}

// MemWordsFor returns the node memory size for T threads per node.
func (b *BFS) MemWordsFor(T int) int {
	seg := b.L + b.L/8 + 16
	return b.L + 2*T*seg + 2*T*tailStride + 8 + 8 + b.L
}

// MemWords returns the node memory size assuming the profile's maximum
// thread count (safe upper bound for any T at the same graph size).
func (b *BFS) MemWords() int { return b.MemWordsFor(64) }

// Body returns the SPMD run body for the given source vertex.
func (b *BFS) Body(source int) func(ctx exec.Context) {
	return func(ctx exec.Context) { b.run(ctx, source) }
}

func (b *BFS) run(ctx exec.Context, source int) {
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	if lid == 0 && ctx.NodeID() == 0 {
		b.layout(T)
	}
	ctx.Barrier() // publish layout (host-side, free)
	var eng *aam.Engine
	if b.Cfg.Mode == BFSAAM {
		eng = aam.NewEngine(b.rt, ctx, b.Cfg.Engine)
	} else if ctx.Nodes() > 1 {
		panic("algo: BFSGraph500 baseline is single-node only")
	}

	// Seed the frontier into thread 0's segment.
	if ctx.NodeID() == b.Part.Owner(source) && lid == 0 {
		ls := b.Part.Local(source)
		ctx.Store(b.parentBase+ls, uint64(source)+1)
		ctx.Store(b.qBase[0], uint64(ls))
		ctx.Store(b.tailBase[0], 1)
	}
	if lid == 0 {
		ctx.Store(b.parityAddr, 0)
	}
	ctx.Barrier()

	// tails and offs are host-side scratch reused across levels.
	tails := make([]int, T)
	level := 0
	levelStart := ctx.Now()
	for {
		cur := level & 1

		// Gather per-segment counts and process a balanced global slice.
		count := 0
		for j := 0; j < T; j++ {
			tails[j] = int(ctx.Load(b.tailBase[cur] + j*tailStride))
			count += tails[j]
		}
		lo := lid * count / T
		hi := (lid + 1) * count / T
		// Walk segments covering [lo, hi).
		pos := 0
		for j := 0; j < T && pos < hi; j++ {
			segLo, segHi := pos, pos+tails[j]
			pos = segHi
			if segHi <= lo || segLo >= hi {
				continue
			}
			from := max(lo, segLo) - segLo
			to := min(hi, segHi) - segLo
			for i := from; i < to; i++ {
				lv := int(ctx.Load(b.qBase[cur] + j*b.segLen + i))
				u := b.Part.Global(ctx.NodeID(), lv)
				b.expand(ctx, eng, u)
			}
		}

		// Quiesce: all marks (local and remote) applied.
		if eng != nil {
			eng.Drain()
		} else {
			ctx.Barrier()
		}

		nextLocal := uint64(0)
		if lid == 0 {
			for j := 0; j < T; j++ {
				nextLocal += ctx.Load(b.tailBase[cur^1] + j*tailStride)
			}
		}
		total := ctx.AllReduceSum(nextLocal)

		if ctx.GlobalID() == 0 {
			now := ctx.Now()
			b.LevelTimes = append(b.LevelTimes, now-levelStart)
			levelStart = now
		}

		// Recycle the old frontier and flip parity for OnDone.
		ctx.Store(b.tailBase[cur]+lid*tailStride, 0)
		if lid == 0 {
			ctx.Store(b.parityAddr, uint64(cur^1))
		}
		ctx.Barrier()
		if total == 0 {
			return
		}
		level++
	}
}

// expand processes the edges of global frontier vertex u.
func (b *BFS) expand(ctx exec.Context, eng *aam.Engine, u int) {
	me := ctx.NodeID()
	neigh := b.G.Neighbors(u)
	// Scanning the adjacency costs one load per edge word; charge it in
	// bulk (immutable CSR data is not in the simulated word memory).
	ctx.Compute(vtime.Time(len(neigh)/2+1) * ctx.Profile().LoadCost)
	op := b.markOp
	if b.Cfg.VisitedCheck {
		op = b.markFastOp
	}
	for _, wv := range neigh {
		w := int(wv)
		owner := b.Part.Owner(w)
		local := owner == me
		if b.Cfg.VisitedCheck && local &&
			ctx.Load(b.parentBase+b.Part.Local(w)) != 0 {
			continue
		}
		if b.Cfg.Mode == BFSGraph500 {
			lw := b.Part.Local(w)
			if ctx.CAS(b.parentBase+lw, 0, uint64(u)+1) {
				next := int(ctx.Load(b.parityAddr)) ^ 1
				b.push(ctx, next, uint64(lw))
			}
			continue
		}
		if local {
			eng.Spawn(op, w, uint64(u))
		} else {
			// The spawner cannot check remote state; the owner-side
			// operator re-tests inside the activity.
			eng.Spawn(b.markOp, w, uint64(u))
		}
	}
}

// Parents gathers the BFS tree after the run: parent[v] is the global
// parent id, or -1 for unvisited vertices; parent[source] == source.
func (b *BFS) Parents(m exec.Machine) []int64 {
	out := make([]int64, b.G.N)
	for v := 0; v < b.G.N; v++ {
		node := b.Part.Owner(v)
		raw := m.Mem(node)[b.parentBase+b.Part.Local(v)]
		out[v] = int64(raw) - 1
	}
	return out
}

// ValidateBFSTree checks a parent array against the reference distances:
// the visited set must equal the reachable set and every tree edge must
// descend exactly one level.
func ValidateBFSTree(g *graph.Graph, src int, parents []int64, refDist []int32) error {
	if parents[src] != int64(src) {
		return fmt.Errorf("bfs: source parent = %d, want self", parents[src])
	}
	for v := 0; v < g.N; v++ {
		switch {
		case refDist[v] < 0:
			if parents[v] >= 0 {
				return fmt.Errorf("bfs: unreachable vertex %d has parent %d", v, parents[v])
			}
		case v == src:
		default:
			p := parents[v]
			if p < 0 {
				return fmt.Errorf("bfs: reachable vertex %d unvisited", v)
			}
			if refDist[v] != refDist[p]+1 {
				return fmt.Errorf("bfs: vertex %d at depth %d has parent %d at depth %d",
					v, refDist[v], p, refDist[p])
			}
			// The tree edge must exist.
			found := false
			for _, w := range g.Neighbors(int(p)) {
				if int(w) == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("bfs: tree edge %d->%d not in graph", p, v)
			}
		}
	}
	return nil
}

// BFSDepths converts a parent vector to the per-vertex depth vector
// (-1 = unreachable), settling iteratively so it is independent of the
// order vertices were discovered in. Two BFS runs agree level-for-level
// exactly when their depth vectors match, which is how order-insensitive
// implementations (sharded, coalesced) are compared against references.
func BFSDepths(g *graph.Graph, src int, parents []int64) []int32 {
	d := make([]int32, g.N)
	for v := range d {
		d[v] = -1
	}
	d[src] = 0
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.N; v++ {
			if d[v] >= 0 || parents[v] < 0 {
				continue
			}
			if p := parents[v]; d[p] >= 0 {
				d[v] = d[p] + 1
				changed = true
			}
		}
	}
	return d
}
