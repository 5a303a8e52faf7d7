package gblas

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

// WeightFunc maps the i-th edge of vertex v (leading to w) to a semiring
// element a(v,w). A nil WeightFunc uses the semiring's One.
type WeightFunc func(g *graph.Graph, v, i int, w int32) uint64

// EdgeWeights is a WeightFunc that reads the graph's integral edge weights
// as min-plus distances.
func EdgeWeights(g *graph.Graph, v, i int, w int32) uint64 {
	return uint64(g.EdgeWeights(v)[i])
}

// Config tunes a System.
type Config struct {
	Semiring Semiring
	// Engine is the AAM engine configuration (mechanism, M, C, HTM
	// variant). Part and LockBase are filled in by New.
	Engine aam.Config
	// Weight supplies a(v,w); nil means Semiring.One for every edge.
	Weight WeightFunc
	// RecordStep assigns, on an entry's first touch of a run, the current
	// step index into the assignment vector (BFS levels).
	RecordStep bool
}

// System is a prepared GraphBLAS execution over one graph: a persistent
// accumulator vector y, an assignment vector, a touched bitmap, and
// per-thread frontier segments, all in node memory, with the accumulation
// operator registered on an AAM runtime. Construct with New, splice
// Handlers into the machine config, size node memory with MemWords, then
// drive steps from an SPMD body via NewEngine/Step (or use the prepared
// algorithms in this package).
type System struct {
	G    *graph.Graph
	Part graph.Partition
	Cfg  Config

	rt        *aam.Runtime
	accPushOp int // FF&MF: accumulate, push on first touch
	accOp     int // FF&AS: accumulate only (PageRank)

	L      int
	segLen int
	T      int

	yBase     int
	auxBase   int // touched-this-run flags
	assignees int // assignment vector (levels)
	qBase     [2]int
	tailBase  [2]int
	parityPos int
	stepPos   int
	lockBase  int
}

const tailStride = 8

// New prepares a System for g distributed over nodes.
func New(g *graph.Graph, nodes int, cfg Config) *System {
	part := graph.NewPartition(g.N, nodes)
	s := &System{G: g, Part: part, Cfg: cfg, L: part.MaxLocal()}
	s.Cfg.Engine.Part = part
	sr := cfg.Semiring

	s.rt = aam.NewRuntime()
	s.accPushOp = s.rt.Register(&aam.Op{
		Name: "gblas-acc-push",
		Body: func(tx exec.Tx, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			old := tx.Read(s.yBase + w)
			nv := sr.Add(old, arg)
			if nv == old {
				return 0, true // no improvement: May-Fail failure
			}
			tx.Write(s.yBase+w, nv)
			if tx.Read(s.auxBase+w) == 0 {
				tx.Write(s.auxBase+w, 1)
				if s.Cfg.RecordStep {
					tx.Write(s.assignees+w, tx.Read(s.stepPos))
				}
				s.txPush(tx, e.Ctx(), w)
			}
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			for {
				old := ctx.Load(s.yBase + w)
				nv := sr.Add(old, arg)
				if nv == old {
					return 0, true
				}
				if ctx.CAS(s.yBase+w, old, nv) {
					break
				}
			}
			if ctx.CAS(s.auxBase+w, 0, 1) {
				if s.Cfg.RecordStep {
					ctx.Store(s.assignees+w, ctx.Load(s.stepPos))
				}
				next := int(ctx.Load(s.parityPos)) ^ 1
				s.push(ctx, next, uint64(w))
			}
			return 0, false
		},
	})
	s.accOp = s.rt.Register(&aam.Op{
		Name:          "gblas-acc",
		AlwaysSucceed: true,
		Body: func(tx exec.Tx, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			tx.Write(s.yBase+w, sr.Add(tx.Read(s.yBase+w), arg))
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			for {
				old := ctx.Load(s.yBase + w)
				if ctx.CAS(s.yBase+w, old, sr.Add(old, arg)) {
					return 0, false
				}
			}
		},
	})
	return s
}

// txPush appends local vertex lv to this thread's next-frontier segment
// inside the activity (rolls back with it).
func (s *System) txPush(tx exec.Tx, ctx exec.Context, lv int) {
	next := int(tx.Read(s.parityPos)) ^ 1
	lid := ctx.LocalID()
	ta := s.tailBase[next] + lid*tailStride
	idx := int(tx.Read(ta))
	tx.Write(ta, uint64(idx)+1)
	tx.Write(s.qBase[next]+lid*s.segLen+idx, uint64(lv))
}

// push is the committed-state variant used by the atomic body.
func (s *System) push(ctx exec.Context, q int, lv uint64) {
	lid := ctx.LocalID()
	idx := ctx.FetchAdd(s.tailBase[q]+lid*tailStride, 1)
	ctx.Store(s.qBase[q]+lid*s.segLen+int(idx), lv)
}

// layout computes the node-memory map for T threads.
func (s *System) layout(T int) {
	s.T = T
	s.segLen = s.L + s.L/4 + 16
	s.yBase = 0
	s.auxBase = s.L
	s.assignees = 2 * s.L
	s.qBase[0] = 3 * s.L
	s.qBase[1] = s.qBase[0] + T*s.segLen
	s.tailBase[0] = s.qBase[1] + T*s.segLen
	s.tailBase[1] = s.tailBase[0] + T*tailStride
	s.parityPos = s.tailBase[1] + T*tailStride
	s.stepPos = s.parityPos + 8
	s.lockBase = s.stepPos + 8
	s.Cfg.Engine.LockBase = s.lockBase
}

// MemWordsFor returns the node-memory size for T threads per node.
func (s *System) MemWordsFor(T int) int {
	seg := s.L + s.L/4 + 16
	return 3*s.L + 2*T*seg + 2*T*tailStride + 16 + s.L
}

// MemWords sizes node memory for the maximum supported thread count.
func (s *System) MemWords() int { return s.MemWordsFor(64) }

// Handlers splices the system's AAM handlers into existing.
func (s *System) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	return s.rt.Handlers(existing)
}

// NewEngine creates this thread's AAM engine; call once per thread inside
// the SPMD body before Init/Step.
func (s *System) NewEngine(ctx exec.Context) *aam.Engine {
	if ctx.GlobalID() == 0 {
		s.layout(ctx.ThreadsPerNode())
	}
	ctx.Barrier() // publish layout (host-side, free)
	return aam.NewEngine(s.rt, ctx, s.Cfg.Engine)
}

// Init seeds the vectors: y := Zero everywhere except the given entries;
// the seed vertices form the first frontier. Collective; idempotent layout.
func (s *System) Init(ctx exec.Context, seeds []int, vals []uint64) {
	sr := s.Cfg.Semiring
	me := ctx.NodeID()
	lo, hi := s.threadSlice(ctx)
	for lv := lo; lv < hi; lv++ {
		ctx.Store(s.yBase+lv, sr.Zero)
		ctx.Store(s.auxBase+lv, 0)
		ctx.Store(s.assignees+lv, 0)
	}
	if ctx.LocalID() == 0 {
		for i := 0; i < s.T; i++ {
			ctx.Store(s.tailBase[0]+i*tailStride, 0)
			ctx.Store(s.tailBase[1]+i*tailStride, 0)
		}
		ctx.Store(s.parityPos, 0)
		// The assignment vector stores level+1 (0 = untouched); vertices
		// discovered by the first Step are at level 1, raw 2.
		ctx.Store(s.stepPos, 2)
	}
	ctx.Barrier()
	if ctx.LocalID() == 0 {
		for i, v := range seeds {
			if s.Part.Owner(v) != me {
				continue
			}
			lv := s.Part.Local(v)
			ctx.Store(s.yBase+lv, vals[i])
			if s.Cfg.RecordStep {
				ctx.Store(s.assignees+lv, 1) // step 0, stored +1
			}
			s.push(ctx, 0, uint64(lv))
		}
	}
	ctx.Barrier()
}

// threadSlice splits this node's local vertex block evenly over its
// threads.
func (s *System) threadSlice(ctx exec.Context) (lo, hi int) {
	glo, ghi := s.Part.Range(ctx.NodeID())
	n := ghi - glo
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	return lid * n / T, (lid + 1) * n / T
}

// Step performs one masked push step y ⊕= x ⊗ A over the current frontier
// and returns the global size of the next frontier. Collective. x[v] is
// read from y at expansion time (monotone semirings tolerate — and
// benefit from — seeing same-step improvements).
func (s *System) Step(ctx exec.Context, eng *aam.Engine) uint64 {
	sr := s.Cfg.Semiring
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	cur := int(ctx.Load(s.parityPos))

	tails := make([]int, T)
	count := 0
	for j := 0; j < T; j++ {
		tails[j] = int(ctx.Load(s.tailBase[cur] + j*tailStride))
		count += tails[j]
	}
	lo, hi := lid*count/T, (lid+1)*count/T
	pos := 0
	for j := 0; j < T && pos < hi; j++ {
		segLo, segHi := pos, pos+tails[j]
		pos = segHi
		if segHi <= lo || segLo >= hi {
			continue
		}
		from, to := max(lo, segLo)-segLo, min(hi, segHi)-segLo
		for i := from; i < to; i++ {
			lv := int(ctx.Load(s.qBase[cur] + j*s.segLen + i))
			ctx.Store(s.auxBase+lv, 0) // re-arm first-touch for later steps
			v := s.Part.Global(ctx.NodeID(), lv)
			s.expand(ctx, eng, v, ctx.Load(s.yBase+lv), sr)
		}
	}
	eng.Drain()

	nextLocal := uint64(0)
	if lid == 0 {
		for j := 0; j < T; j++ {
			nextLocal += ctx.Load(s.tailBase[cur^1] + j*tailStride)
		}
	}
	total := ctx.AllReduceSum(nextLocal)

	// Recycle and flip.
	ctx.Store(s.tailBase[cur]+lid*tailStride, 0)
	if lid == 0 {
		ctx.Store(s.parityPos, uint64(cur^1))
		ctx.FetchAdd(s.stepPos, 1)
	}
	ctx.Barrier()
	return total
}

// expand spawns the accumulate-push operator for every neighbor of v.
func (s *System) expand(ctx exec.Context, eng *aam.Engine, v int, xv uint64, sr Semiring) {
	neigh := s.G.Neighbors(v)
	ctx.Compute(vtime.Time(len(neigh)/2+1) * ctx.Profile().LoadCost)
	for i, wv := range neigh {
		aw := sr.One
		if s.Cfg.Weight != nil {
			aw = s.Cfg.Weight(s.G, v, i, wv)
		}
		eng.Spawn(s.accPushOp, int(wv), sr.Mul(xv, aw))
	}
}

// AccumulateAll runs one unmasked, frontier-free product over every local
// vertex (the PageRank iteration shape): for each local v with x(v) ≠ skip,
// spawn y[w] ⊕= xf(v) ⊗ a(v,w). Collective (callers Drain via the engine).
func (s *System) AccumulateAll(ctx exec.Context, eng *aam.Engine, xf func(lv, v int) (uint64, bool)) {
	sr := s.Cfg.Semiring
	lo, hi := s.threadSlice(ctx)
	me := ctx.NodeID()
	for lv := lo; lv < hi; lv++ {
		v := s.Part.Global(me, lv)
		xv, ok := xf(lv, v)
		if !ok {
			continue
		}
		neigh := s.G.Neighbors(v)
		ctx.Compute(vtime.Time(len(neigh)/2+1) * ctx.Profile().LoadCost)
		for i, wv := range neigh {
			aw := sr.One
			if s.Cfg.Weight != nil {
				aw = s.Cfg.Weight(s.G, v, i, wv)
			}
			eng.Spawn(s.accOp, int(wv), sr.Mul(xv, aw))
		}
	}
	eng.Drain()
}

// Values gathers the accumulator vector after the run.
func (s *System) Values(m exec.Machine) []uint64 {
	out := make([]uint64, s.G.N)
	for v := 0; v < s.G.N; v++ {
		out[v] = m.Mem(s.Part.Owner(v))[s.yBase+s.Part.Local(v)]
	}
	return out
}

// Assignments gathers the assignment (level) vector: -1 where never
// touched.
func (s *System) Assignments(m exec.Machine) []int64 {
	out := make([]int64, s.G.N)
	for v := 0; v < s.G.N; v++ {
		raw := m.Mem(s.Part.Owner(v))[s.assignees+s.Part.Local(v)]
		out[v] = int64(raw) - 1
	}
	return out
}

// YBase exposes the accumulator region base for drivers that rewrite x/y
// between iterations (PageRank).
func (s *System) YBase() int { return s.yBase }

// AssignBase exposes the assignment region base.
func (s *System) AssignBase() int { return s.assignees }

// ThreadSlice exposes the per-thread local vertex range.
func (s *System) ThreadSlice(ctx exec.Context) (lo, hi int) { return s.threadSlice(ctx) }
