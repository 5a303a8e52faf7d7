package gblas

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
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
	// variant). Part and LockBase are filled in by NewEngine.
	Engine aam.Config
	// Weight supplies a(v,w); nil means Semiring.One for every edge.
	Weight WeightFunc
	// RecordStep assigns, on an entry's first touch of a run, the current
	// step index into the assignment vector (BFS levels).
	RecordStep bool
}

// System is a prepared GraphBLAS execution over one graph: a persistent
// accumulator vector y, an assignment vector, push tags, and per-thread
// frontier segments, all in node memory, with the accumulation
// operator registered on an AAM runtime. Construct with New, build a
// machine for it with aam.NewMachine, then drive steps from an SPMD body
// via NewEngine/Step (or use the prepared algorithms in this package).
type System struct {
	aam.Program
	G   *graph.Graph
	Cfg Config

	accPushOp int // FF&MF: accumulate, push on first touch
	accOp     int // FF&AS: accumulate only (PageRank)
	sysLayout
}

// sysLayout is the node-memory map, which depends on the thread count.
type sysLayout struct {
	yBase     int
	tagBase   int // per entry, the stepPos value of the step that last pushed it
	assignees int // assignment vector (levels)
	fr        aam.Frontier
	stepPos   int // fr.End()
	lockBase  int // the engine's lock region, aam.LockWords(L, T) words
}

// New prepares a System for g distributed over nodes.
func New(g *graph.Graph, nodes int, cfg Config) *System {
	s := &System{G: g, Cfg: cfg}
	s.Program = aam.NewProgram(g.N, nodes, func(T int) int { return s.layout(T).lockBase })
	sr := cfg.Semiring

	s.accPushOp = s.Register(&aam.Op{
		Name: "gblas-acc-push",
		Body: func(tx exec.Tx, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			old := tx.Read(s.yBase + w)
			nv := sr.Add(old, arg)
			if nv == old {
				return 0, true // no improvement: May-Fail failure
			}
			tx.Write(s.yBase+w, nv)
			if step := tx.Read(s.stepPos); tx.Read(s.tagBase+w) != step {
				tx.Write(s.tagBase+w, step)
				if s.Cfg.RecordStep {
					tx.Write(s.assignees+w, step)
				}
				s.fr.TxPush(tx, e.Ctx(), w)
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
			// Every write of a tag within a step stores that step's
			// value, so one CAS decides which operator pushes w.
			step := ctx.Load(s.stepPos)
			if tag := ctx.Load(s.tagBase + w); tag != step && ctx.CAS(s.tagBase+w, tag, step) {
				if s.Cfg.RecordStep {
					ctx.Store(s.assignees+w, step)
				}
				s.fr.PushNext(ctx, w)
			}
			return 0, false
		},
	})
	s.accOp = s.Register(&aam.Op{
		Name: "gblas-acc",
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

// layout computes the node-memory map for T threads: one frontier segment
// per thread.
func (s *System) layout(T int) sysLayout {
	fr := aam.Frontier{Base: 3 * s.L, Segs: T, SegLen: s.L + s.L/4 + 16, Stride: 8}
	step := fr.End()
	return sysLayout{yBase: 0, tagBase: s.L, assignees: 2 * s.L, fr: fr, stepPos: step, lockBase: step + 8}
}

// NewEngine creates this thread's AAM engine; call once per thread inside
// the SPMD body before Init/Step.
func (s *System) NewEngine(ctx exec.Context) *aam.Engine {
	if ctx.GlobalID() == 0 {
		s.sysLayout = s.layout(ctx.ThreadsPerNode())
	}
	ctx.Barrier() // publish layout (host-side, free)
	return s.Program.NewEngine(ctx, s.Cfg.Engine)
}

// Init seeds the vectors: y := Zero everywhere except the given entries;
// the seed vertices form the first frontier. Collective; idempotent layout.
func (s *System) Init(ctx exec.Context, seeds []int, vals []uint64) {
	sr := s.Cfg.Semiring
	me := ctx.NodeID()
	lo, hi := s.threadSlice(ctx)
	for lv := lo; lv < hi; lv++ {
		ctx.Store(s.yBase+lv, sr.Zero)
		ctx.Store(s.tagBase+lv, 0)
		ctx.Store(s.assignees+lv, 0)
	}
	if ctx.LocalID() == 0 {
		s.fr.Reset(ctx)
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
			s.fr.Push(ctx, 0, lv)
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
//
// An operator that improves y[w] pushes w unless this step already has:
// w's tag holds the step that last pushed it. Only operators write tags,
// so the push decision is isolated under every mechanism: a plain store
// by the walk would race an optimistic operator, which reads the tag
// before the walk and writes y[w] after it. An entry of this frontier
// that is already in the next one is skipped: next step expands it with
// a value at least as good.
func (s *System) Step(ctx exec.Context, eng *aam.Engine) uint64 {
	sr := s.Cfg.Semiring
	cur := int(ctx.Load(s.fr.Parity()))
	tails := make([]int, s.fr.Segs)
	step := ctx.Load(s.stepPos)
	s.fr.Walk(ctx, cur, tails, func(lv int) {
		if ctx.Load(s.tagBase+lv) == step {
			return
		}
		v := s.Part.Global(ctx.NodeID(), lv)
		s.expand(ctx, eng, v, ctx.Load(s.yBase+lv), sr)
	})
	eng.Drain()

	total := ctx.AllReduceSum(s.fr.Len(ctx, cur^1))

	// Recycle and flip.
	s.fr.Flip(ctx, cur)
	if ctx.LocalID() == 0 {
		ctx.FetchAdd(s.stepPos, 1)
	}
	ctx.Barrier()
	return total
}

// expand spawns the accumulate-push operator for every neighbor of v.
func (s *System) expand(ctx exec.Context, eng *aam.Engine, v int, xv uint64, sr Semiring) {
	neigh := s.G.Neighbors(v)
	ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
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
		ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
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
	for v := range out {
		out[v] = s.Word(m, s.yBase, v)
	}
	return out
}

// Assignments gathers the assignment (level) vector: -1 where never
// touched.
func (s *System) Assignments(m exec.Machine) []int64 {
	out := make([]int64, s.G.N)
	for v := range out {
		out[v] = int64(s.Word(m, s.assignees, v)) - 1
	}
	return out
}
