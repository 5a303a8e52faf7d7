package gblas

import (
	"math"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// The classic GraphBLAS algorithm triptych, each a few lines over the
// System primitives — the point of the abstraction (§7): BFS is repeated
// masked or-and products, SSSP is min-plus Bellman-Ford, PageRank is
// plus-times power iteration. Connected components reuse the SSSP rounds
// with every edge weighing One.

// BFS prepares a level-synchronous BFS over the or-and semiring. Results:
// Assignments(m) holds levels (-1 unreached).
type BFS struct {
	*System
}

// NewBFS builds the BFS system for g over nodes.
func NewBFS(g *graph.Graph, nodes int, eng aam.Config) *BFS {
	return &BFS{System: New(g, nodes, Config{
		Semiring:   OrAnd(),
		Engine:     eng,
		RecordStep: true,
	})}
}

// Body returns the SPMD body running BFS from src to fixpoint.
func (b *BFS) Body(src int) func(ctx exec.Context) {
	return func(ctx exec.Context) {
		eng := b.NewEngine(ctx)
		b.Init(ctx, []int{src}, []uint64{1})
		for b.Step(ctx, eng) > 0 {
		}
	}
}

// Levels gathers the level vector after the run (-1 unreached).
func (b *BFS) Levels(m exec.Machine) []int64 { return b.Assignments(m) }

// SSSP prepares min-plus single-source shortest paths: Bellman-Ford in
// frontier rounds, each round relaxing the out-arcs of the vertices whose
// distance improved in the one before, to the fixed point. The graph must
// carry edge weights. It is the default aam engine's SSSP.
type SSSP struct {
	*System
}

// NewSSSP builds the SSSP system for g over nodes.
func NewSSSP(g *graph.Graph, nodes int, eng aam.Config) *SSSP {
	return &SSSP{System: New(g, nodes, Config{
		Semiring: MinPlus(),
		Engine:   eng,
		Weight:   EdgeWeights,
	})}
}

// Body returns the SPMD body running SSSP from src to fixpoint.
func (s *SSSP) Body(src int) func(ctx exec.Context) {
	return func(ctx exec.Context) {
		eng := s.NewEngine(ctx)
		s.Init(ctx, []int{src}, []uint64{0})
		for s.Step(ctx, eng) > 0 {
		}
	}
}

// Dists gathers the distance vector (math.MaxUint64 unreachable).
func (s *SSSP) Dists(m exec.Machine) []uint64 { return s.Values(m) }

// CC prepares connected components by min-label propagation: min-plus
// with a(v,w) = One = 0, every vertex seeded with its own id, frontier
// rounds to the fixed point. Each vertex ends labelled with the smallest
// id of its component. It is the aam engine's components query.
type CC struct {
	*System
}

// NewCC builds the CC system for g over nodes.
func NewCC(g *graph.Graph, nodes int, eng aam.Config) *CC {
	return &CC{System: New(g, nodes, Config{Semiring: MinPlus(), Engine: eng})}
}

// Body returns the SPMD body running CC to fixpoint. Every vertex is a
// seed, so each thread stores and pushes its own slice of the node's
// block into its own frontier segment (Init's seed list is walked by one
// thread).
func (c *CC) Body() func(ctx exec.Context) {
	return func(ctx exec.Context) {
		eng := c.NewEngine(ctx)
		if ctx.LocalID() == 0 {
			ctx.Store(c.stepPos, 2) // tags start at 0: no vertex is pushed yet
		}
		me := ctx.NodeID()
		lo, hi := c.threadSlice(ctx)
		for lv := lo; lv < hi; lv++ {
			ctx.Store(c.yBase+lv, uint64(c.Part.Global(me, lv)))
			c.fr.Push(ctx, 0, lv)
		}
		ctx.Barrier()
		for c.Step(ctx, eng) > 0 {
		}
	}
}

// Labels gathers the component labels after the run.
func (c *CC) Labels(m exec.Machine) []int32 {
	vals := c.Values(m)
	out := make([]int32, len(vals))
	for v, l := range vals {
		out[v] = int32(l)
	}
	return out
}

// PageRank prepares plus-times power iteration: rank = (1-d)/N + d·A^T·
// (rank/outdeg), k iterations with stale ranks (§3.3.1's formulation).
type PageRank struct {
	*System
	Damping    float64
	Iterations int
}

// NewPageRank builds the PR system for g over nodes.
func NewPageRank(g *graph.Graph, nodes int, damping float64, iters int, eng aam.Config) *PageRank {
	pr := &PageRank{Damping: damping, Iterations: iters}
	pr.System = New(g, nodes, Config{
		Semiring: PlusTimes(),
		Engine:   eng,
		// a(v,w) = 1/outdeg(v): the column-stochastic link matrix.
		Weight: func(g *graph.Graph, v, i int, w int32) uint64 {
			return F64(1 / float64(g.Degree(v)))
		},
	})
	return pr
}

// Body returns the SPMD body running the power iteration. The assignment
// region doubles as the x (stale ranks) vector.
func (p *PageRank) Body() func(ctx exec.Context) {
	return func(ctx exec.Context) {
		eng := p.NewEngine(ctx)
		n := float64(p.G.N)
		xBase, yBase := p.assignees, p.yBase
		lo, hi := p.threadSlice(ctx)
		// x := 1/N, y := teleport.
		teleport := F64((1 - p.Damping) / n)
		for lv := lo; lv < hi; lv++ {
			ctx.Store(xBase+lv, F64(1/n))
			ctx.Store(yBase+lv, teleport)
		}
		ctx.Barrier()

		d := p.Damping
		for it := 0; it < p.Iterations; it++ {
			// y ⊕= (d·x) ⊗ A, pushed from every vertex with edges.
			p.AccumulateAll(ctx, eng, func(lv, v int) (uint64, bool) {
				if p.G.Degree(v) == 0 {
					return 0, false
				}
				return F64(d * ToF64(ctx.Load(xBase+lv))), true
			})
			ctx.Barrier()
			// x := y, y := teleport, for the next iteration.
			if it+1 < p.Iterations {
				for lv := lo; lv < hi; lv++ {
					ctx.Store(xBase+lv, ctx.Load(yBase+lv))
					ctx.Store(yBase+lv, teleport)
				}
			}
			ctx.Barrier()
		}
	}
}

// Ranks gathers the rank vector after the run.
func (p *PageRank) Ranks(m exec.Machine) []float64 {
	vals := p.Values(m)
	out := make([]float64, len(vals))
	for i, u := range vals {
		out[i] = ToF64(u)
	}
	return out
}

// Infinity is the min-plus unreachable distance.
const Infinity = uint64(math.MaxUint64)
