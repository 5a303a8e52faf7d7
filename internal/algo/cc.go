package algo

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// CC computes connected components by min-label propagation (an extension
// beyond the paper's case studies, exercising the same FF&MF pattern as
// BFS): every vertex starts with its own id as label; rounds push each
// vertex's label to its neighbors through a min-combine operator until a
// global fixed point. Labels are stored as label+1 (0 = unset).
type CC struct {
	G    *graph.Graph
	Part graph.Partition

	rt    *aam.Runtime
	minOp int

	L           int
	labelBase   int
	changedAddr int
	lockBase    int
}

// NewCC prepares a connected-components run over g distributed across
// nodes.
func NewCC(g *graph.Graph, nodes int) *CC {
	part := graph.NewPartition(g.N, nodes)
	c := &CC{G: g, Part: part, L: part.MaxLocal()}
	c.labelBase = 0
	c.changedAddr = c.L
	c.lockBase = c.L + 64

	c.rt = aam.NewRuntime()
	c.minOp = c.rt.Register(&aam.Op{
		Name: "cc-min",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := c.labelBase + v
			cur := tx.Read(addr)
			if cur != 0 && cur <= arg+1 {
				return 0, true
			}
			tx.Write(addr, arg+1)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := c.labelBase + v
			for {
				cur := ctx.Load(addr)
				if cur != 0 && cur <= arg+1 {
					return 0, true
				}
				if ctx.CAS(addr, cur, arg+1) {
					return 0, false
				}
			}
		},
		OnDone: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			if !fail {
				e.Ctx().FetchAdd(c.changedAddr, 1)
			}
		},
	})
	return c
}

// Handlers splices the runtime handlers into existing.
func (c *CC) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	return c.rt.Handlers(existing)
}

// MemWordsFor returns the node memory size for T threads per node.
func (c *CC) MemWordsFor(T int) int { return c.lockBase + aam.LockWords(c.L, T) }

// Body returns the SPMD body.
func (c *CC) Body(engineCfg aam.Config) func(ctx exec.Context) {
	engineCfg.Part = c.Part
	engineCfg.LockBase = c.lockBase
	return func(ctx exec.Context) { c.run(ctx, engineCfg) }
}

func (c *CC) run(ctx exec.Context, engineCfg aam.Config) {
	eng := aam.NewEngine(c.rt, ctx, engineCfg)
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	me := ctx.NodeID()
	lo, hi := c.Part.Range(me)
	count := hi - lo
	clo := lo + lid*count/T
	chi := lo + (lid+1)*count/T

	for v := clo; v < chi; v++ {
		ctx.Store(c.labelBase+c.Part.Local(v), uint64(v)+1)
	}
	ctx.Barrier()

	for {
		if lid == 0 {
			ctx.Store(c.changedAddr, 0)
		}
		ctx.Barrier()
		for v := clo; v < chi; v++ {
			label := ctx.Load(c.labelBase+c.Part.Local(v)) - 1
			neigh := c.G.Neighbors(v)
			ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
			for _, w := range neigh {
				eng.Spawn(c.minOp, int(w), label)
			}
		}
		eng.Drain()
		changedLocal := uint64(0)
		if lid == 0 {
			changedLocal = ctx.Load(c.changedAddr)
		}
		if ctx.AllReduceSum(changedLocal) == 0 {
			return
		}
	}
}

// Labels gathers the component labels (min vertex id per component).
func (c *CC) Labels(m exec.Machine) []int32 {
	out := make([]int32, c.G.N)
	for v := range out {
		node := c.Part.Owner(v)
		out[v] = int32(m.Mem(node)[c.labelBase+c.Part.Local(v)]) - 1
	}
	return out
}
