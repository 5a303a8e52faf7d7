package algo

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// SSSP computes single-source shortest paths by asynchronous chaotic
// relaxation (the paper lists SSSP next to BFS as a marking-style FF&MF
// algorithm, §5.4.1): the relax operator lowers a vertex's distance and,
// when it improves it, OnDone spawns relaxations of the out-neighbors.
// Termination is the AAM runtime's quiescence protocol — there are no
// level barriers.
//
// Distances are stored as dist+1 (0 = infinity). The graph must carry
// weights.
type SSSP struct {
	G    *graph.Graph
	Part graph.Partition

	rt      *aam.Runtime
	relaxOp int

	L        int
	distBase int
	lockBase int
}

// NewSSSP prepares an SSSP run over g distributed across nodes.
func NewSSSP(g *graph.Graph, nodes int) *SSSP {
	if g.Weights == nil {
		panic("algo: SSSP needs edge weights")
	}
	part := graph.NewPartition(g.N, nodes)
	s := &SSSP{G: g, Part: part, L: part.MaxLocal()}
	s.distBase = 0
	s.lockBase = s.L + 64

	s.rt = aam.NewRuntime()
	s.relaxOp = s.rt.Register(&aam.Op{
		Name: "sssp-relax",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := s.distBase + v
			cur := tx.Read(addr)
			if cur != 0 && cur <= arg+1 {
				return 0, true // no improvement: May-Fail no-op
			}
			tx.Write(addr, arg+1)
			return arg, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := s.distBase + v
			for {
				cur := ctx.Load(addr)
				if cur != 0 && cur <= arg+1 {
					return 0, true
				}
				if ctx.CAS(addr, cur, arg+1) {
					return arg, false
				}
			}
		},
		OnDone: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			if fail {
				return
			}
			// Chain: relax all out-neighbors with the improved value.
			ctx := e.Ctx()
			ws := s.G.EdgeWeights(vGlobal)
			neigh := s.G.Neighbors(vGlobal)
			ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
			for i, w := range neigh {
				e.Spawn(s.relaxOp, int(w), ret+uint64(ws[i]))
			}
		},
	})
	return s
}

// Handlers splices the runtime handlers into existing.
func (s *SSSP) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	return s.rt.Handlers(existing)
}

// MemWordsFor returns the node memory size for T threads per node.
func (s *SSSP) MemWordsFor(T int) int { return s.lockBase + aam.LockWords(s.L, T) }

// Body returns the SPMD body relaxing from src.
func (s *SSSP) Body(src int, engineCfg aam.Config) func(ctx exec.Context) {
	engineCfg.Part = s.Part
	engineCfg.LockBase = s.lockBase
	return func(ctx exec.Context) { s.run(ctx, src, engineCfg) }
}

func (s *SSSP) run(ctx exec.Context, src int, engineCfg aam.Config) {
	eng := aam.NewEngine(s.rt, ctx, engineCfg)
	if ctx.GlobalID() == 0 {
		eng.Spawn(s.relaxOp, src, 0)
	}
	ctx.Barrier()
	eng.Drain()
}

// Dists gathers the distances (MaxUint64 = unreachable).
func (s *SSSP) Dists(m exec.Machine) []uint64 {
	out := make([]uint64, s.G.N)
	for v := range out {
		node := s.Part.Owner(v)
		raw := m.Mem(node)[s.distBase+s.Part.Local(v)]
		if raw == 0 {
			out[v] = ^uint64(0)
		} else {
			out[v] = raw - 1
		}
	}
	return out
}
