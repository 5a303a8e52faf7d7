package algo

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// STConn decides s–t connectivity with the paper's FR&AS operator (§3.3.4,
// Listing 6): two BFS waves grow from s (grey) and t (green); the visit
// operator colors white vertices and returns true when it touches the
// other wave's color, upon which the failure handler at the spawner
// terminates the algorithm.
type STConn struct {
	aam.Program
	G *graph.Graph

	visitOp int

	// Layout: colors, the frontier of packed (v<<2|color) in one shared
	// segment, the found flag at its end; the engine's lock region starts
	// at 4L+64.
	colorBase int
	fr        aam.Frontier
	foundAddr int
}

// Colors.
const (
	stWhite = 0
	stGrey  = 1 // wave from s
	stGreen = 2 // wave from t
)

// NewSTConn prepares an s–t connectivity run over g distributed across
// nodes.
func NewSTConn(g *graph.Graph, nodes int) *STConn {
	s := &STConn{G: g}
	s.Program = aam.NewProgram(g.N, nodes, func(int) int { return 4*s.L + 64 })
	s.colorBase = 0
	s.fr = aam.Frontier{Base: s.L, Segs: 1, SegLen: s.L, Stride: 1}
	s.foundAddr = s.fr.End()

	s.visitOp = s.Register(&aam.Op{
		Name:   "stconn-visit",
		Return: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			c := tx.Read(s.colorBase + v)
			switch {
			case c == stWhite:
				tx.Write(s.colorBase+v, arg)
				return arg, false // continue the wave
			case c == arg:
				return 0, true // already ours: May-Fail no-op
			default:
				return 3, false // touched the other wave: connected!
			}
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			for {
				c := ctx.Load(s.colorBase + v)
				if c == arg {
					return 0, true
				}
				if c != stWhite {
					return 3, false
				}
				if ctx.CAS(s.colorBase+v, stWhite, arg) {
					return arg, false
				}
			}
		},
		OnDone: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			if fail {
				return
			}
			ctx := e.Ctx()
			if ret == 3 {
				ctx.Store(s.foundAddr, 1)
				return
			}
			s.fr.PushNext(ctx, s.Part.Local(vGlobal)<<2|int(ret))
		},
		OnReturn: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			// Failure handler: terminate when the waves met (§3.3.4).
			if !fail && ret == 3 {
				e.Ctx().Store(s.foundAddr, 1)
			}
		},
	})
	return s
}

// Body returns the SPMD body deciding whether src and dst are connected.
func (s *STConn) Body(src, dst int, engineCfg aam.Config) func(ctx exec.Context) {
	return func(ctx exec.Context) { s.run(ctx, src, dst, engineCfg) }
}

func (s *STConn) run(ctx exec.Context, src, dst int, engineCfg aam.Config) {
	eng := s.NewEngine(ctx, engineCfg)
	lid := ctx.LocalID()
	me := ctx.NodeID()

	if src == dst {
		if lid == 0 && me == 0 {
			ctx.Store(s.foundAddr, 1)
		}
		ctx.Barrier()
		return
	}
	// Seed both waves.
	if me == s.Part.Owner(src) && lid == 0 {
		ls := s.Part.Local(src)
		ctx.Store(s.colorBase+ls, stGrey)
		s.fr.Push(ctx, 0, ls<<2|stGrey)
	}
	if me == s.Part.Owner(dst) && lid == 0 {
		ld := s.Part.Local(dst)
		ctx.Store(s.colorBase+ld, stGreen)
		s.fr.Push(ctx, 0, ld<<2|stGreen)
	}
	if lid == 0 {
		ctx.Store(s.fr.Parity(), 0)
	}
	ctx.Barrier()

	tails := make([]int, 1)
	for level := 0; ; level++ {
		cur := level & 1
		s.fr.Walk(ctx, cur, tails, func(packed int) {
			color := uint64(packed & 3)
			u := s.Part.Global(me, packed>>2)
			neigh := s.G.Neighbors(u)
			ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
			for _, w := range neigh {
				eng.Spawn(s.visitOp, int(w), color)
			}
		})
		eng.Drain()

		foundLocal := uint64(0)
		if lid == 0 {
			foundLocal = ctx.Load(s.foundAddr)
		}
		nextLocal := s.fr.Len(ctx, cur^1)
		found := ctx.AllReduceSum(foundLocal)
		total := ctx.AllReduceSum(nextLocal)
		s.fr.Flip(ctx, cur)
		if lid == 0 && found > 0 {
			ctx.Store(s.foundAddr, 1) // propagate to every node
		}
		ctx.Barrier()
		if found > 0 || total == 0 {
			return
		}
	}
}

// Connected reports the result after the run.
func (s *STConn) Connected(m exec.Machine) bool {
	for node := 0; node < s.Part.Nodes; node++ {
		if m.Mem(node)[s.foundAddr] != 0 {
			return true
		}
	}
	return false
}
