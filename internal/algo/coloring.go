package algo

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// Coloring implements Boman et al.'s distributed-memory graph coloring
// heuristic with the paper's FR&MF operator (§3.3.5, Listing 7): an
// activity sets a vertex's color and scans the neighborhood inside the
// transaction; on a collision it returns the id of a vertex to recolor
// (chosen at random between the two endpoints), and the failure handler at
// the spawner schedules that vertex for the next round.
//
// Colors are stored as color+1 (0 = uncolored). Single node, as in the
// paper's intra-node case studies.
type Coloring struct {
	aam.Program
	G *graph.Graph

	colorOp int

	// Layout: colors, the work queue (one shared segment); the engine's
	// lock region starts at 4L+64.
	colorBase int
	fr        aam.Frontier
}

// noVertex mirrors the paper's NO_VERTEX_ID.
const noVertex = ^uint64(0) >> 1

// NewColoring prepares a coloring run over g.
func NewColoring(g *graph.Graph) *Coloring {
	L := g.N
	c := &Coloring{G: g, Program: aam.NewProgram(L, 1, func(int) int { return 4*L + 64 })}
	c.colorBase = 0
	c.fr = aam.Frontier{Base: L, Segs: 1, SegLen: L, Stride: 1}

	c.colorOp = c.Register(&aam.Op{
		Name:   "boman-color",
		Return: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(c.colorBase+v, arg+1)
			// Scan the whole neighborhood. A single colliding neighbor is
			// repaired by recoloring one of the two endpoints at random
			// (Listing 7); with two or more collisions only recoloring v
			// itself fixes every conflicting edge, so the choice is forced.
			collide := noVertex
			for _, w := range c.G.Neighbors(v) {
				if int(w) == v {
					continue
				}
				if tx.Read(c.colorBase+int(w)) == arg+1 {
					if collide != noVertex && collide != uint64(w) {
						return uint64(v), false
					}
					collide = uint64(w)
				}
			}
			if collide == noVertex {
				return noVertex, false
			}
			if e.Ctx().Rand().Intn(2) == 0 {
				return collide, false
			}
			return uint64(v), false
		},
		// The body reads every neighbour's colour, so under lock and OCC
		// the footprint is v and its neighbourhood: two neighbours
		// coloured at once then conflict instead of both committing
		// unseen.
		LockAddrs: func(e *aam.Engine, v int, _ uint64) []int {
			neigh := c.G.Neighbors(v)
			lockBase := e.Cfg().LockBase
			addrs := make([]int, 0, len(neigh)+1)
			addrs = append(addrs, lockBase+v)
			for _, w := range neigh {
				addrs = append(addrs, lockBase+int(w))
			}
			return addrs
		},
		OnReturn: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			if fail || ret == noVertex {
				return
			}
			// Failure handler: schedule the collision vertex for the
			// next round.
			c.fr.PushNext(e.Ctx(), int(ret))
		},
	})
	return c
}

// Body returns the SPMD body. maxRounds bounds the repair iterations.
func (c *Coloring) Body(engineCfg aam.Config, maxRounds int) func(ctx exec.Context) {
	if maxRounds <= 0 {
		maxRounds = 200
	}
	return func(ctx exec.Context) { c.run(ctx, engineCfg, maxRounds) }
}

func (c *Coloring) run(ctx exec.Context, engineCfg aam.Config, maxRounds int) {
	eng := c.NewEngine(ctx, engineCfg)
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	n := c.G.N

	// Round 0: every vertex is in the work queue.
	clo := lid * n / T
	chi := (lid + 1) * n / T
	for v := clo; v < chi; v++ {
		ctx.Store(c.fr.Queue(0)+v, uint64(v))
	}
	if lid == 0 {
		ctx.Store(c.fr.Tail(0, 0), uint64(n))
		ctx.Store(c.fr.Parity(), 0)
	}
	ctx.Barrier()

	tails := make([]int, 1)
	for round := 0; round < maxRounds; round++ {
		cur := round & 1
		c.fr.Walk(ctx, cur, tails, func(v int) {
			// Pick the smallest color unused by the neighborhood
			// (plain reads; collisions are repaired by the operator).
			neigh := c.G.Neighbors(v)
			ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
			var used uint64 // bitmask of low 64 colors
			for _, w := range neigh {
				if cw := ctx.Load(c.colorBase + int(w)); cw > 0 && cw <= 64 {
					used |= 1 << (cw - 1)
				}
			}
			color := uint64(0)
			for used&(1<<color) != 0 {
				color++
			}
			eng.Spawn(c.colorOp, v, color)
		})
		eng.Drain()

		total := ctx.AllReduceSum(c.fr.Len(ctx, cur^1))
		c.fr.Flip(ctx, cur)
		ctx.Barrier()
		if total == 0 {
			return
		}
	}
}

// Colors returns the final coloring (0-based) and the color count.
func (c *Coloring) Colors(m exec.Machine) ([]int32, int) {
	out := make([]int32, c.G.N)
	maxc := 0
	for v := range out {
		raw := c.Word(m, c.colorBase, v)
		out[v] = int32(raw) - 1
		if int(raw) > maxc {
			maxc = int(raw)
		}
	}
	return out, maxc
}
