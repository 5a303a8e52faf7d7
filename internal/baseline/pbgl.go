package baseline

import (
	"aamgo/internal/am"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

// PBGLPageRank models the Parallel Boost Graph Library PageRank the paper
// compares against (§6.2): active-message based, but (1) no threading —
// every "process" is a single-threaded machine node, so co-located
// processes still talk through the network stack — and (2) no activity
// coalescing — each remote rank contribution travels in its own message.
// Local contributions are plain stores (a single-threaded process needs no
// atomics, matching PBGL's incoming-edge optimization).
//
// Rank encoding matches algo.PageRank (Q24.40 fixed point), so results are
// directly comparable.
type PBGLPageRank struct {
	G    *graph.Graph
	Part graph.Partition
	Cfg  PBGLConfig

	accH int

	L        int
	rankBase [2]int
	doneAddr int
}

// PBGLConfig tunes the model.
type PBGLConfig struct {
	Damping    float64
	Iterations int
}

const prScale = 1 << 40

// NewPBGLPageRank prepares a PBGL-style PageRank over g with the given
// number of single-threaded processes.
func NewPBGLPageRank(g *graph.Graph, procs int, cfg PBGLConfig) *PBGLPageRank {
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	part := graph.NewPartition(g.N, procs)
	p := &PBGLPageRank{G: g, Part: part, Cfg: cfg, L: part.MaxLocal()}
	p.rankBase[0] = 0
	p.rankBase[1] = p.L
	p.doneAddr = 2 * p.L
	return p
}

// Handlers splices the PBGL handler into existing.
func (p *PBGLPageRank) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	p.accH = len(existing)
	return append(existing, func(ctx exec.Context, src int, payload []uint64) {
		// One contribution per message: [localV, share<<1|parity].
		v := int(payload[0])
		arg := payload[1]
		addr := p.rankBase[arg&1] + v
		ctx.Store(addr, ctx.Load(addr)+arg>>1)
	})
}

// MemWords returns the node memory size needed.
func (p *PBGLPageRank) MemWords() int { return 2*p.L + 64 }

// Body returns the SPMD body (one thread per process).
func (p *PBGLPageRank) Body() func(ctx exec.Context) {
	return func(ctx exec.Context) { p.run(ctx) }
}

func (p *PBGLPageRank) run(ctx exec.Context) {
	if ctx.ThreadsPerNode() != 1 {
		panic("baseline: PBGL processes are single-threaded; use ThreadsPerNode=1")
	}
	me := ctx.NodeID()
	lo, hi := p.Part.Range(me)

	base := uint64((1 - p.Cfg.Damping) / float64(p.G.N) * prScale)
	init := uint64(1.0 / float64(p.G.N) * prScale)
	for v := lo; v < hi; v++ {
		ctx.Store(p.rankBase[0]+p.Part.Local(v), init)
	}
	ctx.Barrier()

	for it := 0; it < p.Cfg.Iterations; it++ {
		cur := it & 1
		next := cur ^ 1
		for v := lo; v < hi; v++ {
			ctx.Store(p.rankBase[next]+p.Part.Local(v), base)
		}
		ctx.Barrier()

		for v := lo; v < hi; v++ {
			deg := p.G.Degree(v)
			if deg == 0 {
				continue
			}
			rank := ctx.Load(p.rankBase[cur] + p.Part.Local(v))
			share := uint64(float64(rank) * p.Cfg.Damping / float64(deg))
			if share == 0 {
				continue
			}
			neigh := p.G.Neighbors(v)
			ctx.Compute(vtime.Time(len(neigh)/2+1) * ctx.Profile().LoadCost)
			arg := share<<1 | uint64(next)
			for _, wv := range neigh {
				w := int(wv)
				owner := p.Part.Owner(w)
				lw := p.Part.Local(w)
				if owner == me {
					addr := p.rankBase[next] + lw
					ctx.Store(addr, ctx.Load(addr)+share)
					continue
				}
				// One message per contribution: no coalescing.
				ctx.Send(owner, p.accH, []uint64{uint64(lw), arg})
			}
		}
		am.Drain(ctx) // this iteration's messages
	}
	ctx.Barrier()
}

// Ranks gathers the final rank vector.
func (p *PBGLPageRank) Ranks(m exec.Machine) []float64 {
	finalBase := p.rankBase[p.Cfg.Iterations&1]
	out := make([]float64, p.G.N)
	for v := range out {
		node := p.Part.Owner(v)
		out[v] = float64(m.Mem(node)[finalBase+p.Part.Local(v)]) / prScale
	}
	return out
}
