package algo

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// PageRank rank values live in node memory as Q24.40 fixed point: the rank
// vector sums to ~1.0, i.e. ~2^40 in fixed point, which leaves ample
// headroom in a 64-bit word while additive updates stay exact under
// fetch-and-add.
const prScale = 1 << 40

// PRConfig configures a PageRank execution.
type PRConfig struct {
	Damping    float64
	Iterations int
	Engine     aam.Config
}

// PageRank is the paper's vertex-centric push PageRank (§3.3.1, Listing 3):
// a Fire-and-Forget & Always-Succeed operator adds d·rank(v)/outdeg(v) to
// each neighbor's next-iteration rank; stale ranks from the previous
// iteration are kept in a second array. Activities must always commit —
// concurrent increments of one vertex conflict and retry (or serialize),
// which is exactly the HTM-ACC behaviour studied in §5.4.2.
type PageRank struct {
	aam.Program
	G   *graph.Graph
	Cfg PRConfig

	accOp    int
	rankBase [2]int
}

// NewPageRank prepares a PageRank over g distributed across nodes.
func NewPageRank(g *graph.Graph, nodes int, cfg PRConfig) *PageRank {
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	p := &PageRank{G: g, Cfg: cfg}
	p.Program = aam.NewProgram(g.N, nodes, func(int) int { return 2*p.L + 8 })
	p.rankBase = [2]int{0, p.L}
	// arg encodes share<<1 | nextParity.
	p.accOp = p.Register(&aam.Op{
		Name: "pr-acc",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := p.rankBase[arg&1] + v
			tx.Write(addr, tx.Read(addr)+(arg>>1))
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			ctx.FetchAdd(p.rankBase[arg&1]+v, arg>>1)
			return 0, false
		},
	})
	return p
}

// Body returns the SPMD run body.
func (p *PageRank) Body() func(ctx exec.Context) {
	return func(ctx exec.Context) { p.run(ctx) }
}

func (p *PageRank) run(ctx exec.Context) {
	eng := p.NewEngine(ctx, p.Cfg.Engine)
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	me := ctx.NodeID()
	lo, hi := p.Part.Range(me)
	count := hi - lo
	clo := lo + lid*count/T
	chi := lo + (lid+1)*count/T

	base := uint64((1 - p.Cfg.Damping) / float64(p.G.N) * prScale)
	init := uint64(1.0 / float64(p.G.N) * prScale)

	// Initialize iteration-0 ranks.
	for v := clo; v < chi; v++ {
		ctx.Store(p.rankBase[0]+p.Part.Local(v), init)
	}
	ctx.Barrier()

	for it := 0; it < p.Cfg.Iterations; it++ {
		cur := it & 1
		next := cur ^ 1
		// Seed next-iteration ranks with the uniform term.
		for v := clo; v < chi; v++ {
			ctx.Store(p.rankBase[next]+p.Part.Local(v), base)
		}
		ctx.Barrier()

		for v := clo; v < chi; v++ {
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
			ctx.Compute(ctx.Profile().ScanCost(len(neigh)))
			arg := share<<1 | uint64(next)
			for _, w := range neigh {
				eng.Spawn(p.accOp, int(w), arg)
			}
		}
		eng.Drain()
	}
	ctx.Barrier()
}

// Ranks gathers the final rank vector as floats.
func (p *PageRank) Ranks(m exec.Machine) []float64 {
	finalBase := p.rankBase[p.Cfg.Iterations&1]
	out := make([]float64, p.G.N)
	for v := range out {
		out[v] = float64(p.Word(m, finalBase, v)) / prScale
	}
	return out
}
