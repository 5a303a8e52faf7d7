package algo

import (
	"math"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

// Boruvka computes a minimum spanning forest with the paper's FR&MF
// operator semantics (§3.3.3, Listing 5): supervertex merges run as
// transactions whose partial effects roll back on conflict (AbortOnFail),
// and the spawner learns about failures through the Fire-and-Return path so
// it can retry in a later round.
//
// The algorithm proceeds in rounds. Each round: (1) every component root
// receives the minimum-weight outgoing edge of its component via an
// Always-Succeed two-word min-update transaction; (2) roots merge along
// their proposals — each merge transactionally re-validates that both
// endpoints are still roots and links the larger root id to the smaller
// (the id order keeps concurrent merges acyclic); (3) pointer jumping
// compresses the component forest. Rounds end when no component has an
// outgoing edge.
//
// Single-node (intra-node parallel) like the paper's case study; the graph
// must carry distinct weights (use graph.SymmetricWeight).
type Boruvka struct {
	aam.Program
	G *graph.Graph

	proposeOp int
	mergeOp   int

	// edgeSrc[pos] is the source vertex of arc pos (CSR inverse).
	edgeSrc []int32

	// Layout; the engine's lock region starts at 2L+64.
	compBase   int // component pointer (vertex id)
	minBase    int // proposal: weight<<32 | arcPos
	weightAddr int // accumulated MST weight
	mergesAddr int // merges this round
	failsAddr  int // merge failures this round (retried next round)
}

// NewBoruvka prepares a Boruvka MST run over g (single node).
func NewBoruvka(g *graph.Graph) *Boruvka {
	if g.Weights == nil {
		panic("algo: Boruvka needs edge weights")
	}
	L := g.N
	b := &Boruvka{G: g, Program: aam.NewProgram(L, 1, func(int) int { return 2*L + 64 })}
	b.compBase = 0
	b.minBase = L
	b.weightAddr = 2 * L
	b.mergesAddr = 2*L + 1
	b.failsAddr = 2*L + 2

	b.edgeSrc = make([]int32, len(g.Adj))
	for v := 0; v < g.N; v++ {
		for i := g.Offsets[v]; i < g.End(v); i++ {
			b.edgeSrc[i] = int32(v)
		}
	}

	// proposeOp (FF&AS): min-combine a candidate edge into the root's
	// proposal slot. Two logically linked words (value packs both).
	b.proposeOp = b.Register(&aam.Op{
		Name: "boruvka-propose",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := b.minBase + v
			if arg < tx.Read(addr) {
				tx.Write(addr, arg)
			}
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			addr := b.minBase + v
			for {
				cur := ctx.Load(addr)
				if arg >= cur {
					return 0, false
				}
				if ctx.CAS(addr, cur, arg) {
					return 0, false
				}
			}
		},
	})
	// mergeOp (FR&MF): link the larger root under the smaller along
	// proposal arc arg. The May-Fail outcome — another activity merged
	// the two components first — is detected before any write, so the
	// operator fails without needing a rollback and the next round
	// simply does not re-propose the edge (the spawner-side retry of
	// §3.3.3 is the round structure itself).
	b.mergeOp = b.Register(&aam.Op{
		Name:   "boruvka-merge",
		Return: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			pos := int64(arg & 0xFFFFFFFF)
			w := uint64(arg >> 32)
			u := int(b.edgeSrc[pos])
			x := int(b.G.Adj[pos])
			// Re-derive both roots transactionally; merging is only
			// valid while both are still roots (§3.3.3: concurrent
			// activities conflict and one of them fails).
			ru := b.root(tx.Read, u)
			rx := b.root(tx.Read, x)
			if ru == rx {
				return 0, true // became intra-component: drop edge
			}
			// Lock and OCC isolate only the declared footprint: v and
			// x's root at the start of the round. A walk that ends at
			// another root met one a merge moved this round; writing it
			// unisolated could link one root twice, so the merge fails
			// and the next round re-proposes.
			if m := e.Cfg().Mechanism; (m == aam.MechLock || m == aam.MechOptimistic) &&
				(ru != v || rx != b.startRoot(tx.Read, x)) {
				return 0, true
			}
			lo, hi := ru, rx
			if lo > hi {
				lo, hi = hi, lo
			}
			tx.Write(b.compBase+hi, uint64(lo))
			return w, false
		},
		LockAddrs: func(e *aam.Engine, v int, arg uint64) []int {
			x := int(b.G.Adj[arg&0xFFFFFFFF])
			lockBase := e.Cfg().LockBase
			return []int{lockBase + v, lockBase + b.startRoot(e.Ctx().Load, x)}
		},
		OnDone: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			ctx := e.Ctx()
			if fail {
				ctx.FetchAdd(b.failsAddr, 1)
				return
			}
			ctx.FetchAdd(b.weightAddr, ret)
			ctx.FetchAdd(b.mergesAddr, 1)
		},
		OnReturn: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			// Failure handler (§3.2.1): nothing to do eagerly — the
			// next round re-proposes and retries the merge.
		},
	})
	return b
}

// startRoot returns x's root as it was when the round's merges began:
// x itself if it carries a proposal (only roots do, and every root at the
// far end of a proposed edge does), else the root its flattened pointer
// names. Merges write no proposal and no non-root's pointer, so every
// read within the round agrees.
func (b *Boruvka) startRoot(load func(addr int) uint64, x int) int {
	if load(b.minBase+x) != math.MaxUint64 {
		return x
	}
	return int(load(b.compBase + x))
}

// root walks the component pointers from v through load. Inside a
// transaction (tx.Read) the whole chain joins the read set, bounded by the
// forest depth, which path compression keeps small.
func (b *Boruvka) root(load func(addr int) uint64, v int) int {
	for {
		p := int(load(b.compBase + v))
		if p == v {
			return v
		}
		v = p
	}
}

// Body returns the SPMD body; cfg tunes the engine (single node).
func (b *Boruvka) Body(engineCfg aam.Config) func(ctx exec.Context) {
	return func(ctx exec.Context) { b.run(ctx, engineCfg) }
}

func (b *Boruvka) run(ctx exec.Context, engineCfg aam.Config) {
	eng := b.NewEngine(ctx, engineCfg)
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	n := b.G.N
	clo := lid * n / T
	chi := (lid + 1) * n / T

	// Init: singleton components, empty proposals.
	for v := clo; v < chi; v++ {
		ctx.Store(b.compBase+v, uint64(v))
		ctx.Store(b.minBase+v, math.MaxUint64)
	}
	ctx.Barrier()

	for round := 0; ; round++ {
		// Phase 1: propose the min outgoing edge of each component.
		proposals := uint64(0)
		for v := clo; v < chi; v++ {
			r := b.root(ctx.Load, v)
			ws := b.G.EdgeWeights(v)
			neigh := b.G.Neighbors(v)
			ctx.Compute(vtime.Time(len(neigh)/4+1) * ctx.Profile().LoadCost)
			for i, wv := range neigh {
				if b.root(ctx.Load, int(wv)) == r {
					continue
				}
				pos := b.G.Offsets[v] + int64(i)
				arg := uint64(ws[i])<<32 | uint64(pos&0xFFFFFFFF)
				eng.Spawn(b.proposeOp, r, arg)
				proposals++
			}
		}
		eng.Drain()

		// Phase 2: merge along proposals (roots only).
		for v := clo; v < chi; v++ {
			if ctx.Load(b.compBase+v) != uint64(v) {
				continue // not a root
			}
			prop := ctx.Load(b.minBase + v)
			if prop == math.MaxUint64 {
				continue
			}
			eng.Spawn(b.mergeOp, v, prop)
		}
		eng.Drain()

		// Phase 3: pointer jumping until the forest is flat.
		for {
			changed := uint64(0)
			for v := clo; v < chi; v++ {
				p := ctx.Load(b.compBase + v)
				gp := ctx.Load(b.compBase + int(p))
				if gp != p {
					ctx.Store(b.compBase+v, gp)
					changed++
				}
			}
			if ctx.AllReduceSum(changed) == 0 {
				break
			}
		}

		// Reset proposals for the next round.
		for v := clo; v < chi; v++ {
			ctx.Store(b.minBase+v, math.MaxUint64)
		}
		totalProposals := ctx.AllReduceSum(proposals)
		if lid == 0 && ctx.GlobalID() == 0 {
			ctx.Store(b.mergesAddr, 0)
			ctx.Store(b.failsAddr, 0)
		}
		ctx.Barrier()
		if totalProposals == 0 {
			return
		}
	}
}

// Weight returns the accumulated forest weight after the run.
func (b *Boruvka) Weight(m exec.Machine) uint64 {
	return m.Mem(0)[b.weightAddr]
}

// Components returns the final component label of every vertex.
func (b *Boruvka) Components(m exec.Machine) []int32 {
	out := make([]int32, b.G.N)
	mem := m.Mem(0)
	for v := range out {
		out[v] = int32(b.root(func(addr int) uint64 { return mem[addr] }, v))
	}
	return out
}
