package algo

import (
	"math"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// Maximum flow via Edmonds-Karp, with each augmenting-path search running
// as a parallel AAM BFS over the residual network. The paper's evaluation
// calls BFS "a proxy of many algorithms such as Ford-Fulkerson" (§6); this
// module is that algorithm: the repeated BFS phases dominate the runtime
// and carry over AAM's coarsening benefits, while the path augmentation
// between phases is the classic sequential walk.
//
// The flow network is derived from an undirected weighted graph: every
// edge {u,v} with weight c becomes a pair of arcs u→v and v→u of capacity
// c each (the standard undirected-flow construction, where pushing flow on
// one arc frees capacity on its reverse).

// MaxFlow is a prepared max-flow computation: construct with NewMaxFlow,
// build a machine for it with aam.NewMachine, run Body SPMD, read the
// result with Value. Single node (augmentation is a serial path walk);
// the BFS phases use all T threads.
type MaxFlow struct {
	aam.Program
	G *graph.Graph

	// Arc arrays (host-side, immutable after construction).
	arcHead []int32 // arc -> head vertex
	arcRev  []int32 // arc -> reverse arc
	arcOff  []int32 // vertex -> first arc (CSR)

	markOp int

	A int // number of arcs
	mfLayout
}

// mfLayout is the node-memory map, which depends on the thread count.
type mfLayout struct {
	resBase    int // A words: residual capacities
	parentBase int // N words: arc id + 1 that discovered the vertex, 0 = unvisited
	fr         aam.Frontier
	flowAddr   int // fr.End(): accumulated flow value
	doneAddr   int // 1 when no augmenting path remains
	lockBase   int // the engine's lock region, aam.LockWords(L, T) words
}

// NewMaxFlow prepares the computation over g's weights as capacities.
func NewMaxFlow(g *graph.Graph) *MaxFlow {
	if g.Weights == nil {
		panic("algo: MaxFlow needs edge weights (capacities)")
	}
	f := &MaxFlow{G: g}
	f.Program = aam.NewProgram(g.N, 1, func(T int) int { return f.layout(T).lockBase })
	f.arcOff, f.arcHead, f.arcRev = residualArcs(g)
	f.A = len(f.arcHead)

	// The BFS mark operator over the residual network (FF&MF): arg is the
	// arc that discovered w; the spawner checked residual and visited
	// state, the transaction re-tests visited and records the parent arc.
	f.markOp = f.Register(&aam.Op{
		Name: "maxflow-mark",
		Body: func(tx exec.Tx, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			if tx.Read(f.parentBase+w) != 0 {
				return 0, true
			}
			tx.Write(f.parentBase+w, arg+1)
			f.fr.TxPush(tx, e.Ctx(), w)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			if !ctx.CAS(f.parentBase+w, 0, arg+1) {
				return 0, true
			}
			f.fr.PushNext(ctx, w)
			return 0, false
		},
	})
	return f
}

// layout computes the memory map for T threads: one frontier segment per
// thread.
func (f *MaxFlow) layout(T int) mfLayout {
	fr := aam.Frontier{Base: f.A + f.L, Segs: T, SegLen: f.L + f.L/8 + 16, Stride: 8}
	flow := fr.End()
	return mfLayout{resBase: 0, parentBase: f.A, fr: fr, flowAddr: flow, doneAddr: flow + 8, lockBase: flow + 16}
}

// Body returns the SPMD body computing the s→t max flow.
func (f *MaxFlow) Body(s, t int, eng aam.Config) func(ctx exec.Context) {
	return func(ctx exec.Context) { f.run(ctx, s, t, eng) }
}

func (f *MaxFlow) run(ctx exec.Context, s, t int, engCfg aam.Config) {
	if ctx.Nodes() != 1 {
		panic("algo: MaxFlow is single-node (augmentation is a serial walk)")
	}
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()
	if lid == 0 {
		f.mfLayout = f.layout(T)
	}
	ctx.Barrier()
	eng := f.NewEngine(ctx, engCfg)

	// Initialize residuals from capacities (parallel over arcs).
	aLo, aHi := lid*f.A/T, (lid+1)*f.A/T
	for v := 0; v < f.G.N; v++ {
		base, ws := int(f.arcOff[v]), f.G.EdgeWeights(v)
		if base+len(ws) <= aLo || base >= aHi {
			continue
		}
		for i := range ws {
			a := base + i
			if a >= aLo && a < aHi {
				ctx.Store(f.resBase+a, uint64(ws[i]))
			}
		}
	}
	ctx.Barrier()

	for {
		// --- BFS phase over the residual network ---
		nLo, nHi := lid*f.G.N/T, (lid+1)*f.G.N/T
		for v := nLo; v < nHi; v++ {
			ctx.Store(f.parentBase+v, 0)
		}
		if lid == 0 {
			f.fr.Reset(ctx)
			ctx.Store(f.parentBase+s, uint64(f.A)+1) // sentinel arc: source
			ctx.Store(f.fr.Queue(0), uint64(s))
			ctx.Store(f.fr.Tail(0, 0), 1)
		}
		ctx.Barrier()

		tails := make([]int, T)
		for {
			cur := int(ctx.Load(f.fr.Parity()))
			f.fr.Walk(ctx, cur, tails, func(v int) { f.expand(ctx, eng, v) })
			eng.Drain()

			total := ctx.AllReduceSum(f.fr.Len(ctx, cur^1))
			f.fr.Flip(ctx, cur)
			ctx.Barrier()
			if total == 0 || ctx.Load(f.parentBase+t) != 0 {
				break
			}
		}

		// --- augmentation phase (thread 0 walks the path) ---
		if lid == 0 {
			if ctx.Load(f.parentBase+t) == 0 {
				ctx.Store(f.doneAddr, 1) // no augmenting path: done
			} else {
				// Bottleneck.
				bott := uint64(math.MaxUint64)
				for v := t; v != s; {
					a := int(ctx.Load(f.parentBase+v)) - 1
					if r := ctx.Load(f.resBase + a); r < bott {
						bott = r
					}
					v = f.arcTail(a)
				}
				// Apply.
				for v := t; v != s; {
					a := int(ctx.Load(f.parentBase+v)) - 1
					ctx.Store(f.resBase+a, ctx.Load(f.resBase+a)-bott)
					rev := int(f.arcRev[a])
					ctx.Store(f.resBase+rev, ctx.Load(f.resBase+rev)+bott)
					v = f.arcTail(a)
				}
				ctx.FetchAdd(f.flowAddr, bott)
			}
		}
		ctx.Barrier()
		if ctx.Load(f.doneAddr) != 0 {
			return
		}
	}
}

// arcTail returns the tail vertex of arc a (the head of its reverse).
func (f *MaxFlow) arcTail(a int) int { return int(f.arcHead[f.arcRev[a]]) }

// expand spawns marks for every residual arc out of v.
func (f *MaxFlow) expand(ctx exec.Context, eng *aam.Engine, v int) {
	base := int(f.arcOff[v])
	n := int(f.arcOff[v+1]) - base
	ctx.Compute(ctx.Profile().ScanCost(n))
	for i := 0; i < n; i++ {
		a := base + i
		w := int(f.arcHead[a])
		if ctx.Load(f.resBase+a) == 0 {
			continue // saturated
		}
		if ctx.Load(f.parentBase+w) != 0 {
			continue // visited (checked optimization, §4.2)
		}
		eng.Spawn(f.markOp, w, uint64(a))
	}
}

// Value reads the computed flow after the run.
func (f *MaxFlow) Value(m exec.Machine) uint64 {
	return m.Mem(0)[f.flowAddr]
}

// residualArcs builds the flow network's arc arrays, two directed arcs
// per undirected edge: vertex v's arcs are off[v] to off[v+1], arc
// off[v]+i leads to its i-th neighbour head[off[v]+i], and rev[a] is the
// arc pointing back. Multi-edges are paired positionally (k-th copy with
// k-th copy).
func residualArcs(g *graph.Graph) (off, head, rev []int32) {
	off = make([]int32, g.N+1)
	for v := 0; v < g.N; v++ {
		off[v+1] = off[v] + int32(len(g.Neighbors(v)))
	}
	head = make([]int32, off[g.N])
	rev = make([]int32, off[g.N])
	type vw struct{ v, w int32 }
	nth := make(map[vw]int32)
	for v := int32(0); v < int32(g.N); v++ {
		copy(head[off[v]:], g.Neighbors(int(v)))
		for i, w := range g.Neighbors(int(v)) {
			// Pair with the (k+1)-th arc w->v, k the copies already paired.
			k := nth[vw{w, v}]
			nth[vw{w, v}] = k + 1
			for j, x := range g.Neighbors(int(w)) {
				if x == v {
					if k == 0 {
						rev[off[v]+int32(i)] = off[w] + int32(j)
						break
					}
					k--
				}
			}
		}
	}
	return off, head, rev
}

// SeqMaxFlow is the sequential Edmonds-Karp reference over the same
// undirected-capacity construction.
func SeqMaxFlow(g *graph.Graph, s, t int) uint64 {
	if g.Weights == nil {
		panic("algo: SeqMaxFlow needs edge weights")
	}
	n := g.N
	off, head, rev := residualArcs(g)
	res := make([]uint64, len(head))
	for v := 0; v < n; v++ {
		for i, w := range g.EdgeWeights(v) {
			res[int(off[v])+i] = uint64(w)
		}
	}

	parent := make([]int32, n) // arc+1, 0 unvisited
	queue := make([]int32, 0, n)
	var flow uint64
	for {
		for i := range parent {
			parent[i] = 0
		}
		parent[s] = int32(len(head)) + 1
		queue = append(queue[:0], int32(s))
		found := false
		for qi := 0; qi < len(queue) && !found; qi++ {
			v := queue[qi]
			for i := off[v]; i < off[v+1]; i++ {
				if res[i] == 0 {
					continue
				}
				w := head[i]
				if parent[w] != 0 {
					continue
				}
				parent[w] = i + 1
				if int(w) == t {
					found = true
					break
				}
				queue = append(queue, w)
			}
		}
		if !found {
			return flow
		}
		bott := uint64(math.MaxUint64)
		for v := t; v != s; {
			a := parent[v] - 1
			if res[a] < bott {
				bott = res[a]
			}
			v = int(head[rev[a]])
		}
		for v := t; v != s; {
			a := parent[v] - 1
			res[a] -= bott
			res[rev[a]] += bott
			v = int(head[rev[a]])
		}
		flow += bott
	}
}
