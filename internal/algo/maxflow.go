package algo

import (
	"math"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
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
// splice Handlers, size memory with MemWords, run Body SPMD, read the
// result with Value. Single node (augmentation is a serial path walk);
// the BFS phases use all T threads.
type MaxFlow struct {
	G *graph.Graph

	// Arc arrays (host-side, immutable after construction).
	arcHead []int32 // arc -> head vertex
	arcRev  []int32 // arc -> reverse arc
	arcOff  []int32 // vertex -> first arc (CSR)

	rt     *aam.Runtime
	markOp int

	N      int
	A      int // number of arcs
	segLen int
	T      int

	// Node-memory layout.
	resBase    int // A words: residual capacities
	parentBase int // N words: arc id + 1 that discovered the vertex, 0 = unvisited
	qBase      [2]int
	tailBase   [2]int
	parityAddr int
	flowAddr   int // accumulated flow value
	doneAddr   int // 1 when no augmenting path remains
	lockBase   int
}

// NewMaxFlow prepares the computation over g's weights as capacities.
func NewMaxFlow(g *graph.Graph) *MaxFlow {
	if g.Weights == nil {
		panic("algo: MaxFlow needs edge weights (capacities)")
	}
	f := &MaxFlow{G: g, N: g.N}
	// Build the arc arrays: two directed arcs per undirected edge.
	f.arcOff = make([]int32, g.N+1)
	total := 0
	for v := 0; v < g.N; v++ {
		f.arcOff[v] = int32(total)
		total += len(g.Neighbors(v))
	}
	f.arcOff[g.N] = int32(total)
	f.A = total
	f.arcHead = make([]int32, total)
	f.arcRev = make([]int32, total)

	// Pair each arc with its reverse. Arc i of vertex v is (v -> nb[i]);
	// its reverse is the arc of nb[i] pointing back at v. Multi-edges are
	// paired positionally (k-th copy with k-th copy).
	type vw struct{ v, w int32 }
	nthBack := make(map[vw]int32)
	for v := 0; v < g.N; v++ {
		base := f.arcOff[v]
		for i, w := range g.Neighbors(v) {
			f.arcHead[base+int32(i)] = w
		}
	}
	for v := int32(0); v < int32(g.N); v++ {
		base := f.arcOff[v]
		for i, w := range g.Neighbors(int(v)) {
			a := base + int32(i)
			// Find the nth arc w->v not yet paired.
			k := nthBack[vw{w, v}]
			nthBack[vw{w, v}] = k + 1
			wBase := f.arcOff[w]
			// Scan w's neighbors for the (k+1)-th occurrence of v.
			seen := int32(0)
			for j, x := range g.Neighbors(int(w)) {
				if x == v {
					if seen == k {
						f.arcRev[a] = wBase + int32(j)
						break
					}
					seen++
				}
			}
		}
	}

	f.rt = aam.NewRuntime()
	// The BFS mark operator over the residual network (FF&MF): arg is the
	// arc that discovered w; the spawner checked residual and visited
	// state, the transaction re-tests visited and records the parent arc.
	f.markOp = f.rt.Register(&aam.Op{
		Name: "maxflow-mark",
		Body: func(tx exec.Tx, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			if tx.Read(f.parentBase+w) != 0 {
				return 0, true
			}
			tx.Write(f.parentBase+w, arg+1)
			f.txPush(tx, e.Ctx(), w)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, w int, arg uint64) (uint64, bool) {
			if !ctx.CAS(f.parentBase+w, 0, arg+1) {
				return 0, true
			}
			next := int(ctx.Load(f.parityAddr)) ^ 1
			f.push(ctx, next, uint64(w))
			return 0, false
		},
	})
	return f
}

const mfTailStride = 8

func (f *MaxFlow) layout(T int) {
	f.T = T
	f.segLen = f.N + f.N/8 + 16
	f.resBase = 0
	f.parentBase = f.A
	f.qBase[0] = f.A + f.N
	f.qBase[1] = f.qBase[0] + T*f.segLen
	f.tailBase[0] = f.qBase[1] + T*f.segLen
	f.tailBase[1] = f.tailBase[0] + T*mfTailStride
	f.parityAddr = f.tailBase[1] + T*mfTailStride
	f.flowAddr = f.parityAddr + 8
	f.doneAddr = f.flowAddr + 8
	f.lockBase = f.doneAddr + 8
}

// MemWordsFor returns the node-memory size for T threads.
func (f *MaxFlow) MemWordsFor(T int) int {
	seg := f.N + f.N/8 + 16
	return f.A + f.N + 2*T*seg + 2*T*mfTailStride + 24 + f.N
}

// MemWords sizes memory for up to 64 threads.
func (f *MaxFlow) MemWords() int { return f.MemWordsFor(64) }

// Handlers splices the runtime handlers into existing.
func (f *MaxFlow) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	return f.rt.Handlers(existing)
}

func (f *MaxFlow) txPush(tx exec.Tx, ctx exec.Context, v int) {
	next := int(tx.Read(f.parityAddr)) ^ 1
	lid := ctx.LocalID()
	ta := f.tailBase[next] + lid*mfTailStride
	idx := int(tx.Read(ta))
	tx.Write(ta, uint64(idx)+1)
	tx.Write(f.qBase[next]+lid*f.segLen+idx, uint64(v))
}

func (f *MaxFlow) push(ctx exec.Context, q int, v uint64) {
	lid := ctx.LocalID()
	idx := ctx.FetchAdd(f.tailBase[q]+lid*mfTailStride, 1)
	ctx.Store(f.qBase[q]+lid*f.segLen+int(idx), v)
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
		f.layout(T)
	}
	ctx.Barrier()
	engCfg.Part = graph.NewPartition(f.N, 1)
	engCfg.LockBase = f.lockBase
	eng := aam.NewEngine(f.rt, ctx, engCfg)

	// Initialize residuals from capacities (parallel over arcs).
	aLo, aHi := lid*f.A/T, (lid+1)*f.A/T
	for v := 0; v < f.N; v++ {
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
		nLo, nHi := lid*f.N/T, (lid+1)*f.N/T
		for v := nLo; v < nHi; v++ {
			ctx.Store(f.parentBase+v, 0)
		}
		if lid == 0 {
			for j := 0; j < T; j++ {
				ctx.Store(f.tailBase[0]+j*mfTailStride, 0)
				ctx.Store(f.tailBase[1]+j*mfTailStride, 0)
			}
			ctx.Store(f.parityAddr, 0)
			ctx.Store(f.parentBase+s, uint64(f.A)+1) // sentinel arc: source
			ctx.Store(f.qBase[0], uint64(s))
			ctx.Store(f.tailBase[0], 1)
		}
		ctx.Barrier()

		tails := make([]int, T)
		for {
			cur := int(ctx.Load(f.parityAddr))
			count := 0
			for j := 0; j < T; j++ {
				tails[j] = int(ctx.Load(f.tailBase[cur] + j*mfTailStride))
				count += tails[j]
			}
			lo, hi := lid*count/T, (lid+1)*count/T
			pos := 0
			for j := 0; j < T && pos < hi; j++ {
				segLo, segHi := pos, pos+tails[j]
				pos = segHi
				if segHi <= lo || segLo >= hi {
					continue
				}
				from, to := max(lo, segLo)-segLo, min(hi, segHi)-segLo
				for i := from; i < to; i++ {
					v := int(ctx.Load(f.qBase[cur] + j*f.segLen + i))
					f.expand(ctx, eng, v)
				}
			}
			eng.Drain()

			nextLocal := uint64(0)
			if lid == 0 {
				for j := 0; j < T; j++ {
					nextLocal += ctx.Load(f.tailBase[cur^1] + j*mfTailStride)
				}
			}
			total := ctx.AllReduceSum(nextLocal)
			ctx.Store(f.tailBase[cur]+lid*mfTailStride, 0)
			if lid == 0 {
				ctx.Store(f.parityAddr, uint64(cur^1))
			}
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
	ctx.Compute(vtime.Time(n/2+1) * ctx.Profile().LoadCost)
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

// SeqMaxFlow is the sequential Edmonds-Karp reference over the same
// undirected-capacity construction.
func SeqMaxFlow(g *graph.Graph, s, t int) uint64 {
	if g.Weights == nil {
		panic("algo: SeqMaxFlow needs edge weights")
	}
	n := g.N
	// Arc arrays mirroring NewMaxFlow.
	off := make([]int, n+1)
	total := 0
	for v := 0; v < n; v++ {
		off[v] = total
		total += len(g.Neighbors(v))
	}
	off[n] = total
	head := make([]int32, total)
	res := make([]uint64, total)
	rev := make([]int32, total)
	type vw struct{ v, w int32 }
	nth := make(map[vw]int32)
	for v := 0; v < n; v++ {
		ws := g.EdgeWeights(v)
		for i, w := range g.Neighbors(v) {
			head[off[v]+i] = w
			res[off[v]+i] = uint64(ws[i])
		}
	}
	for v := int32(0); v < int32(n); v++ {
		for i, w := range g.Neighbors(int(v)) {
			a := off[v] + i
			k := nth[vw{w, v}]
			nth[vw{w, v}] = k + 1
			seen := int32(0)
			for j, x := range g.Neighbors(int(w)) {
				if x == v {
					if seen == k {
						rev[a] = int32(off[w] + j)
						break
					}
					seen++
				}
			}
		}
	}

	parent := make([]int32, n) // arc+1, 0 unvisited
	queue := make([]int32, 0, n)
	var flow uint64
	for {
		for i := range parent {
			parent[i] = 0
		}
		parent[s] = int32(total) + 1
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
				parent[w] = int32(i) + 1
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
