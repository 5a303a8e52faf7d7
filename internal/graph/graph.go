// Package graph provides the compressed-sparse-row graph representation,
// synthetic generators for every graph family used in the paper's
// evaluation (Kronecker/Graph500, Erdős–Rényi, and structural proxies for
// the SNAP real-world graphs of Table 1), edge-list I/O, and the
// one-dimensional partitioning scheme of §3.1.
package graph

import (
	"fmt"
	"runtime"
	"slices"
)

// Graph is an adjacency structure in CSR form. For undirected graphs each
// edge is stored in both directions.
//
// Two layouts share the type. In the flat layout (Ends == nil) the
// adjacency of v is Adj[Offsets[v]:Offsets[v+1]] and segments are packed
// back to back. In the patched (slack) layout, produced by incremental
// snapshot freezes, the adjacency of v is Adj[Offsets[v]:Ends[v]]:
// segments may live anywhere in Adj, need not be contiguous or in vertex
// order, and Adj may carry dead space between them. Code that iterates via
// Neighbors/Degree/EdgeWeights/End works on both layouts unchanged; code
// that serializes the raw arrays must go through Flat first.
type Graph struct {
	N       int     // number of vertices
	Offsets []int64 // len N+1; start of v's segment (flat: also the end of v-1's)
	Adj     []int32
	// Ends, when non-nil (len N), marks the end of each vertex's segment:
	// the patched layout of incrementally frozen snapshots.
	Ends []int64
	// Arcs is the explicit stored-arc count of a patched graph; flat
	// graphs leave it 0 (len(Adj) is exact there).
	Arcs int64
	// Weights, when non-nil, parallels Adj (used by Boruvka/SSSP).
	Weights  []uint32
	Directed bool
}

// NumEdges returns the number of stored arcs (2× logical edges for
// undirected graphs).
func (g *Graph) NumEdges() int64 {
	if g.Ends != nil {
		return g.Arcs
	}
	return int64(len(g.Adj))
}

// End returns the index one past v's last arc in Adj (for direct
// positional access; equals Offsets[v+1] on flat graphs).
func (g *Graph) End(v int) int64 {
	if g.Ends != nil {
		return g.Ends[v]
	}
	return g.Offsets[v+1]
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int {
	if g.Ends != nil {
		return int(g.Ends[v] - g.Offsets[v])
	}
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency slice of v (do not modify).
func (g *Graph) Neighbors(v int) []int32 {
	if g.Ends != nil {
		return g.Adj[g.Offsets[v]:g.Ends[v]]
	}
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeWeights returns the weight slice parallel to Neighbors(v).
func (g *Graph) EdgeWeights(v int) []uint32 {
	if g.Ends != nil {
		return g.Weights[g.Offsets[v]:g.Ends[v]]
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// AvgDegree returns the paper's d̄ = |arcs| / |V|.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.N)
}

// Flat returns g itself when it is already in the flat layout, or a
// freshly packed flat copy of a patched graph (segments in vertex order,
// no slack). Serializers and other raw-array consumers call it before
// touching Offsets/Adj directly.
func (g *Graph) Flat() *Graph {
	if g.Ends == nil {
		return g
	}
	out := &Graph{N: g.N, Directed: g.Directed, Offsets: make([]int64, g.N+1), Adj: make([]int32, 0, g.Arcs)}
	if g.Weights != nil {
		out.Weights = make([]uint32, 0, g.Arcs)
	}
	for v := 0; v < g.N; v++ {
		out.Adj = append(out.Adj, g.Neighbors(v)...)
		if g.Weights != nil {
			out.Weights = append(out.Weights, g.EdgeWeights(v)...)
		}
		out.Offsets[v+1] = int64(len(out.Adj))
	}
	return out
}

// MaxDegree returns the largest out-degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MaxDegreeVertex returns the smallest vertex of the largest out-degree (0
// on the empty graph): the conventional BFS source on a power-law graph,
// whose giant component it reaches.
func (g *Graph) MaxDegreeVertex() int {
	best := 0
	for v := 1; v < g.N; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// DegreeHistogram returns counts bucketed by floor(log2(degree+1)).
func (g *Graph) DegreeHistogram() []int64 {
	var hist []int64
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		b := 0
		for x := d + 1; x > 1; x >>= 1 {
			b++
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// Validate checks structural invariants and returns an error describing the
// first violation.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets len %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Weights != nil && len(g.Weights) != len(g.Adj) {
		return fmt.Errorf("graph: weights len %d, adj len %d", len(g.Weights), len(g.Adj))
	}
	if g.Ends != nil {
		// Patched layout: segments are [Offsets[v], Ends[v]) anywhere in
		// Adj; only segment content is constrained, not segment order.
		if len(g.Ends) != g.N {
			return fmt.Errorf("graph: ends len %d, want %d", len(g.Ends), g.N)
		}
		var arcs int64
		for v := 0; v < g.N; v++ {
			lo, hi := g.Offsets[v], g.Ends[v]
			if lo < 0 || hi < lo || hi > int64(len(g.Adj)) {
				return fmt.Errorf("graph: segment [%d,%d) of vertex %d out of range [0,%d]", lo, hi, v, len(g.Adj))
			}
			arcs += hi - lo
			for _, w := range g.Adj[lo:hi] {
				if int(w) < 0 || int(w) >= g.N {
					return fmt.Errorf("graph: neighbor %d of vertex %d out of range", w, v)
				}
			}
		}
		if arcs != g.Arcs {
			return fmt.Errorf("graph: arcs = %d, segments hold %d", g.Arcs, arcs)
		}
		return nil
	}
	if g.N < 0 { // N == -1 and no offsets
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	if g.Offsets[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: offsets[N] = %d, want %d", g.Offsets[g.N], len(g.Adj))
	}
	for i, w := range g.Adj {
		if int(w) < 0 || int(w) >= g.N {
			return fmt.Errorf("graph: adj[%d] = %d out of range", i, w)
		}
	}
	return nil
}

// Edge is one endpoint pair used during construction and I/O.
type Edge struct {
	U, V int32
}

// Builder accumulates an edge list and produces a CSR graph.
type Builder struct {
	n          int
	edges      []Edge
	directed   bool
	dedup      bool
	withWeight func(u, v int32) uint32
}

// NewBuilder returns a Builder for n vertices (it panics unless int32 ids can
// number them). By default the graph is undirected (each edge stored both
// ways) and parallel edges are kept (as in Graph500); self-loops are dropped.
func NewBuilder(n int) *Builder {
	if n < 0 || n > 1<<31-1 {
		panic(fmt.Sprintf("graph: vertex count %d outside [0, 2^31-1]", n))
	}
	return &Builder{n: n}
}

// Directed makes the builder store arcs exactly as added.
func (b *Builder) Directed() *Builder { b.directed = true; return b }

// Dedup removes parallel edges during Build.
func (b *Builder) Dedup() *Builder { b.dedup = true; return b }

// WithWeights attaches a deterministic weight function evaluated per arc.
func (b *Builder) WithWeights(f func(u, v int32) uint32) *Builder {
	b.withWeight = f
	return b
}

// AddEdge appends an edge. Endpoints out of range panic.
func (b *Builder) AddEdge(u, v int32) {
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{u, v})
}

const buildCut = 1 << 16 // the fewest edges a worker of Build is given

// Build produces the CSR graph by a stable counting sort of the arcs on their
// source, straight from the edge list: an adjacency segment lists its
// neighbours in the order the edges were added. Each worker (per buildCut
// edges, at most GOMAXPROCS and the edges per vertex) counts and scatters a
// chunk. With Dedup each segment is then sorted and its repeats dropped.
func (b *Builder) Build() *Graph {
	return b.build(max(1, min(runtime.GOMAXPROCS(0), len(b.edges)/buildCut, len(b.edges)/max(b.n, 1))))
}

// build is Build on the given number of workers.
func (b *Builder) build(workers int) *Graph {
	n, m, directed := b.n, len(b.edges), b.directed
	cur := make([]int64, workers*n) // cur[w*n+v]: worker w's arcs out of v, then its cursor in v's segment
	parallel(workers, func(w int) {
		c := cur[w*n : w*n+n]
		for _, e := range b.edges[chunk(m, workers, w):chunk(m, workers, w+1)] {
			if e.U != e.V {
				c[e.U]++
				if !directed {
					c[e.V]++
				}
			}
		}
	})
	var at int64
	for v := range n {
		for i := v; i < len(cur); i += n {
			cur[i], at = at, at+cur[i]
		}
	}
	g := &Graph{N: n, Directed: directed, Offsets: append(cur[:n:n], at)} // a copy of the segments' starts
	adj := make([]int32, at)
	parallel(workers, func(w int) {
		c := cur[w*n : w*n+n]
		for _, e := range b.edges[chunk(m, workers, w):chunk(m, workers, w+1)] {
			if e.U != e.V {
				adj[c[e.U]] = e.V
				c[e.U]++
				if !directed {
					adj[c[e.V]] = e.U
					c[e.V]++
				}
			}
		}
	})
	g.Adj = adj
	if b.dedup {
		// Segments only shrink, so packing them leftwards in place never
		// overwrites an arc not yet read.
		var w int64
		for v := 0; v < b.n; v++ {
			seg := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
			slices.Sort(seg)
			g.Offsets[v] = w
			w += int64(copy(g.Adj[w:], slices.Compact(seg)))
		}
		g.Offsets[b.n] = w
		g.Adj = g.Adj[:w]
	}
	if b.withWeight != nil {
		g.Weights = make([]uint32, len(g.Adj))
		for v := 0; v < b.n; v++ {
			base := g.Offsets[v]
			for i, w := range g.Neighbors(v) {
				g.Weights[base+int64(i)] = b.withWeight(int32(v), w)
			}
		}
	}
	return g
}

// SymmetricWeight is a weight function usable with WithWeights that gives
// the same weight to both directions of an undirected edge and avoids
// ties almost surely (required for Boruvka's correctness).
func SymmetricWeight(seed uint64) func(u, v int32) uint32 {
	return func(u, v int32) uint32 {
		a, b := uint64(u), uint64(v)
		if a > b {
			a, b = b, a
		}
		h := mix64(a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ seed)
		// Keep weights positive.
		return uint32(h%0xFFFFFFFE) + 1
	}
}

// AttachSymmetricWeights returns a shallow copy of g carrying
// SymmetricWeight(seed) edge weights: adjacency shared with g, fresh
// weight array. Use it to put an unweighted graph into the metric space
// SSSP and MST require without rebuilding the CSR. A patched graph is
// packed flat first: the weight array parallels Adj, and sizing it to a
// slack arena would allocate (and zero) up to several times the live
// arcs.
func AttachSymmetricWeights(g *Graph, seed uint64) *Graph {
	g = g.Flat()
	wf := SymmetricWeight(seed)
	g2 := *g
	g2.Weights = make([]uint32, len(g.Adj))
	for v := 0; v < g.N; v++ {
		base := g.Offsets[v]
		for i, w := range g.Neighbors(v) {
			g2.Weights[base+int64(i)] = wf(int32(v), w)
		}
	}
	return &g2
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}
