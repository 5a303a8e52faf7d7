package dyn

// Incremental connected components. The forest has two states: not built
// (Graph.uf == nil — a new graph, and any graph since its last deletion,
// which union-find cannot undo) and built. The first query in the unbuilt
// state builds it from the current snapshot; while it is built edge inserts
// union it in near-constant time and vertex adds grow it. This is the
// classic incremental-only maintenance scheme; it makes the common streaming
// case (insert-heavy workloads) O(α) per update while staying exactly as
// correct as a from-scratch recompute, and a graph nobody asks about its
// components never pays for them.

// unionFind is a growable disjoint-set forest with path splitting and union
// by size, tracking the live component count. A root holds minus the size of
// its set, any other vertex its parent: a find ends on the size's cache line.
type unionFind struct {
	parent []int32
	comps  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), comps: n}
	for i := range uf.parent {
		uf.parent[i] = -1
	}
	return uf
}

// grow appends singletons up to n vertices.
func (uf *unionFind) grow(n int) {
	for i := len(uf.parent); i < n; i++ {
		uf.parent = append(uf.parent, -1)
		uf.comps++
	}
}

func (uf *unionFind) find(v int) int {
	r := int32(v)
	for p := uf.parent[r]; p >= 0; r, p = p, uf.parent[p] {
		if gp := uf.parent[p]; gp >= 0 {
			uf.parent[r] = gp
		}
	}
	return int(r)
}

// link merges the sets of the roots ra and rb, the smaller into the larger,
// and returns the root of the result and whether they were two sets.
func (uf *unionFind) link(ra, rb int32) (int32, bool) {
	if ra == rb {
		return ra, false
	}
	if uf.parent[ra] > uf.parent[rb] {
		ra, rb = rb, ra
	}
	uf.parent[ra] += uf.parent[rb]
	uf.parent[rb] = ra
	uf.comps--
	return ra, true
}

// union merges the sets of a and b; it reports whether a merge happened.
func (uf *unionFind) union(a, b int) bool {
	_, merged := uf.link(int32(uf.find(a)), int32(uf.find(b)))
	return merged
}

// rebuildCC builds the forest of snapshot s, the only place one is made.
// Caller holds g.mu. A vertex without deltas — all of them on a new graph —
// has its base segment read where it lies. Only ascending arcs are followed:
// an undirected graph stores every edge from its smaller end too.
func (g *Graph) rebuildCC(s *Snapshot) {
	uf := newUnionFind(s.n)
	var scratch []int32
	for v := 0; v < s.n; v++ {
		var nbrs []int32
		if c := s.delta(v); len(c.adds)+len(c.dels) > 0 {
			scratch = s.AppendNeighbors(scratch[:0], v)
			nbrs = scratch
		} else if v < s.base.N {
			nbrs = s.base.Neighbors(v)
		}
		rv := int32(uf.find(v)) // v's root across the segment: link returns the set's next one
		for _, w := range nbrs {
			if int32(v) < w {
				rv, _ = uf.link(rv, int32(uf.find(int(w))))
			}
		}
	}
	g.uf = uf
}

// ccView returns the forest for the current snapshot, building it when there
// is none. Caller must not retain it past the critical section.
func (g *Graph) ccView() *unionFind {
	if g.uf == nil {
		g.rebuildCC(g.Snapshot())
	}
	return g.uf
}

// ComponentCount returns the number of connected components, maintained
// incrementally across edge inserts and built on the first query and the
// first after a delete.
func (g *Graph) ComponentCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ccView().comps
}

// SameComponent reports whether u and v are connected. Out-of-range
// vertices are in no component.
func (g *Graph) SameComponent(u, v int32) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	uf := g.ccView()
	if int(u) < 0 || int(u) >= len(uf.parent) || int(v) < 0 || int(v) >= len(uf.parent) {
		return false
	}
	return uf.find(int(u)) == uf.find(int(v))
}

// ComponentView returns, in one atomic step, the snapshot the component
// structure corresponds to, the component count, and (when withLabels) the
// per-vertex labels — so callers can report epoch, count and labels that
// are mutually consistent under concurrent writers.
func (g *Graph) ComponentView(withLabels bool) (snap *Snapshot, count int, labels []int32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	uf := g.ccView()
	snap = g.Snapshot() // current by definition while g.mu is held
	count = uf.comps
	if withLabels {
		labels = uf.labels()
	}
	return snap, count, labels
}

// Components returns per-vertex component labels, each label being the
// smallest vertex id of the component — the same convention as
// algo.SeqComponents, so results are directly comparable.
func (g *Graph) Components() []int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ccView().labels()
}

func (uf *unionFind) labels() []int32 {
	n := len(uf.parent)
	label := make([]int32, n)
	minOf := make([]int32, n)
	for i := range minOf {
		minOf[i] = -1
	}
	for v := 0; v < n; v++ {
		r := uf.find(v)
		if minOf[r] < 0 {
			minOf[r] = int32(v) // v ascends, so first hit is the minimum
		}
		label[v] = minOf[r]
	}
	return label
}
