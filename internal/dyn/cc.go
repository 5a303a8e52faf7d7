package dyn

// Incremental connected components. The forest is either not built
// (Graph.uf == nil: a new graph, and any graph since its last deletion,
// which union-find cannot undo) or built: the first query that finds none
// builds it from the current snapshot, and while it stands edge inserts
// union it in near-constant time and vertex adds grow it. The common
// streaming case (insert-heavy) is O(α) per update, every answer is that of
// a from-scratch recompute, and a graph nobody asks never pays.

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

// rebuildCC builds the forest of snapshot s; no other code makes one. Caller
// holds g.mu. A vertex without deltas has its base segment read where it
// lies; only ascending arcs are followed (every edge is stored both ways).
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

// ComponentCount returns the number of connected components: the first query
// and the first after a delete build the forest, edge inserts maintain it.
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
