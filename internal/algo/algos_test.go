package algo

import (
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

func simFor(p aam.Sizer, nodes, threads int, prof exec.MachineProfile) exec.Machine {
	return aam.NewMachine(p, run.Sim, nodes, threads, &prof, 3)
}

// --- Boruvka ---

func weightedGraph(seed int64) *graph.Graph {
	b := graph.NewBuilder(400).WithWeights(graph.SymmetricWeight(uint64(seed)))
	g := graph.Kronecker(8, 6, seed)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				b.AddEdge(int32(u)%400, v%400)
			}
		}
	}
	return b.Dedup().Build()
}

func TestBoruvkaMatchesKruskal(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := weightedGraph(seed)
		want := SeqMSTWeight(g)
		bo := NewBoruvka(g)
		m := simFor(bo, 1, 4, exec.HaswellC())
		m.Run(bo.Body(aam.Config{M: 1, Mechanism: aam.MechHTM}))
		if got := bo.Weight(m); got != want {
			t.Fatalf("seed %d: MST weight = %d, want %d", seed, got, want)
		}
		// Components must match the sequential decomposition.
		wantComp := SeqComponents(g)
		gotComp := bo.Components(m)
		canon := map[int32]int32{}
		for v := range gotComp {
			if rep, ok := canon[gotComp[v]]; ok {
				if rep != wantComp[v] {
					t.Fatalf("seed %d: component mismatch at %d", seed, v)
				}
			} else {
				canon[gotComp[v]] = wantComp[v]
			}
		}
	}
}

// TestBoruvkaUnderLockAndOCC holds the forest to Kruskal under the two
// mechanisms that isolate only a merge's declared footprint, on graphs
// where a merge that wrote a root outside it (one another merge moved
// earlier in the round) linked that root twice and overcounted the weight.
func TestBoruvkaUnderLockAndOCC(t *testing.T) {
	for _, seed := range []int64{2, 7, 10} {
		for _, g := range []*graph.Graph{graph.Kronecker(7, 16, seed), graph.RoadGrid(24, 24, .1, seed)} {
			g = graph.AttachSymmetricWeights(g, uint64(seed))
			want := SeqMSTWeight(g)
			for _, mech := range []aam.Mechanism{aam.MechLock, aam.MechOptimistic} {
				for _, M := range []int{1, 4} {
					bo := NewBoruvka(g)
					prof := exec.HaswellC()
					m := aam.NewMachine(bo, run.Sim, 1, 8, &prof, seed)
					m.Run(bo.Body(aam.Config{M: M, C: 8, Mechanism: mech}))
					if got := bo.Weight(m); got != want {
						t.Errorf("seed %d n=%d %v M=%d: MST weight %d, want %d", seed, g.N, mech, M, got, want)
					}
				}
			}
		}
	}
}

func TestBoruvkaCoarsened(t *testing.T) {
	g := weightedGraph(7)
	want := SeqMSTWeight(g)
	bo := NewBoruvka(g)
	m := simFor(bo, 1, 2, exec.BGQ())
	res := m.Run(bo.Body(aam.Config{M: 4, Mechanism: aam.MechHTM}))
	if got := bo.Weight(m); got != want {
		t.Fatalf("MST weight = %d, want %d", got, want)
	}
	if res.Stats.TxStarted == 0 {
		t.Fatal("expected transactional merges")
	}
}

// --- ST connectivity ---

func TestSTConnConnectedAndNot(t *testing.T) {
	// Two disjoint cliques.
	b := graph.NewBuilder(40)
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			b.AddEdge(int32(u), int32(v))
			b.AddEdge(int32(u+20), int32(v+20))
		}
	}
	g := b.Build()
	check := func(s, d int, want bool, nodes, threads int) {
		sc := NewSTConn(g, nodes)
		m := simFor(sc, nodes, threads, exec.HaswellC())
		m.Run(sc.Body(s, d, aam.Config{M: 4, C: 8, Mechanism: aam.MechHTM}))
		if got := sc.Connected(m); got != want {
			t.Fatalf("connected(%d,%d) = %v, want %v", s, d, got, want)
		}
		if want != SeqConnected(g, s, d) {
			t.Fatal("test oracle inconsistent")
		}
	}
	check(0, 19, true, 1, 4)
	check(0, 25, false, 1, 4)
	check(3, 17, true, 2, 2)
	check(5, 39, false, 2, 2)
}

func TestSTConnSameVertex(t *testing.T) {
	g := graph.Kronecker(6, 4, 3)
	sc := NewSTConn(g, 1)
	m := simFor(sc, 1, 2, exec.HaswellC())
	m.Run(sc.Body(5, 5, aam.Config{M: 2, Mechanism: aam.MechHTM}))
	if !sc.Connected(m) {
		t.Fatal("vertex must be connected to itself")
	}
}

func TestSTConnOnKronecker(t *testing.T) {
	g := graph.Kronecker(8, 8, 21)
	src := g.MaxDegreeVertex()
	ref := SeqBFS(g, src)
	// Find one reachable and one unreachable target.
	reach, unreach := -1, -1
	for v := 0; v < g.N; v++ {
		if v == src {
			continue
		}
		if ref[v] > 1 && reach < 0 {
			reach = v
		}
		if ref[v] < 0 && unreach < 0 && g.Degree(v) == 0 {
			unreach = v
		}
	}
	for _, tc := range []struct {
		dst  int
		want bool
	}{{reach, true}, {unreach, false}} {
		if tc.dst < 0 {
			continue
		}
		sc := NewSTConn(g, 1)
		m := simFor(sc, 1, 4, exec.BGQ())
		m.Run(sc.Body(src, tc.dst, aam.Config{M: 8, Mechanism: aam.MechHTM}))
		if got := sc.Connected(m); got != tc.want {
			t.Fatalf("connected(%d,%d) = %v, want %v", src, tc.dst, got, tc.want)
		}
	}
}

// --- Coloring ---

func TestColoringIsProper(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		g := graph.Kronecker(8, 6, seed)
		c := NewColoring(g)
		m := simFor(c, 1, 4, exec.HaswellC())
		m.Run(c.Body(aam.Config{M: 4, Mechanism: aam.MechHTM}, 0))
		colors, used := c.Colors(m)
		for v := range colors {
			if colors[v] < 0 {
				t.Fatalf("seed %d: vertex %d uncolored", seed, v)
			}
		}
		if !ValidColoring(g, colors) {
			t.Fatalf("seed %d: improper coloring", seed)
		}
		// The heuristic must not be absurdly worse than greedy.
		_, greedy := GreedyColoring(g)
		if used > 4*greedy+4 {
			t.Fatalf("seed %d: %d colors vs greedy %d", seed, used, greedy)
		}
	}
}

// --- sequential reference sanity ---

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(1, 2) {
		t.Fatal("unions should merge")
	}
	if uf.Union(0, 3) {
		t.Fatal("0 and 3 already connected")
	}
	if uf.Find(0) != uf.Find(3) || uf.Find(4) == uf.Find(0) {
		t.Fatal("find wrong")
	}
}

func TestSeqSSSPSimple(t *testing.T) {
	b := graph.NewBuilder(4).WithWeights(func(u, v int32) uint32 {
		// 0-1:1, 1-2:1, 0-2:5, 2-3:2
		key := [2]int32{min32(u, v), max32(u, v)}
		switch key {
		case [2]int32{0, 1}, [2]int32{1, 2}:
			return 1
		case [2]int32{0, 2}:
			return 5
		default:
			return 2
		}
	})
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	d := SeqSSSP(g, 0)
	want := []uint64{0, 1, 2, 4}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, d[v], want[v])
		}
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func TestGreedyColoringValid(t *testing.T) {
	g := graph.Kronecker(8, 6, 17)
	colors, n := GreedyColoring(g)
	if !ValidColoring(g, colors) {
		t.Fatal("greedy coloring invalid")
	}
	if n <= 0 || n > g.MaxDegree()+1 {
		t.Fatalf("greedy used %d colors, max degree %d", n, g.MaxDegree())
	}
}

func TestSeqComponentsLabelsAreMinIDs(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	want := []int32{0, 0, 2, 2, 2, 5}
	got := SeqComponents(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}
