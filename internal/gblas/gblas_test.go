package gblas_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

func testGraph(seed int64) *graph.Graph {
	return graph.Kronecker(9, 8, seed)
}

func weightedGraph(seed int64) *graph.Graph {
	const n = 400
	b := graph.NewBuilder(n).WithWeights(graph.SymmetricWeight(uint64(seed)))
	g := graph.Kronecker(9, 6, seed)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				b.AddEdge(int32(u)%n, v%n)
			}
		}
	}
	return b.Dedup().Build()
}

func htmEngine() aam.Config {
	return aam.Config{M: 8, Mechanism: aam.MechHTM}
}

func machineFor(sys aam.Sizer, nodes, threads int, seed int64) exec.Machine {
	prof := exec.BGQ()
	return aam.NewMachine(sys, run.Sim, nodes, threads, &prof, seed)
}

// --- semiring laws (testing/quick) ---

func TestMinPlusSemiringLaws(t *testing.T) {
	sr := gblas.MinPlus()
	if err := quick.Check(func(a, b, c uint64) bool {
		// Add commutative + associative, Zero identity.
		if sr.Add(a, b) != sr.Add(b, a) {
			return false
		}
		if sr.Add(sr.Add(a, b), c) != sr.Add(a, sr.Add(b, c)) {
			return false
		}
		if sr.Add(a, sr.Zero) != a {
			return false
		}
		// Mul identity and annihilator.
		if sr.Mul(a, sr.One) != a {
			return false
		}
		return sr.Mul(a, sr.Zero) == sr.Zero
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMinPlusSaturates(t *testing.T) {
	sr := gblas.MinPlus()
	if got := sr.Mul(math.MaxUint64-3, 10); got != math.MaxUint64 {
		t.Fatalf("near-infinity add must saturate, got %d", got)
	}
	if got := sr.Mul(gblas.Infinity, 1); got != gblas.Infinity {
		t.Fatalf("inf+1 = %d, want inf", got)
	}
}

func TestOrAndSemiringLaws(t *testing.T) {
	sr := gblas.OrAnd()
	vals := []uint64{0, 1}
	for _, a := range vals {
		for _, b := range vals {
			if sr.Add(a, b) != sr.Add(b, a) || sr.Mul(a, b) != sr.Mul(b, a) {
				t.Fatal("or/and must commute")
			}
			for _, c := range vals {
				if sr.Mul(a, sr.Add(b, c)) != sr.Add(sr.Mul(a, b), sr.Mul(a, c)) {
					t.Fatal("and must distribute over or")
				}
			}
		}
		if sr.Add(a, sr.Zero) != a || sr.Mul(a, sr.One) != a {
			t.Fatal("identity laws")
		}
	}
}

func TestPlusTimesRoundTrip(t *testing.T) {
	if err := quick.Check(func(f float64) bool {
		if math.IsNaN(f) {
			return true
		}
		return gblas.ToF64(gblas.F64(f)) == f
	}, nil); err != nil {
		t.Error(err)
	}
	sr := gblas.PlusTimes()
	if got := gblas.ToF64(sr.Add(gblas.F64(1.5), gblas.F64(2.25))); got != 3.75 {
		t.Fatalf("1.5+2.25 = %v", got)
	}
	if got := gblas.ToF64(sr.Mul(gblas.F64(3), gblas.F64(0.5))); got != 1.5 {
		t.Fatalf("3*0.5 = %v", got)
	}
}

// --- BFS over or-and ---

func TestGBLASBFSMatchesReference(t *testing.T) {
	g := testGraph(7)
	src := 0
	ref := algo.SeqBFS(g, src)

	b := gblas.NewBFS(g, 1, htmEngine())
	m := machineFor(b, 1, 8, 7)
	m.Run(b.Body(src))
	levels := b.Levels(m)

	for v := 0; v < g.N; v++ {
		if int64(ref[v]) != levels[v] {
			t.Fatalf("vertex %d: gblas level %d, reference %d", v, levels[v], ref[v])
		}
	}
}

func TestGBLASBFSDistributed(t *testing.T) {
	g := testGraph(8)
	src := 3
	ref := algo.SeqBFS(g, src)

	b := gblas.NewBFS(g, 4, htmEngine())
	m := machineFor(b, 4, 4, 8)
	m.Run(b.Body(src))
	levels := b.Levels(m)

	for v := 0; v < g.N; v++ {
		if int64(ref[v]) != levels[v] {
			t.Fatalf("vertex %d: gblas level %d, reference %d", v, levels[v], ref[v])
		}
	}
}

func TestGBLASBFSAcrossMechanisms(t *testing.T) {
	g := testGraph(9)
	src := 0
	ref := algo.SeqBFS(g, src)
	for _, mech := range []aam.Mechanism{
		aam.MechHTM, aam.MechAtomic, aam.MechLock,
		aam.MechOptimistic, aam.MechFlatCombining,
	} {
		cfg := aam.Config{M: 8, Mechanism: mech}
		b := gblas.NewBFS(g, 1, cfg)
		m := machineFor(b, 1, 4, 9)
		m.Run(b.Body(src))
		levels := b.Levels(m)
		for v := 0; v < g.N; v++ {
			if int64(ref[v]) != levels[v] {
				t.Fatalf("%v: vertex %d level %d, reference %d", mech, v, levels[v], ref[v])
			}
		}
	}
}

// TestGBLASBFSOnNative runs the system's frontier on goroutines: two
// nodes of two threads each, pushing transactionally and atomically, for
// BFS and for SSSP (the aam engine's SSSP).
func TestGBLASBFSOnNative(t *testing.T) {
	g := graph.Kronecker(8, 6, 9)
	wg := graph.AttachSymmetricWeights(g, 9)
	src := g.MaxDegreeVertex()
	ref := algo.SeqBFS(g, src)
	refDists := algo.SeqSSSP(wg, src)
	prof := exec.HaswellC()
	native := func(sys *gblas.System) exec.Machine { return aam.NewMachine(sys, run.Native, 2, 2, &prof, 9) }
	for _, mech := range []aam.Mechanism{aam.MechHTM, aam.MechAtomic} {
		cfg := aam.Config{M: 4, C: 8, Mechanism: mech}
		b := gblas.NewBFS(g, 2, cfg)
		m := native(b.System)
		m.Run(b.Body(src))
		levels := b.Levels(m)
		for v := 0; v < g.N; v++ {
			if int64(ref[v]) != levels[v] {
				t.Fatalf("%v: vertex %d level %d, reference %d", mech, v, levels[v], ref[v])
			}
		}
		s := gblas.NewSSSP(wg, 2, cfg)
		m = native(s.System)
		m.Run(s.Body(src))
		if !slices.Equal(s.Dists(m), refDists) {
			t.Fatalf("%v: SSSP distances diverge from Dijkstra", mech)
		}
	}
}

// --- SSSP over min-plus ---

func TestGBLASSSSPDistributed(t *testing.T) {
	g := weightedGraph(11)
	src := 5
	ref := algo.SeqSSSP(g, src)

	s := gblas.NewSSSP(g, 2, htmEngine())
	m := machineFor(s, 2, 4, 11)
	m.Run(s.Body(src))
	dists := s.Dists(m)

	for v := 0; v < g.N; v++ {
		if ref[v] != dists[v] {
			t.Fatalf("vertex %d: gblas dist %d, Dijkstra %d", v, dists[v], ref[v])
		}
	}
}

// TestGBLASSSSPMatchesDijkstra holds the min-plus rounds to Dijkstra on
// every mechanism, on one node and on two.
func TestGBLASSSSPMatchesDijkstra(t *testing.T) {
	// Small weights on few vertices: many equal-length paths.
	b := graph.NewBuilder(300).WithWeights(func(u, v int32) uint32 {
		return graph.SymmetricWeight(5)(u, v)%100 + 1
	})
	kg := graph.Kronecker(8, 5, 11)
	for u := 0; u < kg.N; u++ {
		for _, v := range kg.Neighbors(u) {
			if int32(u) < v {
				b.AddEdge(int32(u)%300, v%300)
			}
		}
	}
	small := b.Dedup().Build()
	kron := graph.AttachSymmetricWeights(graph.Kronecker(10, 8, 42), 42)
	road := graph.AttachSymmetricWeights(graph.RoadGrid(32, 32, .1, 7), 7)
	cases := []struct {
		name string
		g    *graph.Graph
		src  int
	}{
		{"small-weights", small, small.MaxDegreeVertex()},
		{"kron9-folded-10", weightedGraph(10), 0},
		{"kron9-folded-11", weightedGraph(11), 5},
		{"kron10", kron, kron.MaxDegreeVertex()},
		{"road32", road, 0},
	}
	for _, c := range cases {
		ref := algo.SeqSSSP(c.g, c.src)
		for mech := aam.MechHTM; mech <= aam.MechFlatCombining; mech++ {
			for nodes := 1; nodes <= 2; nodes++ {
				s := gblas.NewSSSP(c.g, nodes, aam.Config{M: 8, Mechanism: mech})
				m := machineFor(s, nodes, 4, 10)
				m.Run(s.Body(c.src))
				if dists := s.Dists(m); !slices.Equal(dists, ref) {
					t.Fatalf("%s %v nodes=%d: distances diverge from Dijkstra", c.name, mech, nodes)
				}
			}
		}
	}
}

// --- connected components over min-plus ---

// TestGBLASCCMatchesReference holds the min-label rounds to the
// sequential components, label for label (each the smallest id of its
// component): the small Kronecker graph under HTM and atomic on two nodes,
// then a Kronecker and a road-grid graph under every mechanism on one and
// two nodes.
func TestGBLASCCMatchesReference(t *testing.T) {
	check := func(name string, g *graph.Graph, nodes, threads int, cfg aam.Config) {
		t.Helper()
		c := gblas.NewCC(g, nodes, cfg)
		m := machineFor(c, nodes, threads, 13)
		m.Run(c.Body())
		if !slices.Equal(c.Labels(m), algo.SeqComponents(g)) {
			t.Fatalf("%s %v nodes=%d: labels diverge from the sequential components", name, cfg.Mechanism, nodes)
		}
	}
	for _, mech := range []aam.Mechanism{aam.MechHTM, aam.MechAtomic} {
		check("kron8", graph.Kronecker(8, 4, 13), 2, 2, aam.Config{M: 8, C: 16, Mechanism: mech})
	}
	kron, road := graph.Kronecker(10, 8, 42), graph.RoadGrid(32, 32, .1, 7)
	for mech := aam.MechHTM; mech <= aam.MechFlatCombining; mech++ {
		for nodes := 1; nodes <= 2; nodes++ {
			check("kron10", kron, nodes, 4, aam.Config{M: 16, C: 64, Mechanism: mech})
			check("road32", road, nodes, 4, aam.Config{M: 16, C: 64, Mechanism: mech})
		}
	}
}

// --- PageRank over plus-times ---

func TestGBLASPageRankMatchesPowerIteration(t *testing.T) {
	g := testGraph(12)
	const d, k = 0.85, 10
	ref := algo.SeqPageRank(g, d, k)

	p := gblas.NewPageRank(g, 1, d, k, htmEngine())
	m := machineFor(p, 1, 8, 12)
	m.Run(p.Body())
	ranks := p.Ranks(m)

	for v := 0; v < g.N; v++ {
		if diff := math.Abs(ranks[v] - ref[v]); diff > 1e-9 {
			t.Fatalf("vertex %d: gblas rank %g, reference %g (diff %g)", v, ranks[v], ref[v], diff)
		}
	}
}

func TestGBLASPageRankSumsToOne(t *testing.T) {
	g := testGraph(13)
	p := gblas.NewPageRank(g, 1, 0.85, 15, htmEngine())
	m := machineFor(p, 1, 4, 13)
	m.Run(p.Body())
	sum := 0.0
	for _, r := range p.Ranks(m) {
		sum += r
	}
	// Dangling vertices leak mass in the push formulation (as in the
	// paper's Listing 3); with Kronecker multi-edges collapsed the graph
	// has isolated vertices, so allow the same leakage the reference has.
	ref := algo.SeqPageRank(g, 0.85, 15)
	refSum := 0.0
	for _, r := range ref {
		refSum += r
	}
	if math.Abs(sum-refSum) > 1e-9 {
		t.Fatalf("rank mass %g, reference mass %g", sum, refSum)
	}
}

// --- the System as a reusable primitive ---

func TestSystemValuesAndAssignments(t *testing.T) {
	g := testGraph(14)
	b := gblas.NewBFS(g, 1, htmEngine())
	m := machineFor(b, 1, 2, 14)
	m.Run(b.Body(0))
	vals := b.Values(m)
	lvls := b.Assignments(m)
	if len(vals) != g.N || len(lvls) != g.N {
		t.Fatalf("result lengths %d/%d, want %d", len(vals), len(lvls), g.N)
	}
	for v := 0; v < g.N; v++ {
		reached := vals[v] != 0
		if reached != (lvls[v] >= 0) {
			t.Fatalf("vertex %d: y=%d but level=%d", v, vals[v], lvls[v])
		}
	}
}

func TestGBLASBFSDeterministicLevels(t *testing.T) {
	// Levels are a fixpoint of the or-and product: independent of seeds,
	// thread counts and mechanisms.
	g := testGraph(15)
	var ref []int64
	for _, threads := range []int{1, 8} {
		b := gblas.NewBFS(g, 1, htmEngine())
		m := machineFor(b, 1, threads, int64(threads))
		m.Run(b.Body(2))
		lv := b.Levels(m)
		if ref == nil {
			ref = lv
			continue
		}
		for v := range lv {
			if lv[v] != ref[v] {
				t.Fatalf("T=%d: vertex %d level %d != %d", threads, v, lv[v], ref[v])
			}
		}
	}
}
