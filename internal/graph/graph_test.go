package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderCSRBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 { // undirected: 3 edges -> 6 arcs
		t.Fatalf("arcs = %d, want 6", g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
	found := false
	for _, w := range g.Neighbors(1) {
		if w == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("neighbor 2 of 1 missing")
	}
}

func TestBuilderDirectedAndSelfLoops(t *testing.T) {
	b := NewBuilder(3).Directed()
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self-loop dropped by default
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("arcs = %d, want 1", g.NumEdges())
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3).Dedup()
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if g.NumEdges() != 2 { // one undirected edge
		t.Fatalf("arcs = %d, want 2", g.NumEdges())
	}
}

func TestSymmetricWeights(t *testing.T) {
	b := NewBuilder(4).WithWeights(SymmetricWeight(1))
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	w01 := g.EdgeWeights(0)[0]
	w10 := g.EdgeWeights(1)[0]
	if w01 != w10 {
		t.Fatalf("weights asymmetric: %d vs %d", w01, w10)
	}
	if w01 == 0 {
		t.Fatal("weight must be positive")
	}
}

func TestKroneckerShape(t *testing.T) {
	g := Kronecker(10, 8, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	// 8*1024 generated edges, stored both directions, minus self-loops.
	if g.NumEdges() < 12000 || g.NumEdges() > 16384 {
		t.Fatalf("arcs = %d out of expected range", g.NumEdges())
	}
	// Power law: max degree far above the average.
	if g.MaxDegree() < 4*int(g.AvgDegree()) {
		t.Fatalf("no skew: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestKroneckerDeterminism(t *testing.T) {
	a := Kronecker(8, 4, 7)
	b := Kronecker(8, 4, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("same seed produced different adjacency")
		}
	}
	c := Kronecker(8, 4, 8)
	same := a.NumEdges() == c.NumEdges()
	if same {
		for i := range a.Adj {
			if a.Adj[i] != c.Adj[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	n, p := 2000, 0.004
	g := ErdosRenyi(n, p, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges()) / 2
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("edges = %.0f, want ≈ %.0f", got, want)
	}
}

func TestErdosRenyiNoDuplicatePairs(t *testing.T) {
	g := ErdosRenyi(300, 0.02, 5)
	seen := map[[2]int32]bool{}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if v == int32(u) {
				t.Fatal("self loop")
			}
			k := [2]int32{int32(u), v}
			if seen[k] {
				t.Fatalf("duplicate arc %v", k)
			}
			seen[k] = true
		}
	}
}

func TestRoadGridShape(t *testing.T) {
	g := RoadGrid(50, 40, 0.05, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 2000 {
		t.Fatalf("N = %d", g.N)
	}
	if g.AvgDegree() < 2 || g.AvgDegree() > 5 {
		t.Fatalf("road avg degree = %.2f, want 2..5", g.AvgDegree())
	}
	if g.MaxDegree() > 10 {
		t.Fatalf("road max degree = %d, too high", g.MaxDegree())
	}
}

func TestBarabasiAlbertSkew(t *testing.T) {
	g := BarabasiAlbert(4000, 4, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() < 8*int(g.AvgDegree()) {
		t.Fatalf("BA graph not skewed: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestHubSpokeSkew(t *testing.T) {
	g := HubSpoke(5000, 5, 2, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Directed {
		t.Fatal("hub-spoke should be directed")
	}
	// In-degree skew: hub 0 should receive a large share. Compute
	// in-degrees by scanning arcs.
	indeg := make([]int, g.N)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			indeg[v]++
		}
	}
	if indeg[0] < g.N/4 {
		t.Fatalf("hub 0 in-degree = %d, want >= n/4", indeg[0])
	}
}

func TestCitationDAGIsAcyclic(t *testing.T) {
	g := CitationDAG(2000, 4, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if v >= int32(u) {
				t.Fatalf("citation edge %d->%d not backward", u, v)
			}
		}
	}
}

func TestCommunityClusters(t *testing.T) {
	g := Community(1000, 50, 6, 0.1, 13)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Most arcs should stay within the cluster.
	intra, total := 0, 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			total++
			if u/50 == int(v)/50 {
				intra++
			}
		}
	}
	if float64(intra) < 0.6*float64(total) {
		t.Fatalf("intra-cluster share = %d/%d, want >= 60%%", intra, total)
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	f := func(nRaw, nodesRaw uint16) bool {
		n := int(nRaw%5000) + 1
		nodes := int(nodesRaw%17) + 1
		p := NewPartition(n, nodes)
		// Every vertex owned exactly once, ranges tile [0,n).
		covered := 0
		for node := 0; node < nodes; node++ {
			lo, hi := p.Range(node)
			for v := lo; v < hi; v++ {
				if p.Owner(v) != node {
					return false
				}
				if p.Global(node, p.Local(v)) != v {
					return false
				}
				covered++
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Kronecker(7, 4, 21)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: N %d->%d arcs %d->%d", g.N, g2.N, g.NumEdges(), g2.NumEdges())
	}
	// Degrees must survive the round trip.
	for v := 0; v < g.N; v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree of %d changed: %d -> %d", v, g.Degree(v), g2.Degree(v))
		}
	}
}

func TestEdgeListWeightsRoundTrip(t *testing.T) {
	b := NewBuilder(5).WithWeights(SymmetricWeight(3))
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weights == nil {
		t.Fatal("weights lost")
	}
	if g.EdgeWeights(0)[0] != g2.EdgeWeights(0)[0] {
		t.Fatal("weight value changed")
	}
}

func TestReadSNAPStyle(t *testing.T) {
	in := "# Directed graph (each unordered pair of nodes is saved once)\n0 1\n1 2\n2 0\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 6 {
		t.Fatalf("SNAP parse: N=%d arcs=%d", g.N, g.NumEdges())
	}
}

func TestTable1SpecsGenerate(t *testing.T) {
	for _, s := range Table1Specs {
		g := s.Generate(8, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if g.N < 256 {
			t.Fatalf("%s: too small (%d)", s.ID, g.N)
		}
	}
}

func TestSpecByID(t *testing.T) {
	s, err := SpecByID("rCA")
	if err != nil || s.Name != "roadNet-CA" {
		t.Fatalf("SpecByID: %+v %v", s, err)
	}
	if _, err := SpecByID("nope"); err == nil {
		t.Fatal("want error for unknown id")
	}
}

func TestDegreeHistogram(t *testing.T) {
	b := NewBuilder(3).Directed()
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	h := g.DegreeHistogram()
	var total int64
	for _, c := range h {
		total += c
	}
	if total != 3 {
		t.Fatalf("histogram covers %d vertices, want 3", total)
	}
}

// buildOracle is Build as it was before it lost its intermediate arc array
// and its global sort: expand every edge into arcs, sort and unique them
// all under Dedup, then counting-sort on the source with a separate cursor.
func buildOracle(b *Builder) *Graph {
	type arc struct{ u, v int32 }
	arcs := make([]arc, 0, len(b.edges)*2)
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		arcs = append(arcs, arc{e.U, e.V})
		if !b.directed {
			arcs = append(arcs, arc{e.V, e.U})
		}
	}
	if b.dedup {
		slices.SortFunc(arcs, func(a, b arc) int {
			if a.u != b.u {
				return int(a.u) - int(b.u)
			}
			return int(a.v) - int(b.v)
		})
		uniq := arcs[:0]
		for i, a := range arcs {
			if i == 0 || a != arcs[i-1] {
				uniq = append(uniq, a)
			}
		}
		arcs = uniq
	}

	g := &Graph{N: b.n, Directed: b.directed}
	g.Offsets = make([]int64, b.n+1)
	for _, a := range arcs {
		g.Offsets[a.u+1]++
	}
	for v := 0; v < b.n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	g.Adj = make([]int32, len(arcs))
	cursor := make([]int64, b.n)
	for _, a := range arcs {
		pos := g.Offsets[a.u] + cursor[a.u]
		g.Adj[pos] = a.v
		cursor[a.u]++
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

// TestBuildMatchesOracle: for seeded random edge lists and three shaped
// ones, under every combination of the four builder settings, Build equals
// the oracle array for array.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type input struct {
		name  string
		n     int
		edges []Edge
	}
	inputs := []input{{name: "empty", n: 0}, {name: "empty/n=1000", n: 1000}}
	for _, n := range []int{1, 2, 1000} {
		for _, m := range []int{1, 3 * n, 20 * n} {
			in := input{name: fmt.Sprintf("random/n=%d/m=%d", n, m), n: n}
			for i := 0; i < m; i++ {
				in.edges = append(in.edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
			}
			inputs = append(inputs, in)
		}
	}
	loops := input{name: "self-loops", n: 50}
	for i := 0; i < 200; i++ {
		v := int32(rng.Intn(loops.n))
		loops.edges = append(loops.edges, Edge{v, v})
	}
	hub := input{name: "hub", n: 1000}
	for i := 0; i < 10_000; i++ {
		hub.edges = append(hub.edges, Edge{7, int32(rng.Intn(4))}, Edge{int32(rng.Intn(hub.n)), 7})
	}
	inputs = append(inputs, loops, hub)

	for _, in := range inputs {
		for mask := 0; mask < 8; mask++ {
			b := NewBuilder(in.n)
			b.directed, b.dedup = mask&1 != 0, mask&2 != 0
			if mask&4 != 0 {
				b.WithWeights(SymmetricWeight(5))
			}
			for _, e := range in.edges {
				b.AddEdge(e.U, e.V)
			}
			want := buildOracle(b)
			// Build, which gives these lists (all under buildCut edges) one
			// worker, then two and five workers forced, however short the list.
			for run, got := range []*Graph{b.Build(), b.build(2), b.build(5)} {
				if err := got.Validate(); err != nil {
					t.Fatalf("%s mask %03b run %d: %v", in.name, mask, run, err)
				}
				if got.N != want.N || got.Directed != want.Directed || !slices.Equal(got.Offsets, want.Offsets) ||
					!slices.Equal(got.Adj, want.Adj) || !slices.Equal(got.Weights, want.Weights) || (got.Weights == nil) != (want.Weights == nil) {
					t.Fatalf("%s mask %03b (directed|dedup<<1|weights<<2) run %d (Build, 2 workers, 5): Build differs from the oracle", in.name, mask, run)
				}
			}
		}
	}
}

// TestValidateNegativeN: N = -1 with no offsets passes the length check; it
// is an error all the same, not an index into Offsets.
func TestValidateNegativeN(t *testing.T) {
	if err := (&Graph{N: -1}).Validate(); err == nil {
		t.Error("N = -1 accepted")
	}
}
