package algo

import (
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

// buildFlowGraph builds a small weighted graph from explicit edges.
func buildFlowGraph(n int, edges [][3]int) *graph.Graph {
	caps := map[[2]int32]uint32{}
	for _, e := range edges {
		u, v := int32(e[0]), int32(e[1])
		if u > v {
			u, v = v, u
		}
		caps[[2]int32{u, v}] = uint32(e[2])
	}
	b := graph.NewBuilder(n).WithWeights(func(u, v int32) uint32 {
		if u > v {
			u, v = v, u
		}
		return caps[[2]int32{u, v}]
	})
	for _, e := range edges {
		b.AddEdge(int32(e[0]), int32(e[1]))
	}
	return b.Build()
}

func runMaxFlow(t *testing.T, g *graph.Graph, s, dst, threads int, cfg aam.Config) uint64 {
	t.Helper()
	f := NewMaxFlow(g)
	prof := exec.BGQ()
	m := aam.NewMachine(f, run.Sim, 1, threads, &prof, 3)
	m.Run(f.Body(s, dst, cfg))
	return f.Value(m)
}

func TestMaxFlowKnownNetwork(t *testing.T) {
	// The classic CLRS-style example (undirected capacities): a diamond
	// with a cross edge. Max flow 0->3 is limited by the cut {0}.
	g := buildFlowGraph(4, [][3]int{
		{0, 1, 10}, {0, 2, 5}, {1, 3, 7}, {2, 3, 9}, {1, 2, 3},
	})
	want := SeqMaxFlow(g, 0, 3)
	if want != 15 { // cut at source: 10+5
		t.Fatalf("reference flow = %d, want 15", want)
	}
	got := runMaxFlow(t, g, 0, 3, 4, aam.Config{M: 4, Mechanism: aam.MechHTM})
	if got != want {
		t.Fatalf("AAM flow = %d, reference %d", got, want)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// A path with a narrow middle edge: flow equals the bottleneck.
	g := buildFlowGraph(4, [][3]int{{0, 1, 100}, {1, 2, 1}, {2, 3, 100}})
	if got := SeqMaxFlow(g, 0, 3); got != 1 {
		t.Fatalf("reference path flow = %d, want 1", got)
	}
	if got := runMaxFlow(t, g, 0, 3, 2, aam.Config{M: 2, Mechanism: aam.MechHTM}); got != 1 {
		t.Fatalf("AAM path flow = %d, want 1", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := buildFlowGraph(4, [][3]int{{0, 1, 5}, {2, 3, 5}})
	if got := runMaxFlow(t, g, 0, 3, 2, aam.Config{M: 2, Mechanism: aam.MechHTM}); got != 0 {
		t.Fatalf("flow across components = %d, want 0", got)
	}
}

func TestMaxFlowMatchesReferenceOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := weightedGraph(seed)
		s, dst := 0, g.N-1
		want := SeqMaxFlow(g, s, dst)
		got := runMaxFlow(t, g, s, dst, 8, aam.Config{M: 8, Mechanism: aam.MechHTM})
		if got != want {
			t.Fatalf("seed %d: AAM flow %d, reference %d", seed, got, want)
		}
	}
}

func TestMaxFlowAcrossMechanisms(t *testing.T) {
	g := weightedGraph(9)
	s, dst := 0, g.N-1
	want := SeqMaxFlow(g, s, dst)
	for _, mech := range []aam.Mechanism{
		aam.MechHTM, aam.MechAtomic, aam.MechLock,
		aam.MechOptimistic, aam.MechFlatCombining,
	} {
		got := runMaxFlow(t, g, s, dst, 4, aam.Config{M: 4, Mechanism: mech})
		if got != want {
			t.Fatalf("%v: flow %d, reference %d", mech, got, want)
		}
	}
}

func TestMaxFlowSymmetry(t *testing.T) {
	// Undirected capacities: flow s->t equals flow t->s.
	g := weightedGraph(6)
	a := SeqMaxFlow(g, 0, g.N-1)
	b := SeqMaxFlow(g, g.N-1, 0)
	if a != b {
		t.Fatalf("asymmetric undirected flow: %d vs %d", a, b)
	}
}
