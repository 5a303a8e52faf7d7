package algo

import (
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

func runBFS(t *testing.T, backend string, g *graph.Graph, nodes, threads, src int, cfg BFSConfig, prof exec.MachineProfile) ([]int64, exec.Result) {
	t.Helper()
	b := NewBFS(g, nodes, cfg)
	m := aam.NewMachine(b, backend, nodes, threads, &prof, 1)
	res := m.Run(b.Body(src))
	return b.Parents(m), res
}

func TestBFSAAMMatchesReference(t *testing.T) {
	g := graph.Kronecker(9, 8, 3)
	src := g.MaxDegreeVertex()
	ref := SeqBFS(g, src)
	for _, threads := range []int{1, 4} {
		cfg := BFSConfig{
			Mode:         BFSAAM,
			Engine:       aam.Config{M: 8, Mechanism: aam.MechHTM},
			VisitedCheck: true,
		}
		parents, _ := runBFS(t, run.Sim, g, 1, threads, src, cfg, exec.HaswellC())
		if err := ValidateBFSTree(g, src, parents, ref); err != nil {
			t.Fatalf("T=%d: %v", threads, err)
		}
	}
}

func TestBFSGraph500MatchesReference(t *testing.T) {
	g := graph.Kronecker(9, 8, 4)
	src := g.MaxDegreeVertex()
	ref := SeqBFS(g, src)
	cfg := BFSConfig{Mode: BFSGraph500, VisitedCheck: true}
	parents, res := runBFS(t, run.Sim, g, 1, 4, src, cfg, exec.HaswellC())
	if err := ValidateBFSTree(g, src, parents, ref); err != nil {
		t.Fatal(err)
	}
	if res.Stats.TxStarted != 0 {
		t.Fatal("baseline must not use transactions")
	}
	if res.Stats.AtomicOps == 0 {
		t.Fatal("baseline must use atomics")
	}
}

func TestBFSMechanismsMatch(t *testing.T) {
	g := graph.Kronecker(8, 6, 5)
	ref := SeqBFS(g, 1)
	for _, mech := range []aam.Mechanism{aam.MechHTM, aam.MechAtomic, aam.MechLock} {
		cfg := BFSConfig{
			Mode:         BFSAAM,
			Engine:       aam.Config{M: 4, Mechanism: mech},
			VisitedCheck: true,
		}
		parents, _ := runBFS(t, run.Sim, g, 1, 2, 1, cfg, exec.HaswellC())
		if err := ValidateBFSTree(g, 1, parents, ref); err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
	}
}

func TestBFSDistributed(t *testing.T) {
	g := graph.Kronecker(9, 6, 7)
	src := g.MaxDegreeVertex()
	ref := SeqBFS(g, src)
	for _, nodes := range []int{2, 4} {
		cfg := BFSConfig{
			Mode:         BFSAAM,
			Engine:       aam.Config{M: 8, C: 16, Mechanism: aam.MechHTM},
			VisitedCheck: true,
		}
		parents, res := runBFS(t, run.Sim, g, nodes, 2, src, cfg, exec.BGQ())
		if err := ValidateBFSTree(g, src, parents, ref); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if res.Stats.MsgsSent == 0 {
			t.Fatalf("nodes=%d: expected remote marks", nodes)
		}
	}
}

func TestBFSOnNativeBackend(t *testing.T) {
	g := graph.Kronecker(8, 6, 9)
	src := g.MaxDegreeVertex()
	ref := SeqBFS(g, src)
	cfg := BFSConfig{
		Mode:         BFSAAM,
		Engine:       aam.Config{M: 4, C: 8, Mechanism: aam.MechHTM},
		VisitedCheck: true,
	}
	parents, _ := runBFS(t, run.Native, g, 2, 2, src, cfg, exec.HaswellC())
	if err := ValidateBFSTree(g, src, parents, ref); err != nil {
		t.Fatal(err)
	}
}

func TestBFSWithoutVisitedCheck(t *testing.T) {
	g := graph.Kronecker(8, 8, 11)
	src := g.MaxDegreeVertex()
	ref := SeqBFS(g, src)
	cfg := BFSConfig{
		Mode:   BFSAAM,
		Engine: aam.Config{M: 8, Mechanism: aam.MechHTM},
	}
	parents, _ := runBFS(t, run.Sim, g, 1, 4, src, cfg, exec.HaswellC())
	if err := ValidateBFSTree(g, src, parents, ref); err != nil {
		t.Fatal(err)
	}
}

func TestBFSCoarseningBeatsFine(t *testing.T) {
	// Coarse transactions amortize begin/commit: M=16 must be faster
	// than M=1 in virtual time on the BGQ profile (Figure 4 shape).
	g := graph.Kronecker(10, 8, 13)
	elapsed := func(M int) int64 {
		cfg := BFSConfig{
			Mode:         BFSAAM,
			Engine:       aam.Config{M: M, Mechanism: aam.MechHTM},
			VisitedCheck: true,
		}
		_, res := runBFS(t, run.Sim, g, 1, 4, g.MaxDegreeVertex(), cfg, exec.BGQ())
		return int64(res.Elapsed)
	}
	if e16, e1 := elapsed(16), elapsed(1); e16 >= e1 {
		t.Fatalf("M=16 (%d) should beat M=1 (%d) on BGQ", e16, e1)
	}
}

func TestBFSLevelTimesRecorded(t *testing.T) {
	g := graph.Kronecker(8, 8, 15)
	b := NewBFS(g, 1, BFSConfig{
		Mode:         BFSAAM,
		Engine:       aam.Config{M: 8, Mechanism: aam.MechHTM},
		VisitedCheck: true,
	})
	prof := exec.BGQ()
	// Sized with MemWords(), as the benchmark module's trace sizes it.
	m := run.New(run.Sim, exec.Config{
		Nodes: 1, ThreadsPerNode: 4, MemWords: b.MemWords(),
		Profile: &prof, Seed: 1, Handlers: b.Handlers(nil),
	})
	m.Run(b.Body(g.MaxDegreeVertex()))
	if len(b.LevelTimes) < 2 {
		t.Fatalf("LevelTimes = %v, want >= 2 levels", b.LevelTimes)
	}
	for i, d := range b.LevelTimes {
		if d <= 0 {
			t.Fatalf("level %d duration %v not positive", i, d)
		}
	}
}

func TestSeqBFSBasics(t *testing.T) {
	// Path graph 0-1-2-3.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	d := SeqBFS(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for v, w := range want {
		if d[v] != w {
			t.Fatalf("dist[%d] = %d, want %d", v, d[v], w)
		}
	}
}
