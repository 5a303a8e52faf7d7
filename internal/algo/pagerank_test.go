package algo

import (
	"math"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

func runPR(t *testing.T, backend string, g *graph.Graph, nodes, threads int, cfg PRConfig, prof exec.MachineProfile) ([]float64, exec.Result) {
	t.Helper()
	p := NewPageRank(g, nodes, cfg)
	m := aam.NewMachine(p, backend, nodes, threads, &prof, 2)
	res := m.Run(p.Body())
	return p.Ranks(m), res
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

func TestPageRankMatchesReference(t *testing.T) {
	g := graph.Kronecker(8, 8, 17)
	ref := SeqPageRank(g, 0.85, 6)
	for _, mech := range []aam.Mechanism{aam.MechHTM, aam.MechAtomic} {
		cfg := PRConfig{
			Damping: 0.85, Iterations: 6,
			Engine: aam.Config{M: 8, Mechanism: mech},
		}
		ranks, _ := runPR(t, run.Sim, g, 1, 4, cfg, exec.HaswellC())
		if d := maxAbsDiff(ranks, ref); d > 1e-6 {
			t.Fatalf("%v: max diff vs reference = %g", mech, d)
		}
	}
}

func TestPageRankDistributed(t *testing.T) {
	g := graph.ErdosRenyi(600, 0.02, 23)
	ref := SeqPageRank(g, 0.85, 5)
	cfg := PRConfig{
		Damping: 0.85, Iterations: 5,
		Engine: aam.Config{M: 8, C: 32, Mechanism: aam.MechHTM},
	}
	ranks, res := runPR(t, run.Sim, g, 4, 2, cfg, exec.BGQ())
	if d := maxAbsDiff(ranks, ref); d > 1e-6 {
		t.Fatalf("max diff vs reference = %g", d)
	}
	if res.Stats.MsgsSent == 0 {
		t.Fatal("distributed PR must exchange messages")
	}
	// Coalescing: far fewer messages than remote operator invocations.
	if res.Stats.OpsCoalesced > 0 && res.Stats.MsgsSent*8 > res.Stats.OpsCoalesced {
		t.Fatalf("coalescing ineffective: %d msgs for %d remote ops",
			res.Stats.MsgsSent, res.Stats.OpsCoalesced)
	}
}

func TestPageRankOnNative(t *testing.T) {
	g := graph.Kronecker(7, 6, 29)
	ref := SeqPageRank(g, 0.85, 4)
	cfg := PRConfig{
		Damping: 0.85, Iterations: 4,
		Engine: aam.Config{M: 4, C: 8, Mechanism: aam.MechHTM},
	}
	ranks, _ := runPR(t, run.Native, g, 2, 2, cfg, exec.HaswellC())
	if d := maxAbsDiff(ranks, ref); d > 1e-6 {
		t.Fatalf("max diff vs reference = %g", d)
	}
}

func TestPageRankRanksPositiveAndBounded(t *testing.T) {
	g := graph.BarabasiAlbert(500, 3, 31)
	cfg := PRConfig{Engine: aam.Config{M: 8, Mechanism: aam.MechHTM}}
	ranks, _ := runPR(t, run.Sim, g, 1, 2, cfg, exec.HaswellC())
	sum := 0.0
	for v, r := range ranks {
		if r < 0 || r > 1 {
			t.Fatalf("rank[%d] = %g out of [0,1]", v, r)
		}
		sum += r
	}
	if sum < 0.5 || sum > 1.1 {
		t.Fatalf("rank mass = %g, want ≈ 1", sum)
	}
}

func TestSeqPageRankUniformOnRegularGraph(t *testing.T) {
	// On a cycle every vertex must have rank 1/n.
	n := 40
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	g := b.Build()
	r := SeqPageRank(g, 0.85, 30)
	for v := range r {
		if math.Abs(r[v]-1.0/float64(n)) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, r[v], 1.0/float64(n))
		}
	}
}
