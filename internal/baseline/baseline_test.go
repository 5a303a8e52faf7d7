package baseline_test

import (
	"testing"

	"aamgo/internal/algo"
	"aamgo/internal/am"
	"aamgo/internal/baseline"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/sim"
)

func TestBSPBFSMatchesReference(t *testing.T) {
	g := graph.Kronecker(9, 8, 3)
	src := g.MaxDegreeVertex()
	ref := algo.SeqBFS(g, src)

	b := baseline.NewBSPBFS(g)
	prof := exec.HaswellC()
	m := sim.New(exec.Config{
		Nodes: 1, ThreadsPerNode: 4, MemWords: b.MemWords(),
		Profile: &prof, Seed: 2,
	})
	res := m.Run(b.Body(src))
	if err := algo.ValidateBFSTree(g, src, b.Parents(m), ref); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps == 0 {
		t.Fatal("BSP run recorded no supersteps")
	}
}

func TestBSPOverheadScalesWithDiameter(t *testing.T) {
	// Two graphs of similar size, very different diameters: the BSP
	// framework cost must hit the high-diameter one much harder — the
	// paper's explanation for HAMA's road-network runtimes (§6.1.2).
	prof := exec.HaswellC()
	run := func(g *graph.Graph) (float64, uint64) {
		b := baseline.NewBSPBFS(g)
		m := sim.New(exec.Config{
			Nodes: 1, ThreadsPerNode: 8, MemWords: b.MemWords(),
			Profile: &prof, Seed: 2,
		})
		res := m.Run(b.Body(g.MaxDegreeVertex()))
		return res.Elapsed.Seconds(), res.Stats.Supersteps / 8
	}
	lowD := graph.Kronecker(10, 8, 5) // O(log n) diameter
	highD := graph.RoadGrid(32, 32, 0, 5)
	tLow, sLow := run(lowD)
	tHigh, sHigh := run(highD)
	if sHigh <= 4*sLow {
		t.Fatalf("grid supersteps %d vs kron %d: want ≫", sHigh, sLow)
	}
	perEdgeLow := tLow / float64(lowD.NumEdges())
	perEdgeHigh := tHigh / float64(highD.NumEdges())
	if perEdgeHigh < 4*perEdgeLow {
		t.Fatalf("BSP per-edge cost: grid %.3g vs kron %.3g — diameter penalty missing",
			perEdgeHigh, perEdgeLow)
	}
}

func TestPBGLPageRankMatchesReference(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.03, 9)
	ref := algo.SeqPageRank(g, 0.85, 5)

	p := baseline.NewPBGLPageRank(g, 4, baseline.PBGLConfig{Damping: 0.85, Iterations: 5})
	prof := exec.BGQ()
	m := sim.New(exec.Config{
		Nodes: 4, ThreadsPerNode: 1, MemWords: p.MemWords(),
		Profile: &prof, Seed: 3, Handlers: p.Handlers(nil),
	})
	res := m.Run(p.Body())
	ranks := p.Ranks(m)
	for v := range ranks {
		d := ranks[v] - ref[v]
		if d < 0 {
			d = -d
		}
		if d > 1e-6 {
			t.Fatalf("vertex %d: pbgl %g vs ref %g", v, ranks[v], ref[v])
		}
	}
	if res.Stats.MsgsSent == 0 {
		t.Fatal("PBGL must exchange messages")
	}
}

func TestPBGLPaysPerEdgeMessaging(t *testing.T) {
	// No coalescing: remote contributions ≈ remote messages.
	g := graph.ErdosRenyi(256, 0.05, 13)
	p := baseline.NewPBGLPageRank(g, 4, baseline.PBGLConfig{Iterations: 2})
	prof := exec.BGQ()
	m := sim.New(exec.Config{
		Nodes: 4, ThreadsPerNode: 1, MemWords: p.MemWords(),
		Profile: &prof, Seed: 5, Handlers: p.Handlers(nil),
	})
	res := m.Run(p.Body())
	// Each iteration sends ~3/4 of contributions remotely, one message
	// each; far more messages than a coalescing runtime would send.
	if res.Stats.MsgsSent < uint64(g.NumEdges())/2 {
		t.Fatalf("PBGL sent %d messages for %d edges ×2 iterations — coalescing crept in",
			res.Stats.MsgsSent, g.NumEdges())
	}
}

func TestGaloisConfigUsesLocks(t *testing.T) {
	cfg := baseline.GaloisBFSConfig()
	g := graph.Kronecker(8, 6, 1)
	src := g.MaxDegreeVertex()
	ref := algo.SeqBFS(g, src)

	b := algo.NewBFS(g, 1, cfg)
	prof := baseline.GaloisProfile(exec.HaswellC())
	m := sim.New(exec.Config{
		Nodes: 1, ThreadsPerNode: 4, MemWords: b.MemWords(),
		Profile: &prof, Seed: 7, Handlers: b.Handlers(nil),
	})
	res := m.Run(b.Body(src))
	if err := algo.ValidateBFSTree(g, src, b.Parents(m), ref); err != nil {
		t.Fatal(err)
	}
	if res.Stats.LockAcqs == 0 {
		t.Fatal("Galois baseline must acquire locks")
	}
	if res.Stats.TxStarted != 0 {
		t.Fatal("Galois baseline must not run transactions")
	}
}

func TestRemoteAtomicsApply(t *testing.T) {
	var ra baseline.RemoteAtomics
	prof := exec.BGQ()
	m := sim.New(exec.Config{
		Nodes: 2, ThreadsPerNode: 1, MemWords: 64,
		Profile: &prof, Seed: 1, Handlers: ra.Handlers(nil),
	})
	m.Run(func(ctx exec.Context) {
		if ctx.NodeID() == 0 {
			ra.CAS(ctx, 1, 0, 0, 42)
			ra.CAS(ctx, 1, 0, 0, 99) // loses: compare fails
			for i := 0; i < 5; i++ {
				ra.ACC(ctx, 1, 1, 3)
			}
		}
		am.Drain(ctx)
	})
	if got := m.Mem(1)[0]; got != 42 {
		t.Fatalf("remote CAS result = %d, want 42", got)
	}
	if got := m.Mem(1)[1]; got != 15 {
		t.Fatalf("remote ACC result = %d, want 15", got)
	}
}
