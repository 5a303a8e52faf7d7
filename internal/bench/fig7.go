package bench

import (
	"fmt"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/baseline"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
	"aamgo/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig7a-scaling-bgq",
		Title: "BFS strong scaling on BG/Q: AAM vs Graph500 across T",
		Paper: "Fig. 7a: AAM uses on-node parallelism better; Graph500's " +
			"atomics contention dominates at high T.",
		Run: func(o Options) *Report { return runFig7Scaling(o, exec.BGQ(), "short", 144, false) },
	})
	register(Experiment{
		ID:    "fig7b-scaling-haswell",
		Title: "BFS strong scaling on Haswell: AAM vs Graph500 vs Galois vs HAMA",
		Paper: "Fig. 7b: AAM and Graph500 scale similarly and beat Galois by " +
			"≈20–50% and HAMA by ~2 orders of magnitude.",
		Run: func(o Options) *Report { return runFig7Scaling(o, exec.HaswellC(), "rtm", 2, true) },
	})
	register(Experiment{
		ID:    "fig7c-pr-nodes",
		Title: "Distributed PageRank: AAM vs PBGL across nodes",
		Paper: "Fig. 7c: AAM outperforms PBGL ≈3–10x (coalescing + on-node " +
			"threading) at every node count.",
		Run: runFig7c,
	})
	register(Experiment{
		ID:    "fig7d-pr-threads",
		Title: "Distributed PageRank: AAM vs PBGL across threads/processes per node",
		Paper: "Fig. 7d: the gap persists as per-node parallelism grows; " +
			"PBGL pays the network stack even intra-node.",
		Run: runFig7d,
	})
	register(Experiment{
		ID:    "fig7e-pr-verts",
		Title: "Distributed PageRank: AAM vs PBGL across vertices per node",
		Paper: "Fig. 7e: the gap holds across problem sizes.",
		Run:   runFig7e,
	})
}

func runFig7Scaling(o Options, prof exec.MachineProfile, variant string, M int, baselines bool) *Report {
	rep := &Report{}
	scale := o.shift(14, 8) // paper: 2^21 vertices, 2^24 edges
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	cols := []string{"T", "graph500", "aam", "speedup"}
	if baselines {
		cols = append(cols, "galois", "hama")
	}
	t := rep.NewTable(prof.Name+" BFS time [ms] vs T", cols...)

	galProf := baseline.GaloisProfile(prof)
	var aamTimes, g5Times []float64
	var galRatio, hamaRatio float64
	for _, T := range threadsFor(prof, []int{1, 2, 4, 8, 16, 32, 64}) {
		atom := runBFS(prof, g, 1, T, g500Config(), src, o.Seed)
		aamR := runBFS(prof, g, 1, T, aamBFSConfig(&prof, variant, M), src, o.Seed)
		row := []string{itoa(T), fmtMS(atom.Elapsed), fmtMS(aamR.Elapsed),
			speedup(atom.Elapsed, aamR.Elapsed)}
		if baselines {
			gal := runBFS(galProf, g, 1, T, baseline.GaloisBFSConfig(), src, o.Seed)
			hama := runHAMA(o, prof, g, src)
			row = append(row, fmtMS(gal.Elapsed), fmtMS(hama))
			galRatio = speedupF(gal.Elapsed, aamR.Elapsed)
			hamaRatio = speedupF(hama, aamR.Elapsed)
		}
		t.AddRow(row...)
		g5Times = append(g5Times, atom.Elapsed.Millis())
		aamTimes = append(aamTimes, aamR.Elapsed.Millis())
	}

	last := len(aamTimes) - 1
	rep.Checkf(aamTimes[last] < aamTimes[0], "aam scales",
		"T=max %.3f ms vs T=1 %.3f ms (%.1fx)", aamTimes[last], aamTimes[0],
		aamTimes[0]/aamTimes[last])
	if prof.Name == "bgq" {
		rep.Checkf(aamTimes[last] < g5Times[last], "aam wins at full parallelism",
			"aam %.3f ms vs graph500 %.3f ms", aamTimes[last], g5Times[last])
	}
	if baselines {
		rep.Checkf(galRatio > 1.1, "aam beats galois",
			"final-T speedup %.2f (paper: ≈1.2–1.5)", galRatio)
		rep.Checkf(hamaRatio > 20, "aam crushes hama",
			"final-T speedup %.0f (paper: ~2 orders of magnitude)", hamaRatio)
	}
	return rep
}

// runAAMPR times the AAM distributed PageRank.
func runAAMPR(o Options, prof exec.MachineProfile, g *graph.Graph, nodes, T, coalesce int) vtime.Time {
	pr := algo.NewPageRank(g, nodes, algo.PRConfig{
		Iterations: 5,
		Engine: aam.Config{
			M:         8,
			C:         coalesce,
			Mechanism: aam.MechHTM,
			HTM:       prof.HTMVariant("short"),
		},
	})
	m := aam.NewMachine(pr, run.Sim, nodes, T, &prof, o.Seed)
	res := m.Run(pr.Body())
	return res.Elapsed
}

// runPBGLPR times the PBGL baseline with procs single-threaded processes
// per machine node (modeled as procs*nodes machine nodes).
func runPBGLPR(o Options, prof exec.MachineProfile, g *graph.Graph, nodes, procs int) vtime.Time {
	p := baseline.NewPBGLPageRank(g, nodes*procs, baseline.PBGLConfig{Iterations: 5})
	m := machine(prof, nodes*procs, 1, p.MemWords(), p.Handlers(nil), o.Seed)
	res := m.Run(p.Body())
	return res.Elapsed
}

func runFig7c(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	n := 1 << o.shift(12, 8) // paper: up to 2^23 vertices, ER=0.0005
	p := 16.0 / float64(n)   // keep d̄≈16 as the reduced-scale equivalent
	g := graph.ErdosRenyi(n, p, o.Seed)
	maxN := 16
	if o.Scale >= 3 {
		maxN = 128
	}
	t := rep.NewTable("PageRank time [s] vs nodes (ER graph)",
		"N", "pbgl-1p", "pbgl-4p", "aam-1t", "aam-4t")
	worst := 1e18
	for _, N := range geomSeq(2, maxN) {
		p1 := runPBGLPR(o, prof, g, N, 1)
		p4 := runPBGLPR(o, prof, g, N, 4)
		a1 := runAAMPR(o, prof, g, N, 1, 256)
		a4 := runAAMPR(o, prof, g, N, 4, 256)
		t.AddRow(itoa(N), fmtS(p1), fmtS(p4), fmtS(a1), fmtS(a4))
		if s := speedupF(p4, a4); s < worst {
			worst = s
		}
	}
	rep.Checkf(worst > 1.5, "aam always ahead of pbgl",
		"min 4-way speedup %.2f (paper: ≈3–10x)", worst)
	return rep
}

func runFig7d(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	n := 1 << o.shift(12, 8)
	g := graph.ErdosRenyi(n, 16.0/float64(n), o.Seed)
	nodeCounts := []int{4, 16}
	if o.Scale >= 3 {
		nodeCounts = []int{16, 128}
	}
	t := rep.NewTable("PageRank time [s] vs threads/processes per node",
		"T", fmt.Sprintf("pbgl-N%d", nodeCounts[0]), fmt.Sprintf("aam-N%d", nodeCounts[0]),
		fmt.Sprintf("pbgl-N%d", nodeCounts[1]), fmt.Sprintf("aam-N%d", nodeCounts[1]))
	wins, points := 0, 0
	worst := 1e18
	for _, T := range []int{1, 2, 4, 8} {
		row := []string{itoa(T)}
		for _, N := range nodeCounts {
			pb := runPBGLPR(o, prof, g, N, T)
			aa := runAAMPR(o, prof, g, N, T, 256)
			row = append(row, fmtS(pb), fmtS(aa))
			points++
			if aa < pb {
				wins++
			}
			if s := speedupF(pb, aa); s < worst {
				worst = s
			}
		}
		t.AddRow(row...)
	}
	rep.Checkf(wins >= points-1 && worst > 0.9, "aam wins across T",
		"%d/%d points favor AAM, worst ratio %.2f (paper: ≈3–10x everywhere)",
		wins, points, worst)
	return rep
}

func runFig7e(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	N := 8
	t := rep.NewTable("PageRank time [s] vs vertices per node (ER=denser)",
		"|Vi|", "pbgl-1p", "pbgl-4p", "aam-1t", "aam-4t")
	ok := true
	for _, vi := range []int{1 << o.shift(7, 5), 1 << o.shift(9, 6), 1 << o.shift(11, 7)} {
		n := vi * N
		g := graph.ErdosRenyi(n, 32.0/float64(n), o.Seed)
		p1 := runPBGLPR(o, prof, g, N, 1)
		p4 := runPBGLPR(o, prof, g, N, 4)
		a1 := runAAMPR(o, prof, g, N, 1, 256)
		a4 := runAAMPR(o, prof, g, N, 4, 256)
		t.AddRow(itoa(vi), fmtS(p1), fmtS(p4), fmtS(a1), fmtS(a4))
		if a1 >= p1 || a4 >= p4 {
			ok = false
		}
	}
	rep.Checkf(ok, "gap holds across sizes", "AAM ahead at every |Vi|")
	return rep
}
