package bench

import (
	"fmt"

	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

func init() {
	register(Experiment{
		ID:    "fig6a-bgq",
		Title: "BFS on Kronecker graphs, BG/Q: AAM vs Graph500 across |V| and d̄",
		Paper: "Fig. 6a: AAM-BGQ (M=144, short mode) outperforms Graph500 " +
			"atomics by up to ~2x; the gain shrinks as d̄ grows (more " +
			"conflicting transactions).",
		Run: func(o Options) *Report {
			// d̄ < 4 is dropped at reduced scale: those graphs shrink to a
			// few thousand edges where phase overheads dominate both codes.
			return runFig6(o, exec.BGQ(), "short", 144, []int{4, 8, 16, 32, 64})
		},
	})
	register(Experiment{
		ID:    "fig6b-haswell",
		Title: "BFS on Kronecker graphs, Haswell: AAM vs Graph500 across |V| and d̄",
		Paper: "Fig. 6b: AAM-Haswell (M=2, RTM) outperforms Graph500 by " +
			"~3–27% consistently across d̄ (small transactions conflict " +
			"rarely).",
		Run: func(o Options) *Report {
			// The paper's Haswell optimum is M=2; this model's optimum
			// sits near 8 at reduced scale (see fig4-hasc), so the sweep
			// uses the model's optimum for the same experiment.
			return runFig6(o, exec.HaswellC(), "rtm", 8, []int{4, 8, 16, 32, 64})
		},
	})
}

func runFig6(o Options, prof exec.MachineProfile, variant string, M int, degs []int) *Report {
	rep := &Report{}
	T := prof.MaxThreads
	scales := []int{o.shift(12, 6), o.shift(13, 7), o.shift(14, 8)} // paper: 2^21, 2^23, 2^25
	edgeCap := int64(1) << o.shift(19, 13)

	var speedups, denseSpeedups []float64
	for _, scale := range scales {
		t := rep.NewTable(fmt.Sprintf("|V|=2^%d: time [ms] and speedup vs d̄", scale),
			"d̄", "graph500", "aam", "speedup")
		for _, d := range degs {
			if int64(d)<<scale > edgeCap {
				break
			}
			g := graph.Kronecker(scale, d, o.Seed+int64(d))
			src := g.MaxDegreeVertex()
			atom := runBFS(prof, g, 1, T, g500Config(), src, o.Seed)
			aamR := runBFS(prof, g, 1, T, aamBFSConfig(&prof, variant, M), src, o.Seed)
			s := speedupF(atom.Elapsed, aamR.Elapsed)
			speedups = append(speedups, s)
			if d >= 16 {
				denseSpeedups = append(denseSpeedups, s)
			}
			t.AddRow(itoa(d), fmtMS(atom.Elapsed), fmtMS(aamR.Elapsed), ftoa(s))
		}
	}

	wins := 0
	best := 0.0
	for _, s := range speedups {
		if s > 1.0 {
			wins++
		}
		if s > best {
			best = s
		}
	}
	denseWins := 0
	for _, s := range denseSpeedups {
		if s > 1.0 {
			denseWins++
		}
	}
	rep.Notef("%s: %d/%d configurations favor AAM; best speedup %.2f",
		prof.Name, wins, len(speedups), best)
	rep.Notef("reduced-scale artifact: at small |V| the low-d̄ graphs have so " +
		"few edges that per-level synchronization dominates both codes, so " +
		"the d̄-trend inverts relative to the paper (EXPERIMENTS.md).")
	rep.Checkf(denseWins == len(denseSpeedups), prof.Name+" AAM wins at d̄≥16",
		"%d of %d dense points above 1.0", denseWins, len(denseSpeedups))
	if prof.Name == "bgq" {
		rep.Checkf(best > 1.3, "bgq headline speedup",
			"best %.2f (paper: up to 2.02)", best)
	} else {
		rep.Checkf(best > 1.05, "haswell speedup",
			"best %.2f (paper: up to 1.27)", best)
	}
	return rep
}
