package bench

import (
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Per-phase BFS time: BG/Q atomics vs coarse AAM-HTM transactions",
		Paper: "Fig. 1: on a Kronecker power-law graph (2^23 V, 2^24 E, T=64, " +
			"M=27) the first few phases dominate and AAM-HTM beats atomics there.",
		Run: runFig1,
	})
}

func runFig1(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	scale := o.shift(13, 6) // paper: 2^23 vertices
	g := graph.Kronecker(scale, 2, o.Seed)
	src := g.MaxDegreeVertex()
	T := prof.MaxThreads

	atom := runBFS(prof, g, 1, T, g500Config(), src, o.Seed)
	htm := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", 27), src, o.Seed)

	t := rep.NewTable("per-phase time [ms]", "phase", "atomics", "aam-htm")
	phases := len(atom.Levels)
	if len(htm.Levels) > phases {
		phases = len(htm.Levels)
	}
	at := func(ls []vtime.Time, i int) vtime.Time {
		if i < len(ls) {
			return ls[i]
		}
		return 0
	}
	var sumA, sumH vtime.Time
	var firstA, firstH vtime.Time
	for i := 0; i < phases; i++ {
		a, h := at(atom.Levels, i), at(htm.Levels, i)
		sumA += a
		sumH += h
		if i < 3 {
			firstA += a
			firstH += h
		}
		t.AddRow(itoa(i), fmtMS(a), fmtMS(h))
	}
	t.AddRow("total", fmtMS(sumA), fmtMS(sumH))

	rep.Notef("graph: 2^%d vertices, %d edges, d̄=%.1f; source=max-degree vertex",
		scale, g.NumEdges(), g.AvgDegree())
	rep.Notef("AAM aborts: %d (%.1f%% of %d transactions)",
		htm.Stats.TotalAborts(),
		100*float64(htm.Stats.TotalAborts())/float64(max(htm.Stats.TxStarted, 1)),
		htm.Stats.TxStarted)

	// Shape: the bulk of the work is in the early phases of a power-law
	// graph, and AAM wins overall and on the heavy phases.
	rep.Checkf(phases >= 4 && firstA > sumA/2,
		"power-law phase skew", "first 3 of %d atomics phases carry %.0f%% of the time",
		phases, 100*float64(firstA)/float64(max(int64(sumA), 1)))
	rep.Checkf(sumH < sumA, "aam beats atomics",
		"total %s vs %s ms (speedup %.2f)", fmtMS(sumH), fmtMS(sumA), speedupF(sumA, sumH))
	rep.Checkf(firstH < firstA, "aam wins heavy phases",
		"first-3-phase time %s vs %s ms", fmtMS(firstH), fmtMS(firstA))
	return rep
}
