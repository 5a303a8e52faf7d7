package bench

import (
	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

func init() {
	register(Experiment{
		ID:    "abl-coarsen",
		Title: "Ablation: coarsening on/off at fixed mechanism",
		Paper: "§4.2/§5.5: coarsening is the lever that makes HTM " +
			"competitive — fine (M=1) transactions lose to atomics, coarse " +
			"ones win.",
		Run: runAblCoarsen,
	})
	register(Experiment{
		ID:    "abl-coalesce",
		Title: "Ablation: coalescing on/off for remote activities",
		Paper: "§4.2/§5.6: without coalescing, per-message α dominates " +
			"inter-node activities.",
		Run: runAblCoalesce,
	})
	register(Experiment{
		ID:    "abl-visited-check",
		Title: "Ablation: the check-before-spawn optimization",
		Paper: "§4.2: skipping already-visited vertices before spawning the " +
			"operator reduces synchronization; Graph500 applies the same " +
			"trick before its atomics.",
		Run: runAblVisited,
	})
	register(Experiment{
		ID:    "abl-mselect",
		Title: "Ablation: online M selection vs fixed M",
		Paper: "§7 (future work): a throughput hill-climb should approach " +
			"the best fixed M without knowing it, and beat a bad fixed M.",
		Run: runAblMSelect,
	})
}

func runAblCoarsen(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	scale := o.shift(14, 8)
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	T := prof.MaxThreads

	atom := runBFS(prof, g, 1, T, g500Config(), src, o.Seed)
	fine := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", 1), src, o.Seed)
	coarse := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", 144), src, o.Seed)

	t := rep.NewTable("BG/Q BFS, T=64: coarsening ablation",
		"variant", "time [ms]", "transactions", "aborts")
	t.AddRow("atomics", fmtMS(atom.Elapsed), "-", "-")
	t.AddRow("htm M=1", fmtMS(fine.Elapsed), utoa(fine.Stats.TxStarted), utoa(fine.Stats.TotalAborts()))
	t.AddRow("htm M=144", fmtMS(coarse.Elapsed), utoa(coarse.Stats.TxStarted), utoa(coarse.Stats.TotalAborts()))

	rep.Checkf(fine.Elapsed > atom.Elapsed, "fine tx lose to atomics",
		"M=1 %s ms vs atomics %s ms", fmtMS(fine.Elapsed), fmtMS(atom.Elapsed))
	rep.Checkf(coarse.Elapsed < fine.Elapsed, "coarsening pays",
		"M=144 %s ms vs M=1 %s ms (%.1fx)", fmtMS(coarse.Elapsed), fmtMS(fine.Elapsed),
		speedupF(fine.Elapsed, coarse.Elapsed))
	rep.Checkf(coarse.Elapsed < atom.Elapsed, "coarse tx beat atomics",
		"M=144 %s ms vs atomics %s ms", fmtMS(coarse.Elapsed), fmtMS(atom.Elapsed))
	return rep
}

func runAblCoalesce(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	ops := 1 << o.shift(10, 7)

	on, _ := runRemoteAAM(o, prof, 4, ops, "short", 512, true)
	off, _ := runRemoteAAM(o, prof, 4, ops, "short", 1, true)

	t := rep.NewTable("remote increments, 4 nodes: coalescing ablation",
		"variant", "time [ms]")
	t.AddRow("C=1 (off)", fmtMS(off))
	t.AddRow("C=512 (on)", fmtMS(on))
	rep.Checkf(on < off/2, "coalescing >2x",
		"off %s ms vs on %s ms (%.1fx)", fmtMS(off), fmtMS(on), speedupF(off, on))
	return rep
}

func runAblVisited(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	scale := o.shift(14, 8)
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	T := prof.MaxThreads

	cfgOn := aamBFSConfig(&prof, "short", 144)
	cfgOff := cfgOn
	cfgOff.VisitedCheck = false
	on := runBFS(prof, g, 1, T, cfgOn, src, o.Seed)
	off := runBFS(prof, g, 1, T, cfgOff, src, o.Seed)

	t := rep.NewTable("BG/Q AAM BFS: visited-check ablation",
		"variant", "time [ms]", "operators executed")
	t.AddRow("check on", fmtMS(on.Elapsed), utoa(on.Stats.OpsExecuted))
	t.AddRow("check off", fmtMS(off.Elapsed), utoa(off.Stats.OpsExecuted))
	rep.Checkf(on.Stats.OpsExecuted < off.Stats.OpsExecuted, "check prunes operators",
		"%d vs %d operators", on.Stats.OpsExecuted, off.Stats.OpsExecuted)
	rep.Checkf(on.Elapsed < off.Elapsed, "check saves time",
		"%s vs %s ms", fmtMS(on.Elapsed), fmtMS(off.Elapsed))
	return rep
}

func runAblMSelect(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	scale := o.shift(14, 8)
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	T := prof.MaxThreads

	fixedGood := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", 144), src, o.Seed)
	fixedBad := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", 1), src, o.Seed)

	autoCfg := algo.BFSConfig{
		Mode: algo.BFSAAM,
		Engine: aam.Config{
			M:         8, // deliberately poor starting point
			Mechanism: aam.MechHTM,
			HTM:       prof.HTMVariant("short"),
			AutoM:     true,
		},
		VisitedCheck: true,
	}
	auto := runBFS(prof, g, 1, T, autoCfg, src, o.Seed)

	t := rep.NewTable("BG/Q AAM BFS: online M selection",
		"variant", "time [ms]")
	t.AddRow("fixed M=144 (oracle)", fmtMS(fixedGood.Elapsed))
	t.AddRow("fixed M=1 (bad)", fmtMS(fixedBad.Elapsed))
	t.AddRow("auto (start M=8)", fmtMS(auto.Elapsed))

	rep.Checkf(auto.Elapsed < fixedBad.Elapsed, "auto beats bad fixed M",
		"auto %s ms vs M=1 %s ms", fmtMS(auto.Elapsed), fmtMS(fixedBad.Elapsed))
	slack := float64(auto.Elapsed) / float64(fixedGood.Elapsed)
	rep.Checkf(slack < 1.6, "auto near the oracle",
		"auto/oracle = %.2f (hill climb pays search overhead)", slack)
	return rep
}
