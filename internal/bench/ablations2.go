package bench

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// Ablations for the extension mechanisms (§7/§8 future work): the
// alternative isolation mechanisms named in the paper's conclusion
// (optimistic locking, flat combining) and the single-vertex-transaction
// lowering pass sketched in §7.

func init() {
	register(Experiment{
		ID:    "abl-mechanisms",
		Title: "Ablation: isolation mechanisms (HTM/atomics/locks/OCC/flat combining)",
		Paper: "§4.1 compares HTM, atomics and locks; §8 names optimistic " +
			"locking and flat combining as alternative isolation mechanisms. " +
			"Coarse HTM should beat locks; all mechanisms must produce the " +
			"same BFS tree depth profile.",
		Run: runAblMechanisms,
	})
	register(Experiment{
		ID:    "abl-lower",
		Title: "Ablation: §7 lowering pass (single-vertex tx -> atomic)",
		Paper: "§7 (future work): a pass that pattern-matches single-vertex " +
			"transactions against atomics should recover atomic performance " +
			"at M=1 while leaving coarse transactions untouched.",
		Run: runAblLower,
	})
}

func runAblMechanisms(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	scale := o.shift(13, 8)
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	T := 16

	mechCfg := func(mech aam.Mechanism, m int) (cfg struct {
		name string
		run  bfsRun
	}) {
		c := aamBFSConfig(&prof, "short", m)
		c.Engine.Mechanism = mech
		if mech != aam.MechHTM {
			c.Engine.HTM = nil
		}
		cfg.name = mech.String()
		cfg.run = runBFS(prof, g, 1, T, c, src, o.Seed)
		return cfg
	}

	htm := mechCfg(aam.MechHTM, 24)
	atom := mechCfg(aam.MechAtomic, 1)
	lock := mechCfg(aam.MechLock, 24)
	occ := mechCfg(aam.MechOptimistic, 24)
	fc := mechCfg(aam.MechFlatCombining, 24)

	visited := func(parents []int64) int {
		n := 0
		for _, p := range parents {
			if p >= 0 {
				n++
			}
		}
		return n
	}
	ref := visited(htm.run.Parents)

	t := rep.NewTable("BG/Q BFS, T=16, M=24: isolation mechanism ablation",
		"mechanism", "time [ms]", "visited", "aborts/retries")
	for _, r := range []struct {
		name string
		run  bfsRun
	}{
		{htm.name, htm.run}, {atom.name, atom.run}, {lock.name, lock.run},
		{occ.name, occ.run}, {fc.name, fc.run},
	} {
		t.AddRow(r.name, fmtMS(r.run.Elapsed), itoa(visited(r.run.Parents)),
			utoa(r.run.Stats.TotalAborts()+r.run.Stats.Retries))
	}

	for _, r := range []struct {
		name string
		run  bfsRun
	}{{atom.name, atom.run}, {lock.name, lock.run}, {occ.name, occ.run}, {fc.name, fc.run}} {
		rep.Checkf(visited(r.run.Parents) == ref, "same reachable set: "+r.name,
			"%d vs %d visited", visited(r.run.Parents), ref)
	}
	rep.Checkf(htm.run.Elapsed < lock.run.Elapsed, "coarse HTM beats locks (§4.1)",
		"htm %s ms vs lock %s ms", fmtMS(htm.run.Elapsed), fmtMS(lock.run.Elapsed))
	rep.Checkf(occ.run.Stats.TxCommitted > 0, "OCC commits activities",
		"%d commits", occ.run.Stats.TxCommitted)
	rep.Checkf(fc.run.Stats.FlatCombined > 0, "combiner executes peers' batches",
		"%d operators flat-combined", fc.run.Stats.FlatCombined)
	return rep
}

// runAblLower uses the paper's Activity-1 microworkload (§5.4.1: marking a
// vertex as visited) where each operator's footprint is exactly one word —
// the shape the §7 pass targets.
func runAblLower(o Options) *Report {
	rep := &Report{}
	prof := exec.HaswellC()
	ops := 1 << o.shift(14, 10)
	T := 4

	runMark := func(mech aam.Mechanism, lower bool) (vtime.Time, stats.Total) {
		rt := aam.NewRuntime()
		op := rt.Register(&aam.Op{
			Name: "mark",
			Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
				if tx.Read(v) != 0 {
					return 0, true
				}
				tx.Write(v, arg)
				return 0, false
			},
			BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
				return 0, !ctx.CAS(v, 0, arg)
			},
		})
		words := ops + 8
		m := machine(prof, 1, T, words, rt.Handlers(nil), o.Seed)
		res := m.Run(func(ctx exec.Context) {
			eng := aam.NewEngine(rt, ctx, aam.Config{
				M: 1, Mechanism: mech, HTM: prof.HTMVariant("rtm"),
				LowerSingle: lower, Part: graph.NewPartition(words, 1),
			})
			for i := ctx.GlobalID(); i < ops; i += ctx.ThreadsPerNode() {
				eng.Spawn(op, i, 1)
			}
			eng.Drain()
		})
		return res.Elapsed, res.Stats
	}

	htmT, htmS := runMark(aam.MechHTM, false)
	lowT, lowS := runMark(aam.MechHTM, true)
	atomT, _ := runMark(aam.MechAtomic, false)

	t := rep.NewTable("Haswell mark-vertex x"+itoa(ops)+", T=4, M=1: lowering pass",
		"variant", "time [ms]", "transactions", "lowered ops")
	t.AddRow("htm M=1", fmtMS(htmT), utoa(htmS.TxStarted), "0")
	t.AddRow("htm M=1 + lower", fmtMS(lowT), utoa(lowS.TxStarted), utoa(lowS.LoweredOps))
	t.AddRow("atomics", fmtMS(atomT), "-", "-")

	rep.Checkf(lowS.LoweredOps > uint64(ops)*9/10, "pass lowers nearly all ops",
		"%d of %d lowered", lowS.LoweredOps, ops)
	rep.Checkf(lowT < htmT, "lowering beats fine transactions",
		"%s vs %s ms", fmtMS(lowT), fmtMS(htmT))
	slack := float64(lowT) / float64(atomT)
	rep.Checkf(slack < 1.25, "lowering approaches atomic performance",
		"lowered/atomic = %.2f", slack)
	return rep
}

func init() {
	register(Experiment{
		ID:    "abl-predict",
		Title: "Ablation: sampling-based M prediction vs fixed M sweep",
		Paper: "§7 (future work): the performance model combined with graph " +
			"sampling should pick M near the swept optimum without running " +
			"the sweep.",
		Run: runAblPredict,
	})
}

func runAblPredict(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	scale := o.shift(14, 8)
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	T := 16

	predicted := aam.PredictM(g, &prof, "short", T, o.Seed)
	sweep := []int{1, 8, 24, 80, 144, 320}
	times := make([]float64, len(sweep))
	t := rep.NewTable("BG/Q BFS, T=16: fixed-M sweep vs sampling prediction",
		"M", "time [ms]", "source")
	best := 0
	for i, m := range sweep {
		r := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", m), src, o.Seed)
		times[i] = float64(r.Elapsed)
		t.AddRow(itoa(m), fmtMS(r.Elapsed), "sweep")
		if times[i] < times[best] {
			best = i
		}
	}
	pr := runBFS(prof, g, 1, T, aamBFSConfig(&prof, "short", predicted), src, o.Seed)
	t.AddRow(itoa(predicted), fmtMS(pr.Elapsed), "predicted")

	slack := float64(pr.Elapsed) / times[best]
	rep.Checkf(predicted > 1, "prediction is coarse on BG/Q", "M = %d", predicted)
	rep.Checkf(slack < 1.35, "prediction near the swept optimum",
		"predicted M=%d at %.2fx of best fixed M=%d", predicted, slack, sweep[best])
	return rep
}
