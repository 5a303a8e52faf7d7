package bench

import (
	"fmt"

	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig4-bgq",
		Title: "Graph500 BFS with coarse transactions on BG/Q: runtime & events vs M",
		Paper: "Fig. 4a–d: runtime first drops with M (amortized begin/commit) " +
			"then rises (serializations); HTM-S beats atomic CAS beyond M≈32 " +
			"at high T (speedup 1.11 at T=16, 1.49 at T=64); HTM-L never wins.",
		Run: func(o Options) *Report { return runFig4(o, exec.BGQ(), "short", "long", []int{1, 16, 64}) },
	})
	register(Experiment{
		ID:    "fig4-hasc",
		Title: "Graph500 BFS with coarse transactions on Has-C: runtime & events vs M",
		Paper: "Fig. 4e–h: performance decreases with M (8-way L1 capacity); " +
			"M_min=2; buffer overflows dominate aborts for large M.",
		Run: func(o Options) *Report { return runFig4(o, exec.HaswellC(), "rtm", "hle", []int{1, 4, 8}) },
	})
	register(Experiment{
		ID:    "fig4-hasp",
		Title: "Graph500 BFS with coarse transactions on Has-P: runtime & events vs M",
		Paper: "Fig. 4i–l: similar to Has-C but with far fewer buffer " +
			"overflows; conflicts dominate; no speedup over atomics.",
		Run: func(o Options) *Report { return runFig4(o, exec.HaswellP(), "rtm", "hle", []int{1, 12, 24}) },
	})
	register(Experiment{
		ID:    "fig5ab",
		Title: "Abort-reason mix vs T at M=2: Has-C vs Has-P",
		Paper: "Fig. 5a–b: with growing T, Has-C aborts become dominated by " +
			"buffer overflows while Has-P stays conflict-dominated (bigger L1 " +
			"budget).",
		Run: runFig5ab,
	})
}

// fig4Ms returns the transaction-size sweep. The paper uses 1..320 step 16
// plus a fine 1..16 sweep on Haswell; reduced runs thin the grid.
func fig4Ms(o Options) []int {
	if o.Scale >= 3 {
		ms := []int{1, 2, 4, 8, 16}
		for m := 32; m <= 320; m += 16 {
			ms = append(ms, m)
		}
		return ms
	}
	return []int{1, 2, 4, 8, 16, 32, 48, 80, 112, 144, 176, 240, 320}
}

func runFig4(o Options, prof exec.MachineProfile, fastVariant, slowVariant string, Ts []int) *Report {
	rep := &Report{}
	// The vertex array must span more cache lines per L1 set than the
	// associativity, or overflow aborts cannot arise at all; 2^13 words
	// give 16 lines per 64-set 8-way L1.
	scale := o.shift(14, 9) // paper: |V|=2^20, |E|=2^24
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()
	ms := fig4Ms(o)

	rep.Notef("graph: 2^%d vertices, %d edges; machine %s; variants %s/%s",
		scale, g.NumEdges(), prof.Name, fastVariant, slowVariant)

	for _, T := range threadsFor(prof, Ts) {
		atom := runBFS(prof, g, 1, T, g500Config(), src, o.Seed)
		t := rep.NewTable(fmt.Sprintf("T=%d runtime [ms] (atomic CAS baseline: %s)", T, fmtMS(atom.Elapsed)),
			"M", fastVariant, slowVariant, fastVariant+"-txs", fastVariant+"-aborts",
			fastVariant+"-capacity", fastVariant+"-serialized")

		var fastTimes []float64
		for _, M := range ms {
			fast := runBFS(prof, g, 1, T, aamBFSConfig(&prof, fastVariant, M), src, o.Seed)
			slow := runBFS(prof, g, 1, T, aamBFSConfig(&prof, slowVariant, M), src, o.Seed)
			fastTimes = append(fastTimes, fast.Elapsed.Millis())
			t.AddRow(itoa(M), fmtMS(fast.Elapsed), fmtMS(slow.Elapsed),
				utoa(fast.Stats.TxStarted), utoa(fast.Stats.TotalAborts()),
				utoa(fast.Stats.Aborts[stats.AbortCapacity]), utoa(fast.Stats.TxSerialized))
		}

		mMinIdx := minIdx(fastTimes)
		mMin := ms[mMinIdx]
		best := fastTimes[mMinIdx]
		s := atom.Elapsed.Millis() / best
		rep.Notef("T=%d: %s M_min=%d, best %.3f ms, speedup over atomics %.2f",
			T, fastVariant, mMin, best, s)

		switch {
		case prof.Name == "bgq" && T == 1:
			// Single thread: transactions never beat plain atomics but
			// coarsening lowers their cost.
			rep.Checkf(fastTimes[0] > atom.Elapsed.Millis(),
				"bgq T=1 fine tx slower than atomics",
				"M=1 %.3f ms vs atomics %.3f ms", fastTimes[0], atom.Elapsed.Millis())
			rep.Checkf(best < fastTimes[0], "bgq T=1 coarsening amortizes",
				"best %.3f ms at M=%d vs %.3f ms at M=1", best, mMin, fastTimes[0])
		case prof.Name == "bgq":
			rep.Checkf(s > 1.0, fmt.Sprintf("bgq T=%d htm-s beats atomics", T),
				"speedup %.2f at M_min=%d (paper: 1.11 at T=16, 1.49 at T=64)", s, mMin)
			rep.Checkf(mMin >= 16, fmt.Sprintf("bgq T=%d optimum is coarse", T),
				"M_min=%d (paper: 80–144)", mMin)
		case prof.Name == "has-c" && T > 1:
			rep.Checkf(mMin < 320, fmt.Sprintf("has-c T=%d optimum below the sweep end", T),
				"M_min=%d (paper: 2; the reduced-scale optimum sits right of "+
					"the paper's because overheads amortize against a smaller "+
					"conflict surface)", mMin)
			if o.Scale >= 3 {
				// The runtime penalty of overflow-dominated big-M points
				// only becomes visible at near-paper transaction counts.
				rep.Checkf(fastTimes[len(fastTimes)-1] > best*1.1,
					fmt.Sprintf("has-c T=%d declines past optimum", T),
					"M=320 %.3f ms vs best %.3f ms", fastTimes[len(fastTimes)-1], best)
			}
		case prof.Name == "has-p" && T > 1:
			rep.Checkf(s <= 1.15, fmt.Sprintf("has-p T=%d no real win", T),
				"speedup %.2f (paper: none)", s)
		}
	}

	// Events panel (Fig. 4d/h/l): transactions vs aborts vs overflows at
	// the highest thread count.
	T := threadsFor(prof, Ts)[len(threadsFor(prof, Ts))-1]
	ev := rep.NewTable(fmt.Sprintf("events at T=%d (fig 4d/h/l)", T),
		"M", "transactions", "aborts", "buffer-overflows", "serialized")
	var overflowDominated int
	for _, M := range ms {
		fast := runBFS(prof, g, 1, T, aamBFSConfig(&prof, fastVariant, M), src, o.Seed)
		ev.AddRow(itoa(M), utoa(fast.Stats.TxStarted), utoa(fast.Stats.TotalAborts()),
			utoa(fast.Stats.Aborts[stats.AbortCapacity]), utoa(fast.Stats.TxSerialized))
		if M > 64 && fast.Stats.OverflowShare() > 0.5 {
			overflowDominated++
		}
	}
	if prof.Name == "has-c" {
		rep.Checkf(overflowDominated > 0, "has-c overflow-dominated aborts",
			"%d sweep points with M>64 have >50%% capacity aborts (paper: >90%%)",
			overflowDominated)
	}
	return rep
}

func runFig5ab(o Options) *Report {
	rep := &Report{}
	scale := o.shift(12, 6)
	g := graph.Kronecker(scale, 8, o.Seed)
	src := g.MaxDegreeVertex()

	type side struct {
		prof exec.MachineProfile
		Ts   []int
	}
	sides := []side{
		{exec.HaswellC(), []int{2, 4, 6, 8}},
		{exec.HaswellP(), []int{2, 4, 8, 16, 24}},
	}
	shares := map[string][]float64{}
	for _, s := range sides {
		t := rep.NewTable(s.prof.Name+" abort mix at M=2 (%)",
			"T", "conflicts", "buffer-overflows", "other", "total-aborts")
		for _, T := range s.Ts {
			r := runBFS(s.prof, g, 1, T, aamBFSConfig(&s.prof, "rtm", 2), src, o.Seed)
			tot := r.Stats.TotalAborts()
			if tot == 0 {
				t.AddRow(itoa(T), "0", "0", "0", "0")
				continue
			}
			pct := func(n uint64) string { return fmt.Sprintf("%.1f", 100*float64(n)/float64(tot)) }
			t.AddRow(itoa(T),
				pct(r.Stats.Aborts[stats.AbortConflict]),
				pct(r.Stats.Aborts[stats.AbortCapacity]),
				pct(r.Stats.Aborts[stats.AbortOther]),
				utoa(tot))
			shares[s.prof.Name] = append(shares[s.prof.Name],
				float64(r.Stats.Aborts[stats.AbortConflict])/float64(tot))
		}
	}
	// Has-P is conflict-dominated at scale; Has-C much less so.
	cs, ps := shares["has-c"], shares["has-p"]
	if len(cs) > 0 && len(ps) > 0 {
		rep.Checkf(ps[len(ps)-1] >= cs[len(cs)-1],
			"has-p more conflict-dominated",
			"conflict share at max T: has-p %.0f%% vs has-c %.0f%%",
			100*ps[len(ps)-1], 100*cs[len(cs)-1])
	}
	return rep
}
