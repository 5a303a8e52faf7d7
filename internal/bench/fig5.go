package bench

import (
	"fmt"

	"aamgo/internal/aam"
	"aamgo/internal/am"
	"aamgo/internal/baseline"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig5c-remote-cas-bgq",
		Title: "Remote vertex marking on BG/Q: coalescing sweep vs PAMI CAS",
		Paper: "Fig. 5c: uncoalesced inter-node HTM is ~5x slower than PAMI " +
			"one-sided CAS; the short mode overtakes it around C=16.",
		Run: func(o Options) *Report {
			return runFig5Coalesce(o, exec.BGQ(), []string{"short", "long"}, false)
		},
	})
	register(Experiment{
		ID:    "fig5e-remote-acc-bgq",
		Title: "Remote rank increment on BG/Q: coalescing sweep vs PAMI ACC",
		Paper: "Fig. 5e: HTM-ACC aborts are costly, but coalescing still " +
			"yields ≈20% speedup over PAMI atomics in the short mode.",
		Run: func(o Options) *Report {
			return runFig5Coalesce(o, exec.BGQ(), []string{"short", "long"}, true)
		},
	})
	register(Experiment{
		ID:    "fig5g-remote-cas-hasp",
		Title: "Remote vertex marking on Has-P: coalescing sweep vs MPI-3 RMA",
		Paper: "Fig. 5g: C=2 already lets AAM outperform InfiniBand remote " +
			"atomics.",
		Run: func(o Options) *Report {
			return runFig5Coalesce(o, exec.HaswellP(), []string{"rtm", "hle"}, false)
		},
	})
	register(Experiment{
		ID:    "fig5h-remote-acc-hasp",
		Title: "Remote rank increment on Has-P: coalescing sweep vs MPI-3 RMA",
		Paper: "Fig. 5h: same shape as 5g for accumulate.",
		Run: func(o Options) *Report {
			return runFig5Coalesce(o, exec.HaswellP(), []string{"rtm", "hle"}, true)
		},
	})
	register(Experiment{
		ID:    "fig5d-scale-cas-bgq",
		Title: "Remote marking, node scaling: coalesced AAM vs PAMI CAS",
		Paper: "Fig. 5d: with all N-1 processes targeting p_N, coalesced AAM " +
			"outperforms one-sided CAS ≈5–7x.",
		Run: func(o Options) *Report { return runFig5Scale(o, false) },
	})
	register(Experiment{
		ID:    "fig5f-scale-acc-bgq",
		Title: "Remote increments, node scaling: coalesced AAM vs PAMI ACC",
		Paper: "Fig. 5f: same scaling for accumulate.",
		Run:   func(o Options) *Report { return runFig5Scale(o, true) },
	})
	register(Experiment{
		ID:    "fig5i-ownership",
		Title: "Distributed transactions via the ownership protocol (O-1..O-4)",
		Paper: "Fig. 5i: O-1 fastest; more remote vertices (O-3) and more " +
			"transactions (O-2/O-4) cost more; backoff prevents livelock.",
		Run: runFig5i,
	})
}

// remoteWorkload prepares an AAM runtime with a mark (CAS-like) or
// increment (ACC-like) operator over a target node's vertex array.
type remoteWorkload struct {
	rt     *aam.Runtime
	op     int
	nverts int
}

func newRemoteWorkload(nverts int, acc bool) *remoteWorkload {
	w := &remoteWorkload{rt: aam.NewRuntime(), nverts: nverts}
	if acc {
		w.op = w.rt.Register(&aam.Op{
			Name: "remote-acc",
			Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
				tx.Write(v, tx.Read(v)+arg)
				return 0, false
			},
			BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
				ctx.FetchAdd(v, arg)
				return 0, false
			},
		})
	} else {
		w.op = w.rt.Register(&aam.Op{
			Name: "remote-mark",
			Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
				if tx.Read(v) == 0 {
					tx.Write(v, arg)
					return 0, false
				}
				return 0, true
			},
			BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
				return 0, !ctx.CAS(v, 0, arg)
			},
		})
	}
	return w
}

// runRemoteAAM times issuing ops operator invocations from every node
// except the last against vertices owned by the last node, with coalescing
// factor C and target-side coarsening M=C, under the named HTM variant.
func runRemoteAAM(o Options, prof exec.MachineProfile, nodes, ops int,
	variant string, c int, acc bool) (vtime.Time, uint64) {
	w := newRemoteWorkload(ops, acc)
	part := graph.NewPartition(nodes*ops, nodes) // block owner layout
	cfg := aam.Config{
		M:         c,
		C:         c,
		Mechanism: aam.MechHTM,
		HTM:       prof.HTMVariant(variant),
		Part:      part,
	}
	m := machine(prof, nodes, 1, ops+64, w.rt.Handlers(nil), o.Seed)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, cfg)
		target := ctx.Nodes() - 1
		if ctx.NodeID() != target {
			rng := ctx.Rand()
			for i := 0; i < ops; i++ {
				gv := part.Global(target, rng.Intn(ops))
				eng.Spawn(w.op, gv, 1)
			}
		}
		eng.Drain()
	})
	return res.Elapsed, res.Stats.TotalAborts()
}

// runRemoteAtomics times the PAMI/MPI-3-RMA-style one-sided baseline.
func runRemoteAtomics(o Options, prof exec.MachineProfile, nodes, ops int, acc bool) vtime.Time {
	var ra baseline.RemoteAtomics
	m := machine(prof, nodes, 1, ops+64, ra.Handlers(nil), o.Seed)
	res := m.Run(func(ctx exec.Context) {
		target := ctx.Nodes() - 1
		if ctx.NodeID() != target {
			rng := ctx.Rand()
			for i := 0; i < ops; i++ {
				addr := rng.Intn(ops)
				if acc {
					ra.ACC(ctx, target, addr, 1)
				} else {
					ra.CAS(ctx, target, addr, 0, 1)
				}
			}
		}
		am.Drain(ctx)
	})
	return res.Elapsed
}

func runFig5Coalesce(o Options, prof exec.MachineProfile, variants []string, acc bool) *Report {
	rep := &Report{}
	ops := 1 << o.shift(11, 7) // paper: 2^13 remote operations
	cs := []int{1, 4, 16, 64, 256, 1024}
	kind := "cas"
	if acc {
		kind = "acc"
	}

	base := runRemoteAtomics(o, prof, 2, ops, acc)
	t := rep.NewTable(fmt.Sprintf("%s remote %s: time [ms] vs C (one-sided baseline: %s)",
		prof.Name, kind, fmtMS(base)),
		append([]string{"C"}, variants...)...)

	best := make(map[string]vtime.Time)
	first := make(map[string]vtime.Time)
	for _, c := range cs {
		row := []string{itoa(c)}
		for _, v := range variants {
			el, _ := runRemoteAAM(o, prof, 2, ops, v, c, acc)
			row = append(row, fmtMS(el))
			if c == 1 {
				first[v] = el
			}
			if b, ok := best[v]; !ok || el < b {
				best[v] = el
			}
		}
		t.AddRow(row...)
	}

	fast := variants[0]
	rep.Notef("baseline %s one-sided %s: %s ms; best coalesced %s: %s ms",
		prof.Name, kind, fmtMS(base), fast, fmtMS(best[fast]))
	rep.Checkf(first[fast] > base, "uncoalesced HTM loses",
		"C=1 %s %s ms vs one-sided %s ms", fast, fmtMS(first[fast]), fmtMS(base))
	rep.Checkf(best[fast] < base, "coalescing wins",
		"best %s %s ms vs one-sided %s ms (speedup %.2f)",
		fast, fmtMS(best[fast]), fmtMS(base), speedupF(base, best[fast]))
	return rep
}

func runFig5Scale(o Options, acc bool) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	ops := 1 << o.shift(9, 6) // per issuing node
	maxN := 32
	if o.Scale >= 3 {
		maxN = 256
	}
	kind := "cas"
	if acc {
		kind = "acc"
	}
	t := rep.NewTable(fmt.Sprintf("bgq remote %s: time [ms] vs nodes", kind),
		"N", "htm-C1", "one-sided", "htm-C2048")

	var lastSpeedup float64
	for _, n := range geomSeq(2, maxN) {
		noCo, _ := runRemoteAAM(o, prof, n, ops, "short", 1, acc)
		atom := runRemoteAtomics(o, prof, n, ops, acc)
		co, _ := runRemoteAAM(o, prof, n, ops, "short", 2048, acc)
		t.AddRow(itoa(n), fmtMS(noCo), fmtMS(atom), fmtMS(co))
		lastSpeedup = speedupF(atom, co)
	}
	rep.Checkf(lastSpeedup > 2, "coalesced AAM beats one-sided",
		"at max N speedup %.2f (paper: ≈5–7x for CAS, ≈1.2x for ACC)", lastSpeedup)
	return rep
}

// fig5iScenario matches the paper's O-1..O-4.
type fig5iScenario struct {
	name string
	x    int // transactions per process
	a, b int // local, remote vertices per transaction
}

func runFig5i(o Options) *Report {
	rep := &Report{}
	prof := exec.BGQ()
	div := 10 // reduced transaction counts
	if o.Scale >= 3 {
		div = 1
	}
	scens := []fig5iScenario{
		{"O-1", 1000 / div, 5, 1},
		{"O-2", 10000 / div, 5, 1},
		{"O-3", 1000 / div, 7, 3},
		{"O-4", 10000 / div, 7, 3},
	}
	maxN := 16
	if o.Scale >= 3 {
		maxN = 128
	}
	ns := geomSeq(2, maxN)

	t := rep.NewTable("ownership protocol: total time [s] vs nodes",
		append([]string{"N"}, scenNames(scens)...)...)
	times := make(map[string][]float64)
	for _, n := range ns {
		row := []string{itoa(n)}
		for _, sc := range scens {
			el := runFig5iPoint(o, prof, n, sc)
			row = append(row, fmtS(el))
			times[sc.name] = append(times[sc.name], el.Seconds())
		}
		t.AddRow(row...)
	}

	last := len(ns) - 1
	rep.Checkf(times["O-1"][last] < times["O-2"][last] &&
		times["O-1"][last] < times["O-3"][last] &&
		times["O-1"][last] < times["O-4"][last],
		"O-1 fastest", "O-1 %.3fs vs O-2 %.3fs O-3 %.3fs O-4 %.3fs",
		times["O-1"][last], times["O-2"][last], times["O-3"][last], times["O-4"][last])
	rep.Checkf(times["O-3"][last] > times["O-1"][last],
		"more remote vertices cost more",
		"O-3/O-1 = %.2f", times["O-3"][last]/times["O-1"][last])
	rep.Checkf(times["O-4"][last] >= times["O-2"][last]*0.8,
		"O-2/O-4 follow same pattern",
		"O-4 %.3fs vs O-2 %.3fs", times["O-4"][last], times["O-2"][last])
	return rep
}

func scenNames(scens []fig5iScenario) []string {
	out := make([]string, len(scens))
	for i, s := range scens {
		out[i] = s.name
	}
	return out
}

// runFig5iPoint executes one ownership-protocol scenario: every process
// issues sc.x distributed transactions over sc.a local + sc.b remote
// random vertices, serving acquire traffic throughout; done flags plus a
// final drain terminate the run.
func runFig5iPoint(o Options, prof exec.MachineProfile, nodes int, sc fig5iScenario) vtime.Time {
	const verts = 1 << 10
	layout := aam.OwnershipLayout{
		MarkerBase:  0,
		DataBase:    verts,
		MailboxBase: 2*verts + nodes + 8,
	}
	own := aam.NewOwnership(layout)
	// Done flags live in the data region at verts+src (writeback handler
	// stores them); handler id 2 is the writeback handler.
	const writebackH = 2
	mem := 2*verts + nodes + 64
	m := machine(prof, nodes, 1, mem, own.Handlers(nil), o.Seed)
	res := m.Run(func(ctx exec.Context) {
		rng := ctx.Rand()
		me := ctx.NodeID()
		local := make([]int, sc.a)
		remote := make([]aam.GlobalRef, sc.b)
		for i := 0; i < sc.x; i++ {
			for j := range local {
				local[j] = rng.Intn(verts)
			}
			for j := range remote {
				n := rng.Intn(ctx.Nodes() - 1)
				if n >= me {
					n++
				}
				remote[j] = aam.GlobalRef{Node: n, Index: rng.Intn(verts)}
			}
			own.RunDistTx(ctx, local, remote, nil,
				func(tx exec.Tx, localData []int, remoteVals []uint64) []uint64 {
					for _, addr := range localData {
						tx.Write(addr, 1)
					}
					marked := make([]uint64, len(remoteVals))
					for j := range marked {
						marked[j] = 1
					}
					return marked
				})
		}
		// Announce completion to every node, then serve until all are done.
		for n := 0; n < ctx.Nodes(); n++ {
			if n == me {
				ctx.Store(verts+verts+me, 1) // data(verts+me)
			} else {
				ctx.Send(n, writebackH, []uint64{uint64(verts + me), 1})
			}
		}
		for {
			done := 0
			for n := 0; n < ctx.Nodes(); n++ {
				if ctx.Load(verts+verts+n) != 0 {
					done++
				}
			}
			if done == ctx.Nodes() {
				break
			}
			if ctx.Poll() == 0 {
				ctx.Compute(300 * vtime.Nanosecond)
			}
		}
		am.Drain(ctx)
	})
	return res.Elapsed
}
