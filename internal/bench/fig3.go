package bench

import (
	"fmt"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Single-vertex activities under contention: CAS-mark and ACC-increment",
		Paper: "Fig. 3a–f: atomics beat single-op transactions; HTM CAS rarely " +
			"conflicts once the vertex is marked, HTM ACC conflicts on every " +
			"commit; BG/Q HTM degrades with T, Haswell atomics saturate.",
		Run: runFig3,
	})
}

// fig3Mech is one mechanism curve of Figure 3.
type fig3Mech struct {
	label   string
	prof    exec.MachineProfile
	variant string // HTM variant, "" = atomic
	acc     bool   // increment (ACC) instead of mark (CAS)
}

func runFig3(o Options) *Report {
	rep := &Report{}
	hasT := []int{1, 2, 4, 8}
	bgqT := []int{1, 2, 4, 8, 16, 32, 64}
	repeat := 1 << o.shift(3, 0) // benchmark repetitions averaged

	type opSet struct {
		name  string
		ops   int
		acc   bool
		mechs []fig3Mech
	}
	mk := func(acc bool) []fig3Mech {
		kind := "cas"
		if acc {
			kind = "acc"
		}
		return []fig3Mech{
			{"has-" + kind, exec.HaswellC(), "", acc},
			{"has-rtm", exec.HaswellC(), "rtm", acc},
			{"has-hle", exec.HaswellC(), "hle", acc},
			{"bgq-" + kind, exec.BGQ(), "", acc},
			{"bgq-htm-s", exec.BGQ(), "short", acc},
			{"bgq-htm-l", exec.BGQ(), "long", acc},
		}
	}
	sets := []opSet{
		{"mark vertex 10x (fig 3a)", 10, false, mk(false)},
		{"mark vertex 100x (fig 3b)", 100, false, mk(false)},
		{"increment rank 10x (fig 3d)", 10, true, mk(true)},
		{"increment rank 100x (fig 3e)", 100, true, mk(true)},
	}

	// Abort-breakdown tables (Tab. 3c / 3f) are filled from the T=max runs
	// of the stats-visible HTM mechanisms.
	breakCAS := rep.NewTable("abort breakdown, marking (tab 3c)",
		"mechanism", "ops", "conflicts", "capacity", "other")
	breakACC := rep.NewTable("abort breakdown, incrementing (tab 3f)",
		"mechanism", "ops", "conflicts", "capacity", "other")

	for _, set := range sets {
		t := rep.NewTable(set.name+" — total time [ms] by threads",
			append([]string{"mechanism"}, tsLabels(bgqT)...)...)
		curves := map[string][]float64{}
		aborts := map[string][]uint64{}
		for _, mech := range set.mechs {
			ts := hasT
			if mech.prof.Name == "bgq" {
				ts = bgqT
			}
			row := []string{mech.label}
			for _, T := range bgqT {
				if !contains(ts, T) {
					row = append(row, "-")
					continue
				}
				el, st := fig3Point(o, mech, T, set.ops, repeat)
				row = append(row, fmtMS(el))
				curves[mech.label] = append(curves[mech.label], el.Millis())
				aborts[mech.label] = append(aborts[mech.label], st.TotalAborts())
				if T == maxOf(ts) && mech.variant != "" && mech.variant != "hle" {
					bt := breakCAS
					if set.acc {
						bt = breakACC
					}
					bt.AddRow(mech.label, itoa(set.ops),
						utoa(st.Aborts[stats.AbortConflict]),
						utoa(st.Aborts[stats.AbortCapacity]),
						utoa(st.Aborts[stats.AbortOther]))
				}
			}
			t.AddRow(row...)
		}

		// Shape checks per figure.
		atomLbl, htmLbl := "has-cas", "has-rtm"
		if set.acc {
			atomLbl = "has-acc"
		}
		atomC, htmC := curves[atomLbl], curves[htmLbl]
		if len(atomC) > 0 && len(htmC) > 0 {
			if !set.acc {
				// Fig. 3a: single-vertex HTM mark is 1.5–3x slower than CAS.
				ratio := htmC[0] / atomC[0]
				rep.Checkf(ratio > 1.2 && ratio < 6,
					fmt.Sprintf("%s: RTM/CAS overhead", set.name),
					"T=1 ratio %.2f (paper: 1.5–3x)", ratio)
			} else {
				// Fig. 3d/e: the HTM implementation of ACC collapses with T
				// because every transaction writes the shared word.
				last := len(htmC) - 1
				growth := htmC[last] / htmC[0]
				rep.Checkf(growth > 2,
					fmt.Sprintf("%s: HTM-ACC conflict storm", set.name),
					"RTM time grows %.1fx from T=1 to T=%d", growth, hasT[last])
			}
		}
		// BG/Q HTM degrades markedly as T grows (expensive aborts).
		if c := curves["bgq-htm-s"]; len(c) == len(bgqT) {
			rep.Checkf(c[len(c)-1] > 2*c[0], set.name+": bgq htm T-sensitivity",
				"HTM-S slows %.1fx from T=1 to T=64", c[len(c)-1]/c[0])
		}
		// Atomics stay the fastest mechanism at full parallelism in all
		// four scenarios on BG/Q (Fig. 3 discussion).
		if a, h := curves["bgq-"+kindOf(set.acc)], curves["bgq-htm-s"]; len(a) > 0 && len(h) > 0 {
			rep.Checkf(a[len(a)-1] < h[len(h)-1], set.name+": bgq atomics win",
				"T=64 atomics %.3f ms vs HTM-S %.3f ms", a[len(a)-1], h[len(h)-1])
		}
		// ACC HTM generates far more aborts than CAS HTM (≈3x+ on BG/Q).
		if set.acc && set.ops == 100 {
			rep.Notef("%s: bgq-htm-s aborts by T: %v", set.name, aborts["bgq-htm-s"])
		}
	}
	return rep
}

func kindOf(acc bool) string {
	if acc {
		return "acc"
	}
	return "cas"
}

// fig3Point runs one (mechanism, T, ops) microbenchmark: every thread
// performs ops operations on the single shared vertex; the benchmark is
// repeated and averaged. Returns mean elapsed time and summed stats.
func fig3Point(o Options, mech fig3Mech, T, ops, repeat int) (vtime.Time, stats.Total) {
	prof := mech.prof
	var variant *exec.HTMProfile
	if mech.variant != "" {
		variant = prof.HTMVariant(mech.variant)
	}
	var sum vtime.Time
	var tot stats.Total
	for r := 0; r < repeat; r++ {
		m := machine(prof, 1, T, 64, nil, o.Seed+int64(r))
		res := m.Run(func(ctx exec.Context) {
			const addr = 0
			for i := 0; i < ops; i++ {
				switch {
				case variant == nil && !mech.acc:
					ctx.CAS(addr, 0, uint64(ctx.GlobalID())+1)
				case variant == nil && mech.acc:
					ctx.FetchAdd(addr, 1)
				case !mech.acc:
					ctx.Tx(variant, func(tx exec.Tx) error {
						if tx.Read(addr) == 0 {
							tx.Write(addr, uint64(ctx.GlobalID())+1)
						}
						return nil
					})
				default:
					ctx.Tx(variant, func(tx exec.Tx) error {
						tx.Write(addr, tx.Read(addr)+1)
						return nil
					})
				}
			}
		})
		sum += res.Elapsed
		tot.Add(&res.Stats.Thread)
	}
	return sum / vtime.Time(repeat), tot
}

func tsLabels(ts []int) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = fmt.Sprintf("T=%d", t)
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
