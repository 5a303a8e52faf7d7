package bench

import (
	"aamgo/internal/exec"
	"aamgo/internal/perfmodel"
	"aamgo/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Performance-model validation: activity latency vs accessed vertices",
		Paper: "Fig. 2a–d: T(N)=A·N+B for atomics and HTM; B_HTM > B_AT and " +
			"A_HTM < A_AT, so coarse transactions amortize the fixed overhead " +
			"and a crossover exists.",
		Run: runFig2,
	})
}

// fig2Case is one (machine, HTM variant) curve pair of Figure 2.
type fig2Case struct {
	label   string
	prof    exec.MachineProfile
	variant string
	maxN    int
}

func runFig2(o Options) *Report {
	rep := &Report{}
	cases := []fig2Case{
		{"has-c/rtm", exec.HaswellC(), "rtm", 12},
		{"has-c/hle", exec.HaswellC(), "hle", 12},
		{"bgq/short", exec.BGQ(), "short", 20},
		{"bgq/long", exec.BGQ(), "long", 20},
	}
	reps := 1 << o.shift(10, 6) // activities measured per point

	for _, c := range cases {
		t := rep.NewTable(c.label+": latency per activity [us]",
			"vertices", "atomics", "htm", "atomics-model", "htm-model")

		var xs, atomYs, htmYs []float64
		atom := make([]vtime.Time, c.maxN+1)
		htm := make([]vtime.Time, c.maxN+1)
		for n := 1; n <= c.maxN; n++ {
			atom[n] = fig2Point(o, c, n, reps, false)
			htm[n] = fig2Point(o, c, n, reps, true)
			xs = append(xs, float64(n))
			atomYs = append(atomYs, atom[n].Micros())
			htmYs = append(htmYs, htm[n].Micros())
		}
		atFit, err1 := perfmodel.Fit(xs, atomYs)
		htFit, err2 := perfmodel.Fit(xs, htmYs)
		if err1 != nil || err2 != nil {
			rep.Notef("%s: fit failed: %v %v", c.label, err1, err2)
			continue
		}
		for n := 1; n <= c.maxN; n++ {
			t.AddRow(itoa(n), fmtUS(atom[n]), fmtUS(htm[n]),
				ftoa(atFit.Eval(float64(n))), ftoa(htFit.Eval(float64(n))))
		}

		cross := perfmodel.Crossover(atFit, htFit)
		rep.Notef("%s: atomics T(N)=%.4f·N+%.4f, HTM T(N)=%.4f·N+%.4f, crossover N≈%.1f",
			c.label, atFit.A, atFit.B, htFit.A, htFit.B, cross)

		// §5.3 predictions: B_HTM > B_AT (transaction begin/commit
		// overhead) and A_HTM < A_AT (per-vertex cost grows slower).
		rep.Checkf(htFit.B > atFit.B, c.label+" B_HTM>B_AT",
			"B_HTM=%.4f B_AT=%.4f", htFit.B, atFit.B)
		rep.Checkf(htFit.A < atFit.A, c.label+" A_HTM<A_AT",
			"A_HTM=%.4f A_AT=%.4f", htFit.A, atFit.A)
		rep.Checkf(cross > 0, c.label+" crossover exists",
			"crossover at N≈%.1f accessed vertices", cross)

		// The model must actually match the data (R² style check via
		// normalized max residual).
		worst := 0.0
		for i, x := range xs {
			r := abs((atFit.Eval(x) - atomYs[i]) / atomYs[i])
			if r > worst {
				worst = r
			}
			r = abs((htFit.Eval(x) - htmYs[i]) / htmYs[i])
			if r > worst {
				worst = r
			}
		}
		rep.Checkf(worst < 0.25, c.label+" model fits data",
			"max relative residual %.1f%%", 100*worst)
	}
	return rep
}

// fig2Point measures the mean per-activity latency of an activity touching
// n distinct vertices, executed reps times on a single thread (the model
// targets uncontended overheads; contention is studied in Fig. 3).
func fig2Point(o Options, c fig2Case, n, reps int, useHTM bool) vtime.Time {
	prof := c.prof
	variant := prof.HTMVariant(c.variant)
	// Vertices live one per cache line, as in a real vertex array whose
	// records span a line (stride 8 words).
	const stride = 8
	mem := n*stride + 64
	m := machine(prof, 1, 1, mem, nil, o.Seed)
	res := m.Run(func(ctx exec.Context) {
		for r := 0; r < reps; r++ {
			if useHTM {
				ctx.Tx(variant, func(tx exec.Tx) error {
					for i := 0; i < n; i++ {
						addr := i * stride
						if tx.Read(addr) == 0 {
							tx.Write(addr, 1)
						}
					}
					return nil
				})
			} else {
				for i := 0; i < n; i++ {
					ctx.CAS(i*stride, 0, 1)
				}
			}
		}
	})
	return res.Elapsed / vtime.Time(reps)
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
