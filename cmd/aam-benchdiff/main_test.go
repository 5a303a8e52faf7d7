package main

import (
	"strings"
	"testing"

	"aamgo/internal/bench"
)

func report(exps map[string]bench.CIExperiment) bench.CIReport {
	return bench.CIReport{Schema: bench.CISchema, Seed: 42, Experiments: exps}
}

func runDiff(t *testing.T, base, cur bench.CIReport) (string, int, int) {
	t.Helper()
	var sb strings.Builder
	regressions, compared := diff(&sb, base, cur)
	return sb.String(), regressions, compared
}

func TestDiffPassesOnIdenticalSets(t *testing.T) {
	r := report(map[string]bench.CIExperiment{
		"sharded": {Metrics: map[string]float64{
			"bfs.remote_units.s4": 1000,
			"bfs.batch_reduction": 78,
		}},
	})
	out, regressions, compared := runDiff(t, r, r)
	if regressions != 0 || compared != 2 {
		t.Fatalf("regressions=%d compared=%d\n%s", regressions, compared, out)
	}
}

// TestDiffNewMetricNotGated pins the forward direction of asymmetric
// metric sets: a metric (or experiment) present only in the current run —
// a freshly added scenario whose baseline has not landed yet — is
// reported as new and does not fail the gate.
func TestDiffNewMetricNotGated(t *testing.T) {
	base := report(map[string]bench.CIExperiment{
		"sharded": {Metrics: map[string]float64{"bfs.remote_units.s4": 1000}},
	})
	cur := report(map[string]bench.CIExperiment{
		"sharded": {Metrics: map[string]float64{
			"bfs.remote_units.s4":  1000,
			"sssp.remote_units.s4": 777, // new metric
		}},
		"sharded-irregular": { // new experiment
			Metrics: map[string]float64{"mst.remote_units.s4": 5}},
	})
	out, regressions, compared := runDiff(t, base, cur)
	if regressions != 0 {
		t.Fatalf("new metrics must not gate; got %d regressions:\n%s", regressions, out)
	}
	if compared != 1 {
		t.Fatalf("compared = %d, want 1\n%s", compared, out)
	}
	for _, frag := range []string{
		"note sharded/sssp.remote_units.s4: new metric, not gated",
		"note sharded-irregular: new experiment, not gated",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output lacks %q:\n%s", frag, out)
		}
	}
}

// TestDiffMissingBaselineMetricFails pins the reverse direction: a metric
// or experiment the baseline holds but the current run no longer produces
// is lost gate coverage and must fail.
func TestDiffMissingBaselineMetricFails(t *testing.T) {
	base := report(map[string]bench.CIExperiment{
		"sharded": {Metrics: map[string]float64{
			"bfs.remote_units.s4": 1000,
			"cc.remote_units.s4":  2000,
		}},
	})
	cur := report(map[string]bench.CIExperiment{
		"sharded": {Metrics: map[string]float64{"bfs.remote_units.s4": 1000}},
	})
	out, regressions, _ := runDiff(t, base, cur)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out)
	}
	if !strings.Contains(out, "FAIL sharded/cc.remote_units.s4: baseline metric missing") {
		t.Fatalf("missing-metric failure not reported:\n%s", out)
	}

	// Whole experiment missing from the current run.
	out, regressions, _ = runDiff(t, base, report(map[string]bench.CIExperiment{}))
	if regressions != 1 || !strings.Contains(out, "FAIL sharded: baseline experiment missing") {
		t.Fatalf("missing-experiment failure not reported (regressions=%d):\n%s", regressions, out)
	}
}

// TestDiffGatesValues: every metric gates for equality, whatever its
// name — a name that once selected a floor (".tput.") or a ceiling
// (".lat.") is a name like any other.
func TestDiffGatesValues(t *testing.T) {
	base := report(map[string]bench.CIExperiment{
		"sharded": {Metrics: map[string]float64{
			"bfs.remote_units.s4":   1000,
			"x.tput.y":              100,
			"serving.lat.p99us.bfs": 100,
			"sssp.batch_reduction":  98.22910216718266,
		}},
	})
	with := func(name string, v float64) bench.CIReport {
		m := map[string]float64{}
		for k, bv := range base.Experiments["sharded"].Metrics {
			m[k] = bv
		}
		m[name] = v
		return report(map[string]bench.CIExperiment{"sharded": {Metrics: m}})
	}
	for _, c := range []struct {
		name string
		v    float64
		want int
	}{
		{"bfs.remote_units.s4", 1000, 0},
		{"bfs.remote_units.s4", 999, 1}, // drift fails in both directions
		{"bfs.remote_units.s4", 1001, 1},
		{"x.tput.y", 85, 1},  // was inside the 20% floor
		{"x.tput.y", 150, 1}, // was an improvement
		{"serving.lat.p99us.bfs", 50, 1},
		{"serving.lat.p99us.bfs", 119, 1},
		{"sssp.batch_reduction", 98.22910216718266 * (1 + 1e-12), 0}, // formatting noise only
	} {
		out, regressions, compared := runDiff(t, base, with(c.name, c.v))
		if regressions != c.want || compared != 4 {
			t.Errorf("%s = %v: regressions = %d, want %d (compared %d):\n%s", c.name, c.v, regressions, c.want, compared, out)
		}
		if n := strings.Count(out, "(exact)"); n != 4 {
			t.Errorf("%s = %v: %d of 4 lines read (exact):\n%s", c.name, c.v, n, out)
		}
	}

	// Failed shape checks always gate.
	cur := with("x.tput.y", 100)
	e := cur.Experiments["sharded"]
	e.ChecksFailed = 2
	cur.Experiments["sharded"] = e
	if out, regressions, _ := runDiff(t, base, cur); regressions != 1 {
		t.Fatalf("failed shape checks did not gate:\n%s", out)
	}
}
