package bench

import (
	"strings"
	"testing"
)

// TestRegistryCoversEvaluation pins the experiment inventory to the
// paper's evaluation section: every table and figure has a runner.
func TestRegistryCoversEvaluation(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3",
		"fig4-bgq", "fig4-hasc", "fig4-hasp",
		"fig5ab",
		"fig5c-remote-cas-bgq", "fig5e-remote-acc-bgq",
		"fig5g-remote-cas-hasp", "fig5h-remote-acc-hasp",
		"fig5d-scale-cas-bgq", "fig5f-scale-acc-bgq",
		"fig5i-ownership",
		"fig6a-bgq", "fig6b-haswell",
		"tab1",
		"fig7a-scaling-bgq", "fig7b-scaling-haswell",
		"fig7c-pr-nodes", "fig7d-pr-threads", "fig7e-pr-verts",
		"abl-coarsen", "abl-coalesce", "abl-visited-check", "abl-mselect",
		"abl-mechanisms", "abl-lower", "abl-predict",
		"streaming",
		"sharded",
		"sharded-irregular",
		"serving",
		"gblas",
		"net",
		"durability",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(Experiments()); got != len(want) {
		t.Errorf("registry has %d experiments, inventory lists %d", got, len(want))
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := RunOne("fig99", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestExperimentsRunAtTinyScale executes every experiment at strongly
// reduced scale: the point is exercising every code path (workloads,
// sweeps, table emission) rather than the shape checks, which need the
// default scale.
func TestExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale sweep still takes tens of seconds")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := RunOne(e.ID, Options{Scale: -4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("experiment emitted no tables")
			}
			for _, tb := range rep.Tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q is empty", tb.Name)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Cols) {
						t.Errorf("table %q: row width %d vs %d columns",
							tb.Name, len(row), len(tb.Cols))
					}
				}
			}
		})
	}
}

// TestHeadlineShapesAtDefaultScale runs the cheapest experiments whose
// checks are robust at the default reduced scale and asserts them.
func TestHeadlineShapesAtDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale experiments")
	}
	for _, id := range []string{"fig1", "fig2", "fig5c-remote-cas-bgq", "abl-coalesce"} {
		rep, err := RunOne(id, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.FailedChecks() {
			t.Errorf("%s: shape check %q failed: %s", id, c.Name, c.Detail)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	rep := &Report{ID: "x", Title: "demo"}
	tb := rep.NewTable("series", "a", "b")
	tb.AddRow("1", "2")
	rep.Notef("note %d", 1)
	rep.Checkf(true, "ok", "fine")
	rep.Checkf(false, "bad", "broken")

	var sb strings.Builder
	if err := Render(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"demo", "series", "[PASS]", "[FAIL]", "note 1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered report lacks %q", frag)
		}
	}
	dir := t.TempDir()
	if err := WriteCSVs(dir, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.FailedChecks()) != 1 {
		t.Fatalf("failed checks = %d", len(rep.FailedChecks()))
	}
}

// smokeIDs are the scenarios the bench-smoke CI job runs and
// BENCH_baseline.json holds.
var smokeIDs = []string{"sharded", "streaming", "sharded-irregular", "serving", "gblas", "net", "durability"}

// TestSmokeCountsMatchBaseline holds the bench-smoke scenarios to the
// committed baseline inside tier-1: two runs at the CI job's scale and
// seed must produce the metrics of ../../BENCH_baseline.json — the same
// names, the same values — so a drifted count fails go test, not only the
// CI gate.
func TestSmokeCountsMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the seven smoke scenarios twice at default scale")
	}
	base, err := ReadCI("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Experiments) != len(smokeIDs) {
		t.Errorf("baseline holds %d experiments, the smoke run %d", len(base.Experiments), len(smokeIDs))
	}
	for run := 0; run < 2; run++ {
		for _, id := range smokeIDs {
			rep, err := RunOne(id, Options{Scale: base.Scale, Seed: base.Seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.FailedChecks() {
				t.Errorf("%s: shape check %q failed: %s", id, c.Name, c.Detail)
			}
			want := base.Experiments[id].Metrics
			for name, v := range rep.Metrics {
				if w, ok := want[name]; !ok || v != w {
					t.Errorf("run %d: %s/%s = %v, baseline %v (present %t)", run, id, name, v, w, ok)
				}
			}
			for name := range want {
				if _, ok := rep.Metrics[name]; !ok {
					t.Errorf("run %d: %s/%s is in the baseline and was not produced", run, id, name)
				}
			}
		}
	}
}
