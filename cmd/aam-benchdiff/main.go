// Command aam-benchdiff is the bench-smoke regression gate: it compares a
// fresh aam-bench -json run against a committed baseline and fails when a
// shared metric differs.
//
// Usage:
//
//	aam-benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json
//
// There is one comparison rule. Every metric aam-bench writes is a count
// or a virtual time (message/batch totals, reduction ratios, aborts,
// simulated nanoseconds) that repeats exactly for a fixed scale and seed,
// and must equal the baseline — any drift, in either direction, means the
// behavior changed and the baseline needs a deliberate refresh. Nothing
// here is a wall-clock reading; those are benchmark/'s job. Metric sets
// may be asymmetric, and the two directions are deliberately not
// symmetric: a metric (or a whole experiment) present only in the current
// run is reported as "new, not gated" — new scenarios land before their
// baseline does — while a metric or experiment present in the baseline
// but missing from the current run FAILS the gate: coverage silently
// disappearing is exactly the regression the gate exists to catch. Failed
// shape checks in the current run always fail the gate. To refresh the
// baseline after an intentional change, rerun aam-bench with the
// -run/-scale/-seed the CI job uses and -json BENCH_baseline.json, and
// commit the file as written.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"aamgo/internal/bench"
)

func main() {
	var (
		basePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline metrics")
		curPath  = flag.String("current", "BENCH_ci.json", "freshly generated metrics")
	)
	flag.Parse()

	base, err := bench.ReadCI(*basePath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := bench.ReadCI(*curPath)
	if err != nil {
		fatalf("%v", err)
	}
	if base.Scale != cur.Scale || base.Seed != cur.Seed {
		fatalf("baseline (scale %d, seed %d) and current (scale %d, seed %d) are not comparable; "+
			"regenerate the baseline with the CI job's flags",
			base.Scale, base.Seed, cur.Scale, cur.Seed)
	}

	regressions, compared := diff(os.Stdout, base, cur)
	if regressions > 0 {
		fatalf("%d regression(s) across %d compared metric(s); "+
			"if intentional, refresh the baseline (see aam-benchdiff doc)", regressions, compared)
	}
	fmt.Printf("no regressions across %d compared metric(s)\n", compared)
}

// diff compares current against baseline, writing one line per finding to
// w, and returns the regression and compared-metric counts. Extracted
// from main so the asymmetric-set semantics are unit-testable.
func diff(w io.Writer, base, cur bench.CIReport) (regressions, compared int) {
	for _, id := range sortedKeys(cur.Experiments) {
		ce := cur.Experiments[id]
		if ce.ChecksFailed > 0 {
			fmt.Fprintf(w, "FAIL %s: %d shape check(s) failed in the current run\n", id, ce.ChecksFailed)
			regressions++
		}
		be, ok := base.Experiments[id]
		if !ok {
			fmt.Fprintf(w, "note %s: new experiment, not gated (no baseline entry; "+
				"refresh the baseline to start gating it)\n", id)
			continue
		}
		for _, name := range sortedKeys(ce.Metrics) {
			curV := ce.Metrics[name]
			baseV, ok := be.Metrics[name]
			if !ok {
				fmt.Fprintf(w, "note %s/%s: new metric, not gated (no baseline value)\n", id, name)
				continue
			}
			compared++
			// Exact match (tiny relative epsilon for float ratios), both
			// directions — a drop AND a rise mean the behavior changed.
			status := "ok  "
			if !almostEqual(curV, baseV) {
				status = "FAIL"
				regressions++
			}
			fmt.Fprintf(w, "%s %s/%s: current %.10g vs baseline %.10g (exact)\n",
				status, id, name, curV, baseV)
		}
		// A baseline metric the current run no longer produces is lost
		// gate coverage: fail until the baseline is deliberately refreshed.
		for _, name := range sortedKeys(be.Metrics) {
			if _, ok := ce.Metrics[name]; !ok {
				fmt.Fprintf(w, "FAIL %s/%s: baseline metric missing from current run\n", id, name)
				regressions++
			}
		}
	}
	// Same at experiment granularity: a baselined experiment that was not
	// run at all must not pass silently.
	for _, id := range sortedKeys(base.Experiments) {
		if _, ok := cur.Experiments[id]; !ok {
			fmt.Fprintf(w, "FAIL %s: baseline experiment missing from current run\n", id)
			regressions++
		}
	}
	return regressions, compared
}

// almostEqual compares within 1e-9 relative tolerance (deterministic
// ratios survive JSON round-tripping; this absorbs formatting noise only).
func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aam-benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
