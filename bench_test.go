// Benchmarks regenerating the paper's evaluation through the Go testing
// harness: one testing.B benchmark per table/figure (the same experiments
// cmd/aam-bench runs, at slightly reduced scale so `go test -bench=.`
// finishes in minutes). b.N repetitions re-run the full experiment; the
// emitted metric is the wall time of one regeneration.
//
// The richer interface — full tables, notes and shape checks — is
// `go run ./cmd/aam-bench -run <id>`.
package aamgo_test

import (
	"testing"

	"aamgo/internal/bench"
)

// runExperiment executes one registered experiment at reduced scale and
// reports check failures through the benchmark log.
func runExperiment(b *testing.B, id string, scale int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunOne(id, bench.Options{Scale: scale, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range rep.FailedChecks() {
				b.Logf("shape check failed: %s — %s", c.Name, c.Detail)
			}
			b.ReportMetric(float64(len(rep.Checks)-len(rep.FailedChecks())), "checks-passed")
		}
	}
}

func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1", 0) }
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2", 0) }
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3", -1) }
func BenchmarkFig4BGQ(b *testing.B) {
	runExperiment(b, "fig4-bgq", -1)
}
func BenchmarkFig4HasC(b *testing.B) {
	runExperiment(b, "fig4-hasc", -1)
}
func BenchmarkFig4HasP(b *testing.B) {
	runExperiment(b, "fig4-hasp", -1)
}
func BenchmarkFig5AbortMix(b *testing.B) { runExperiment(b, "fig5ab", 0) }
func BenchmarkFig5RemoteCASBGQ(b *testing.B) {
	runExperiment(b, "fig5c-remote-cas-bgq", 0)
}
func BenchmarkFig5RemoteACCBGQ(b *testing.B) {
	runExperiment(b, "fig5e-remote-acc-bgq", 0)
}
func BenchmarkFig5RemoteCASHasP(b *testing.B) {
	runExperiment(b, "fig5g-remote-cas-hasp", 0)
}
func BenchmarkFig5RemoteACCHasP(b *testing.B) {
	runExperiment(b, "fig5h-remote-acc-hasp", 0)
}
func BenchmarkFig5ScaleCAS(b *testing.B) {
	runExperiment(b, "fig5d-scale-cas-bgq", 0)
}
func BenchmarkFig5ScaleACC(b *testing.B) {
	runExperiment(b, "fig5f-scale-acc-bgq", 0)
}
func BenchmarkFig5Ownership(b *testing.B) {
	runExperiment(b, "fig5i-ownership", -1)
}
func BenchmarkFig6BGQ(b *testing.B)     { runExperiment(b, "fig6a-bgq", -1) }
func BenchmarkFig6Haswell(b *testing.B) { runExperiment(b, "fig6b-haswell", -1) }
func BenchmarkTable1(b *testing.B)      { runExperiment(b, "tab1", -1) }

// Fig7/abl-coarsen/abl-visited-check fix M to the paper-optimum 144,
// which needs the default-scale graph: at -1 the optimum shifts left and
// the shape inverts.
func BenchmarkFig7ScalingBGQ(b *testing.B) {
	runExperiment(b, "fig7a-scaling-bgq", 0)
}
func BenchmarkFig7ScalingHaswell(b *testing.B) {
	runExperiment(b, "fig7b-scaling-haswell", -1)
}

// The PR-vs-PBGL margin needs the default scale: at -1 the graphs are
// too small for coalescing to matter.
func BenchmarkFig7PRNodes(b *testing.B)   { runExperiment(b, "fig7c-pr-nodes", 0) }
func BenchmarkFig7PRThreads(b *testing.B) { runExperiment(b, "fig7d-pr-threads", 0) }
func BenchmarkFig7PRVerts(b *testing.B)   { runExperiment(b, "fig7e-pr-verts", -1) }
func BenchmarkAblationCoarsening(b *testing.B) {
	runExperiment(b, "abl-coarsen", 0)
}
func BenchmarkAblationCoalescing(b *testing.B) {
	runExperiment(b, "abl-coalesce", 0)
}
func BenchmarkAblationVisitedCheck(b *testing.B) {
	runExperiment(b, "abl-visited-check", 0)
}
func BenchmarkAblationMSelection(b *testing.B) {
	runExperiment(b, "abl-mselect", -1)
}
func BenchmarkAblationMechanisms(b *testing.B) {
	runExperiment(b, "abl-mechanisms", -1)
}
func BenchmarkAblationLowering(b *testing.B) {
	runExperiment(b, "abl-lower", -1)
}
func BenchmarkAblationPredictM(b *testing.B) {
	runExperiment(b, "abl-predict", -1)
}

// Streaming is the dynamic-graph extension (not a paper figure): one
// mutation stream under all five isolation mechanisms on the simulator
// (aborts, retries, virtual machine time) and incremental CC held to a
// recompute. Readers against a writer in wall-clock time is benchmark/'s
// mixed phase.
func BenchmarkStreaming(b *testing.B) { runExperiment(b, "streaming", 0) }
