package dyn

import (
	"runtime"
	"testing"

	"aamgo/internal/graph"
)

// BenchmarkDynNew times wrapping a generated base (segment sort plus the
// union-find seed) and reports time and allocated bytes per stored arc.
func BenchmarkDynNew(b *testing.B) {
	for _, c := range []struct {
		name string
		base *graph.Graph
	}{
		{"kron16", graph.Kronecker(16, 16, 1)},        // unsorted segments, 40k-neighbour hub
		{"road512", graph.RoadGrid(512, 512, 0.1, 1)}, // Dedup output: already sorted
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for b.Loop() {
				if _, err := New(c.base); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			arcs := float64(c.base.NumEdges()) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arcs, "ns/arc")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/arcs, "B/arc")
		})
	}
}
