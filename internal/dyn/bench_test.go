package dyn

import (
	"runtime"
	"testing"

	"aamgo/internal/graph"
)

// BenchmarkDynNew times wrapping a generated base — one sweep over the arcs
// (range check, sortedness, union-find seed), plus the copy and segment
// sort when a segment is unsorted — and reports time and allocated bytes
// per stored arc.
func BenchmarkDynNew(b *testing.B) {
	for _, c := range []struct {
		name string
		base *graph.Graph
	}{
		{"kron16", graph.Kronecker(16, 16, 1)},           // unsorted segments, 40k-neighbour hub
		{"road512", graph.RoadGrid(512, 512, 0.1, 1)},    // born sorted: adopted as it is
		{"road1024", graph.RoadGrid(1024, 1024, 0.1, 1)}, // the benchmark's road20: a per-vertex term shows here
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

// BenchmarkDynApply times a 16-edge batch (every eighth followed by a
// Freeze, as a server under mixed load sees it) on two sizes of one graph
// family. B/vertex is the allocated bytes per batch divided by N: a cost
// per vertex of the graph, as opposed to per vertex touched, shows as the
// same number on both sizes.
func BenchmarkDynApply(b *testing.B) {
	for _, c := range []struct {
		name string
		side int
	}{{"road128", 128}, {"road1024", 1024}} {
		b.Run(c.name, func(b *testing.B) {
			g := mustNew(b, graph.RoadGrid(c.side, c.side, 0.1, 1))
			n := int32(g.N())
			batch := make([]Mutation, 16)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			i := int32(0)
			for b.Loop() {
				// Chords u–u+n/2 exist in no grid; when the ids wrap
				// they are taken out again, so deltas stay bounded.
				for k := range batch {
					u := (i*16 + int32(k)) % (n / 2)
					batch[k] = AddEdge(u, u+n/2)
					if (i*16/(n/2))%2 == 1 {
						batch[k].Kind = KindRemoveEdge
					}
				}
				if res, err := g.Apply(batch, TxConfig{}); err != nil || res.Applied != 16 {
					b.Fatalf("applied %d of 16: %v", res.Applied, err)
				}
				if i++; i%8 == 0 {
					g.Freeze()
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(n), "B/vertex")
		})
	}
}
