package dyn

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"aamgo/internal/graph"
)

// BenchmarkDynNew times wrapping a generated base — one sweep over the arcs
// (range check, sortedness), plus the in-place segment sort when a segment
// is unsorted — and reports time and allocated bytes per stored arc.
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
			restore := unsortedOrder(c.base)
			runtime.ReadMemStats(&before)
			for b.Loop() {
				restore(b)
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

// unsortedOrder returns a function that puts base's arcs back in the order
// they have now, untimed: New sorts an unsorted base in place, and every
// iteration of a benchmark should pay for that sort. For a sorted base it
// does nothing.
func unsortedOrder(base *graph.Graph) func(b *testing.B) {
	if sorted, _ := sweepBase(base, 0); sorted {
		return func(*testing.B) {}
	}
	orig := slices.Clone(base.Adj)
	return func(b *testing.B) {
		b.StopTimer()
		copy(base.Adj, orig)
		b.StartTimer()
	}
}

// BenchmarkDynFirstComponents times the two requests that pay for the
// component forest: the first ComponentCount on a new graph (with the New,
// so the sum is what boot plus the first /query/cc costs) and the first one
// after a delete batch (ns/arc and B/vertex of the ask alone; ns/op has the
// two batches in it). ns/arc is per stored arc of the base, B/vertex the
// allocated bytes per vertex — the forest is 4.
func BenchmarkDynFirstComponents(b *testing.B) {
	for _, c := range []struct {
		name string
		base *graph.Graph
	}{
		{"road1024", graph.RoadGrid(1024, 1024, 0.1, 1)},
		{"kron16", graph.Kronecker(16, 16, 1)},
	} {
		arcs, n := float64(c.base.NumEdges()), float64(c.base.N)
		b.Run(c.name+"/new+first", func(b *testing.B) {
			var before, after runtime.MemStats
			restore := unsortedOrder(c.base)
			runtime.ReadMemStats(&before)
			for b.Loop() {
				restore(b)
				mustNew(b, c.base).ComponentCount()
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arcs/float64(b.N), "ns/arc")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n/float64(b.N), "B/vertex")
		})
		b.Run(c.name+"/after-delete", func(b *testing.B) {
			// 16 base edges spread over the graph go and come back, so 32
			// vertices carry deltas at every ask and the deltas stay bounded.
			g := mustNew(b, c.base)
			del, add := make([]Mutation, 0, 16), make([]Mutation, 0, 16)
			for u := int32(0); len(del) < 16; u += int32(c.base.N / 16) {
				v := u
				for c.base.Degree(int(v)) == 0 || c.base.Neighbors(int(v))[0] == v {
					v++
				}
				w := c.base.Neighbors(int(v))[0]
				del, add = append(del, RemoveEdge(v, w)), append(add, AddEdge(v, w))
			}
			var ask time.Duration
			var bytes uint64
			var before, after runtime.MemStats
			for b.Loop() {
				if res, err := g.Apply(del, TxConfig{}); err != nil || res.Applied != 16 {
					b.Fatalf("deleted %d of 16: %v", res.Applied, err)
				}
				runtime.ReadMemStats(&before)
				start := time.Now()
				g.ComponentCount()
				ask += time.Since(start)
				runtime.ReadMemStats(&after)
				bytes += after.TotalAlloc - before.TotalAlloc
				if res, err := g.Apply(add, TxConfig{}); err != nil || res.Applied != 16 {
					b.Fatalf("restored %d of 16: %v", res.Applied, err)
				}
			}
			b.ReportMetric(float64(ask.Nanoseconds())/arcs/float64(b.N), "ns/arc")
			b.ReportMetric(float64(bytes)/n/float64(b.N), "B/vertex")
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
