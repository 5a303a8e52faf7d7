package graph

import (
	"fmt"
	"runtime"
	"testing"
)

// perArc runs build b.N times and reports its time and allocated bytes per
// stored arc, so the numbers compare across graph sizes.
func perArc(b *testing.B, build func() *Graph) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var arcs int64
	for b.Loop() {
		arcs += build().NumEdges()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arcs), "ns/arc")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(arcs), "B/arc")
}

func BenchmarkKroneckerBuild(b *testing.B) {
	for _, scale := range []int{14, 16, 18} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			perArc(b, func() *Graph { return Kronecker(scale, 16, 1) })
		})
	}
}

func BenchmarkRoadGridBuild(b *testing.B) {
	perArc(b, func() *Graph { return RoadGrid(1024, 1024, 0.1, 1) })
}
