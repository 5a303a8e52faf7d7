package shard

import (
	"testing"

	"aamgo/internal/graph"
)

// BenchmarkFlushDrainMessagePath measures one cross-shard operator unit
// through the full coalescing path: spawn into a per-destination buffer,
// size-triggered flush into the owner's inbox, pop and apply. ReportAllocs
// is the regression gate — the steady state must report 0 allocs/op.
func BenchmarkFlushDrainMessagePath(b *testing.B) {
	g := pathGraph(256)
	ex, err := New(g, 1, Config{Shards: 4, BatchSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	inc := ex.Register(&Op{
		Name:   "inc",
		Addr:   func(lv int, arg uint64) int { return lv },
		Mutate: func(c, arg uint64) (uint64, bool) { return c + arg, true },
	})
	sender := ex.shards[0].workers[0]
	drain := func() {
		sender.FlushAll()
		for _, s := range ex.shards[1:] {
			s.drainInbox(s.workers[0])
		}
	}
	// Warm the recycle pool before measuring.
	for i := 0; i < 1024; i++ {
		sender.Spawn(inc, 64+i%192, 1)
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sender.Spawn(inc, 64+i%192, 1)
		if i%1024 == 1023 {
			drain()
		}
	}
	b.StopTimer()
	drain()
}

// BenchmarkSSSPBucketRing measures the flat bucket structure the SSSP
// relaxation loop runs on: push into an epoch-stamped ring slot, take the
// list back, recycle. The map[uint64][]int32 structure this replaced
// allocated on nearly every operation.
func BenchmarkSSSPBucketRing(b *testing.B) {
	r := newBucketRing(66)
	// Warm the slot storage across the window.
	for nb := uint64(0); nb < 66; nb++ {
		for lv := int32(0); lv < 32; lv++ {
			r.push(nb, lv)
		}
		r.recycle(r.take(nb))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := uint64(i) % 1024 // exercises slot reuse across ring wraps
		for lv := int32(0); lv < 32; lv++ {
			r.push(nb, lv)
		}
		r.recycle(r.take(nb))
	}
}

// BenchmarkPartitionOwner compares the two vertex→owner maps on the
// executor's hottest lookup: block division vs edge-balanced binary
// search.
func BenchmarkPartitionOwner(b *testing.B) {
	g := graph.Kronecker(14, 8, 3)
	for _, tc := range []struct {
		name string
		p    graph.Partitioner
	}{
		{"block", graph.NewPartition(g.N, 16)},
		{"edge", graph.NewEdgePartition(g, 16)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += tc.p.Owner(i & (g.N - 1))
			}
			_ = sink
		})
	}
}

// BenchmarkBFSDirection compares push-only against the
// direction-optimizing traversal end to end (the README perf table's
// source).
func BenchmarkBFSDirection(b *testing.B) {
	g := graph.Kronecker(13, 8, 3)
	src := g.MaxDegreeVertex()
	for _, tc := range []struct {
		name string
		dir  Direction
	}{
		{"push", DirPush},
		{"auto", DirAuto},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BFS(g, src, Config{Shards: 4, Dir: tc.dir}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSSSPBuckets runs the full delta-stepping pass (the flat
// bucket rings under their real access pattern).
func BenchmarkSSSPBuckets(b *testing.B) {
	g := graph.AttachSymmetricWeights(graph.Kronecker(12, 8, 3), 7)
	src := g.MaxDegreeVertex()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SSSP(g, src, 0, Config{Shards: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
