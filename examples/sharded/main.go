// Sharded: the multi-shard executor in action. The same graph runs BFS,
// PageRank and connected components across growing shard counts — every
// shard a real-goroutine worker pool with its own isolation mechanism,
// coupled only by coalesced cross-shard operator batches — and the
// results are verified identical to the single-runtime algorithms. A
// second sweep shows the coalescing batch size collapsing the message
// count, the inter-shard analogue of the paper's Figure 5 C factor. The
// final section runs the irregular trio — delta-stepping SSSP, Borůvka
// MST and greedy coloring — and cross-checks them against the sequential
// references.
//
// The façade's way in is Config{Engine: aamgo.EngineShard}; this example
// sets what it does not expose (workers per shard, flush policy, BFS
// direction), so it drives internal/shard itself.
//
// Run with: go run ./examples/sharded
package main

import (
	"fmt"
	"log"

	"aamgo"
	"aamgo/internal/shard"
)

func main() {
	g := aamgo.Kronecker(13, 8, 42)
	src := g.MaxDegreeVertex()
	fmt.Printf("graph: %d vertices, %d arcs\n\n", g.N, g.NumEdges())

	// Single-runtime references.
	singlePR, _, err := aamgo.PageRank(g, 0.85, 5, aamgo.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("shard-count sweep (BFS, workers=1, batch=64):")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := shard.BFS(g, src, shard.Config{
			Shards: shards, BatchSize: 64,
		})
		if err != nil {
			log.Fatal(err)
		}
		ms := float64(res.Elapsed.Nanoseconds()) / 1e6
		if shards == 1 {
			base = ms
		}
		tot := res.Totals()
		fmt.Printf("  %d shard(s): %6.2f ms  speedup %.2fx  levels %d  remote units %d in %d batches\n",
			shards, ms, base/ms, res.Levels, tot.RemoteUnitsSent, tot.RemoteBatchesSent)
	}

	// BFS is direction-optimizing by default; forcing push-only shows what
	// the per-level push/pull switch saves on a frontier-heavy R-MAT graph.
	// PartEdge swaps the block distribution for edge-balanced boundaries.
	fmt.Println("\ndirection + partition (BFS, 4 shards):")
	for _, c := range []struct {
		label string
		cfg   shard.Config
	}{
		{"push-only, block", shard.Config{Shards: 4, Dir: shard.DirPush}},
		{"auto,      block", shard.Config{Shards: 4}},
		{"auto,      edge ", shard.Config{Shards: 4, Part: shard.PartEdge}},
	} {
		res, err := shard.BFS(g, src, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		tot := res.Totals()
		fmt.Printf("  %s: %6.2f ms  %d push + %d pull levels, %d remote units, %.1f allocs/epoch\n",
			c.label, float64(res.Elapsed.Nanoseconds())/1e6,
			res.PushLevels, res.PullLevels, tot.RemoteUnitsSent, res.AllocsPerEpoch())
	}

	// The sharded PageRank accumulates in the same fixed point as the
	// single-runtime version: the rank vectors are bit-identical.
	sres, err := shard.PageRank(g, 0.85, 5, shard.Config{
		Shards: 4, Workers: 2, Mechanism: aamgo.Optimistic,
	})
	if err != nil {
		log.Fatal(err)
	}
	for v := range singlePR {
		if singlePR[v] != sres.Ranks[v] {
			log.Fatalf("rank[%d] diverged: %g vs %g", v, sres.Ranks[v], singlePR[v])
		}
	}
	tot := sres.Totals()
	fmt.Printf("\npagerank (4 shards × 2 workers, occ): bit-identical ranks, "+
		"%d aborts, %d retries\n\n", tot.Aborts, tot.Retries)

	fmt.Println("coalescing sweep (CC, 4 shards):")
	for _, p := range []struct {
		policy shard.FlushPolicy
		batch  int
		label  string
	}{
		{shard.FlushEager, 1, "eager"},
		{shard.FlushBySize, 64, "size=64"},
		{shard.FlushByEpoch, 0, "epoch"},
	} {
		res, err := shard.Components(g, shard.Config{
			Shards: 4, BatchSize: p.batch, Flush: p.policy,
		})
		if err != nil {
			log.Fatal(err)
		}
		tot := res.Totals()
		fmt.Printf("  %-8s %6.2f ms  %d units in %d batches (%.1f units/batch)\n",
			p.label, float64(res.Elapsed.Nanoseconds())/1e6,
			tot.RemoteUnitsSent, tot.RemoteBatchesSent,
			float64(tot.RemoteUnitsSent)/float64(max(tot.RemoteBatchesSent, 1)))
	}

	// Irregular trio: SSSP buckets relaxations behind the bucket-epoch
	// barrier, MST proposes min edges as cross-shard min-combines,
	// coloring ships one counter decrement per edge.
	wg := aamgo.AttachSymmetricWeights(g, 42)

	fmt.Println("\nirregular trio (4 shards × 2 workers):")
	cfg := shard.Config{Shards: 4, Workers: 2, BatchSize: 64}
	ssp, err := shard.SSSP(wg, src, 0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	reached := 0
	for _, d := range ssp.Dists {
		if d != ^uint64(0) {
			reached++
		}
	}
	st := ssp.Totals()
	fmt.Printf("  sssp:     %6.2f ms  %d buckets (delta %d), %d reached, %d remote units in %d batches\n",
		float64(ssp.Elapsed.Nanoseconds())/1e6, ssp.Buckets, ssp.Delta, reached,
		st.RemoteUnitsSent, st.RemoteBatchesSent)

	mst, err := shard.MST(wg, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mt := mst.Totals()
	fmt.Printf("  mst:      %6.2f ms  weight %d over %d edges in %d rounds, %d remote units\n",
		float64(mst.Elapsed.Nanoseconds())/1e6, mst.Weight, mst.Edges, mst.Rounds, mt.RemoteUnitsSent)

	col, err := shard.Coloring(wg, 0, cfg) // seed 0 = sequential greedy order
	if err != nil {
		log.Fatal(err)
	}
	ct := col.Totals()
	fmt.Printf("  coloring: %6.2f ms  %d colors in %d rounds, %d remote units\n",
		float64(col.Elapsed.Nanoseconds())/1e6, col.Used, col.Rounds, ct.RemoteUnitsSent)

	// Cross-check against the unsharded façade paths: SSSP on the GraphBLAS
	// engine (the aam simulator commits about 96 transactions an arc here
	// and takes most of a minute), MST on the single runtime.
	dists, _, err := aamgo.SSSP(wg, src, aamgo.Config{Engine: aamgo.EngineGBLAS})
	if err != nil {
		log.Fatal(err)
	}
	for v := range dists {
		if dists[v] != ssp.Dists[v] {
			log.Fatalf("dist[%d] diverged: %d vs %d", v, ssp.Dists[v], dists[v])
		}
	}
	weight, _, _, err := aamgo.MST(wg, aamgo.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if weight != mst.Weight {
		log.Fatalf("MST weight diverged: %d vs %d", mst.Weight, weight)
	}
	fmt.Println("\nsharded SSSP distances verified against the GraphBLAS engine, MST weight against the single runtime")
}
