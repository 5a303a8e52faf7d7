package shard

import (
	"fmt"
	"reflect"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// partConfigs is the scheme × shards × workers × mechanism matrix the
// edge-balanced partition is verified over (alongside the default block
// configs the rest of the suite exercises).
var partConfigs = []Config{
	{Shards: 2, Part: PartEdge, BatchSize: 1, Flush: FlushEager},
	{Shards: 3, Part: PartEdge, BatchSize: 4},
	{Shards: 4, Part: PartEdge, Workers: 2, Flush: FlushByEpoch, Mechanism: aam.MechLock},
	{Shards: 8, Part: PartEdge, BatchSize: 16, Mechanism: aam.MechOptimistic},
}

// TestPartitionSchemesEquivalent runs every sharded algorithm under the
// edge-balanced partition and demands results identical to the sequential
// references — i.e., to what the block-partition suite already pins. The
// boundaries move, the answers may not.
func TestPartitionSchemesEquivalent(t *testing.T) {
	for name, g := range testGraphs(t) {
		src := g.MaxDegreeVertex()
		refBFS := algo.SeqBFS(g, src)
		refCC := algo.SeqComponents(g)
		wg := weighted(g, 5)
		refDist := algo.SeqSSSP(wg, src)
		refWeight := algo.SeqMSTWeight(wg)
		refColors, refUsed := algo.GreedyColoring(g)
		var refPR []float64

		for _, cfg := range partConfigs {
			bres, err := BFS(g, src, cfg)
			if err != nil {
				t.Fatalf("%s %+v bfs: %v", name, cfg, err)
			}
			if err := algo.ValidateBFSTree(g, src, bres.Parents, refBFS); err != nil {
				t.Fatalf("%s %+v bfs: %v", name, cfg, err)
			}

			pres, err := PageRank(g, 0.85, 5, cfg)
			if err != nil {
				t.Fatalf("%s %+v pagerank: %v", name, cfg, err)
			}
			if refPR == nil {
				// First config doubles as the cross-scheme anchor: block
				// partition, same damping/iterations, must be bit-identical.
				anchor, err := PageRank(g, 0.85, 5, Config{Shards: 3})
				if err != nil {
					t.Fatalf("%s anchor pagerank: %v", name, err)
				}
				refPR = anchor.Ranks
			}
			if !reflect.DeepEqual(pres.Ranks, refPR) {
				t.Fatalf("%s %+v: edge-partition ranks diverge from block-partition ranks", name, cfg)
			}

			cres, err := Components(g, cfg)
			if err != nil {
				t.Fatalf("%s %+v cc: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(cres.Labels, refCC) {
				t.Fatalf("%s %+v: cc labels diverge", name, cfg)
			}

			sres, err := SSSP(wg, src, 0, cfg)
			if err != nil {
				t.Fatalf("%s %+v sssp: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(sres.Dists, refDist) {
				t.Fatalf("%s %+v: sssp distances diverge from Dijkstra", name, cfg)
			}

			mres, err := MST(wg, cfg)
			if err != nil {
				t.Fatalf("%s %+v mst: %v", name, cfg, err)
			}
			if mres.Weight != refWeight {
				t.Fatalf("%s %+v: mst weight %d, Kruskal %d", name, cfg, mres.Weight, refWeight)
			}

			colres, err := Coloring(g, 0, cfg)
			if err != nil {
				t.Fatalf("%s %+v coloring: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(colres.Colors, refColors) || colres.Used != refUsed {
				t.Fatalf("%s %+v: coloring diverges from greedy reference", name, cfg)
			}
		}
	}
}

// TestPartitionSchemeMechanisms runs the edge partition under all five
// isolation mechanisms at every mechShapes shape, with intra-shard
// contention (the star's hub shard takes every operator fight), covering
// the traversal, fixed-point and priority-driven operator shapes.
func TestPartitionSchemeMechanisms(t *testing.T) {
	g := starGraph(512)
	wg := weighted(g, 17)
	ref := algo.SeqBFS(g, 0)
	seq := algo.SeqComponents(g)
	refDist := algo.SeqSSSP(wg, 0)
	refColors, _ := algo.GreedyColoring(g)
	for _, shape := range mechShapes {
		for _, mech := range allMechs {
			cfg := shape
			cfg.Part, cfg.Mechanism = PartEdge, mech
			name := fmt.Sprintf("%v, %d shards", mech, cfg.Shards)
			res, err := BFS(g, 0, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := algo.ValidateBFSTree(g, 0, res.Parents, ref); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cc, err := Components(g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(cc.Labels, seq) {
				t.Fatalf("%s: cc labels diverge", name)
			}
			sr, err := SSSP(wg, 0, 0, cfg)
			if err != nil {
				t.Fatalf("%s sssp: %v", name, err)
			}
			if !reflect.DeepEqual(sr.Dists, refDist) {
				t.Fatalf("%s: sssp distances diverge", name)
			}
			cr, err := Coloring(g, 0, cfg)
			if err != nil {
				t.Fatalf("%s coloring: %v", name, err)
			}
			if !reflect.DeepEqual(cr.Colors, refColors) {
				t.Fatalf("%s: coloring diverges", name)
			}
		}
	}
}

// TestBFSDirections pins the direction-optimizing traversal: push-only,
// pull-only and auto-switching must all produce the reference depth
// labeling, and auto must actually exercise both directions on a
// pull-friendly graph.
func TestBFSDirections(t *testing.T) {
	for name, g := range testGraphs(t) {
		src := g.MaxDegreeVertex()
		ref := algo.SeqBFS(g, src)
		for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
			for _, cfg := range []Config{
				{Shards: 1, Dir: dir},
				{Shards: 4, Dir: dir, BatchSize: 8},
				{Shards: 3, Dir: dir, Workers: 2, Flush: FlushByEpoch},
				{Shards: 4, Dir: dir, Part: PartEdge, BatchSize: 16},
			} {
				res, err := BFS(g, src, cfg)
				if err != nil {
					t.Fatalf("%s %v %+v: %v", name, dir, cfg, err)
				}
				if err := algo.ValidateBFSTree(g, src, res.Parents, ref); err != nil {
					t.Fatalf("%s %v %+v: %v", name, dir, cfg, err)
				}
				switch dir {
				case DirPush:
					if res.PullLevels != 0 {
						t.Fatalf("%s DirPush ran %d pull levels", name, res.PullLevels)
					}
				case DirPull:
					if res.PushLevels != 0 {
						t.Fatalf("%s DirPull ran %d push levels", name, res.PushLevels)
					}
				}
				if res.PushLevels+res.PullLevels != res.Levels+1 {
					t.Fatalf("%s %v: %d push + %d pull levels != %d levels + 1",
						name, dir, res.PushLevels, res.PullLevels, res.Levels)
				}
			}
		}
	}

	// A star from the hub floods the whole graph at level 0: auto must
	// take the pull path, and a pull level must spawn no messages.
	star := starGraph(4096)
	res, err := BFS(star, 0, Config{Shards: 4, Dir: DirAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.PullLevels == 0 {
		t.Fatal("auto direction never pulled on a star frontier")
	}
	if tot := res.Totals(); tot.RemoteUnitsSent != 0 {
		t.Fatalf("pull-only star traversal sent %d remote units", tot.RemoteUnitsSent)
	}
}

// TestBFSDirectedFallsBackToPush: the CSR has no reverse adjacency, so
// directed graphs must push even when pull is requested.
func TestBFSDirectedFallsBackToPush(t *testing.T) {
	g := graph.CitationDAG(10, 4, 3)
	if !g.Directed {
		t.Fatal("fixture not directed")
	}
	src := g.MaxDegreeVertex()
	ref := algo.SeqBFS(g, src)
	for _, dir := range []Direction{DirAuto, DirPull} {
		res, err := BFS(g, src, Config{Shards: 4, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if res.PullLevels != 0 {
			t.Fatalf("%v: %d pull levels on a directed graph", dir, res.PullLevels)
		}
		if err := algo.ValidateBFSTree(g, src, res.Parents, ref); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMessagePathZeroAllocSteadyState is the acceptance gate for the
// recycled coalescing buffers: once the pool is warm, a full
// spawn→flush→deliver→apply cycle performs zero heap allocations. It runs
// the same harness the `sharded` bench scenario gates in CI.
func TestMessagePathZeroAllocSteadyState(t *testing.T) {
	cycle, bufferAllocs := MessagePathCycle()
	// Warm-up: populate the recycle pool (first epochs allocate buffers,
	// counted in BufferAllocs) and let the per-worker caches spill over.
	for i := 0; i < 4; i++ {
		cycle()
	}
	warm := bufferAllocs()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("steady-state message path allocates %.1f objects per cycle", avg)
	}
	if got := bufferAllocs(); got != warm {
		t.Fatalf("BufferAllocs moved %d→%d in steady state", warm, got)
	}
}

// TestAllocsPerEpochBounded runs a real multi-epoch algorithm and checks
// buffer recycling holds end to end: the pool warms during the first
// epochs, so total allocations stay well below the batch count and the
// reported AllocsPerEpoch reflects reuse rather than per-flush churn.
func TestAllocsPerEpochBounded(t *testing.T) {
	g := graph.Kronecker(10, 8, 3)
	res, err := PageRank(g, 0.85, 10, Config{Shards: 4, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.RemoteBatchesSent == 0 {
		t.Fatal("fixture sent no batches")
	}
	// 10 identical iterations: without recycling, allocations ≈ batches;
	// with it, ≈ one iteration's peak. Allow 2× the per-iteration share.
	if limit := tot.RemoteBatchesSent/5 + 16; tot.BufferAllocs > limit {
		t.Fatalf("BufferAllocs %d exceeds reuse bound %d (batches %d)",
			tot.BufferAllocs, limit, tot.RemoteBatchesSent)
	}
	if res.AllocsPerEpoch() >= float64(tot.RemoteBatchesSent)/float64(res.Epochs)/2 {
		t.Fatalf("AllocsPerEpoch %.1f not clearly below batches/epoch %.1f",
			res.AllocsPerEpoch(), float64(tot.RemoteBatchesSent)/float64(res.Epochs))
	}
}
