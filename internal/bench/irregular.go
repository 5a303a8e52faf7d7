package bench

import (
	"fmt"
	"reflect"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
)

func init() {
	register(Experiment{
		ID:    "sharded-irregular",
		Title: "Sharded irregular workloads: delta-stepping SSSP, Borůvka MST, greedy coloring",
		Paper: "The priority-driven and component-merging case studies of §3.3/§5.4 on " +
			"the sharded coalescing executor: SSSP buckets relaxations behind a shared " +
			"bucket-epoch barrier, Borůvka proposes minimum edges as cross-shard " +
			"min-combines, coloring ships one counter decrement per edge. Results are " +
			"verified against the sequential references at every shard count; the " +
			"cross-shard unit counts are deterministic for a fixed seed and scale.",
		Run: runShardedIrregular,
	})
}

func runShardedIrregular(o Options) *Report {
	rep := &Report{}
	scale := o.shift(11, 6)
	g := graph.AttachSymmetricWeights(graph.Kronecker(scale, 8, o.Seed), uint64(o.Seed))
	src := maxDegVertex(g)

	refDist := algo.SeqSSSP(g, src)
	refWeight := algo.SeqMSTWeight(g)
	refColors, refUsed := algo.GreedyColoring(g)
	cases := []shardCase{
		// Distinct delta-stepping buckets processed by the flat bucket
		// rings: a drift means the bucket structure changed behavior.
		{name: "sssp", roundsMetric: "sssp.buckets.s4", run: func(cfg shard.Config) (shard.Result, int, error) {
			res, err := shard.SSSP(g, src, 0, cfg)
			if err == nil && !reflect.DeepEqual(res.Dists, refDist) {
				err = fmt.Errorf("sssp distances diverge from Dijkstra")
			}
			return res.Result, res.Buckets, err
		}},
		{name: "mst", run: func(cfg shard.Config) (shard.Result, int, error) {
			res, err := shard.MST(g, cfg)
			if err == nil && res.Weight != refWeight {
				err = fmt.Errorf("mst weight %d != Kruskal %d", res.Weight, refWeight)
			}
			return res.Result, res.Rounds, err
		}},
		{name: "coloring", run: func(cfg shard.Config) (shard.Result, int, error) {
			res, err := shard.Coloring(g, 0, cfg)
			if err == nil && (!reflect.DeepEqual(res.Colors, refColors) || res.Used != refUsed) {
				err = fmt.Errorf("coloring diverges from the greedy reference")
			}
			return res.Result, res.Rounds, err
		}},
	}

	rep.Checkf(shardSweepPart(rep, cases), "irregular results identical",
		"SSSP = Dijkstra, MST weight = Kruskal, coloring = sequential greedy across shards %v", shardCounts)
	rep.Checkf(shardPartitionPart(rep, cases, false), "partition schemes equivalent",
		"SSSP, MST and coloring results identical under block and edge-balanced partitions")
	// The bucket-epoch barrier does not change the relaxation unit count,
	// only how it is batched.
	shardCoalescePart(rep, cases[0])

	rep.Notef("graph: Kronecker scale %d (%d vertices, %d arcs), src=%d, symmetric distinct weights",
		scale, g.N, g.NumEdges(), src)
	rep.Notef("remote_units/remote_batches/batch_reduction are deterministic for a fixed seed and scale " +
		"(workers=1: per-shard execution is sequential, bucket lists are sorted, priorities are hashes)")
	return rep
}
