package bench

import (
	"aamgo/internal/graph"
	"aamgo/internal/query"
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
	src := g.MaxDegreeVertex()

	// SSSP takes the auto-selected delta and coloring the identity priority
	// order (seed 0).
	args := query.Args{Src: src}
	var cases []shardCase
	for _, name := range []string{"sssp", "mst", "coloring"} {
		cases = append(cases, registryCase(name, g, args, false))
	}
	// Distinct delta-stepping buckets processed by the flat bucket rings: a
	// drift means the bucket structure changed behavior.
	cases[0].roundsMetric = "sssp.buckets.s4"

	rep.Checkf(shardSweepPart(rep, cases), "irregular results identical",
		"SSSP = Dijkstra, MST weight = Kruskal and min-id labels, coloring proper with used = max + 1, across shards %v", shardCounts)
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
