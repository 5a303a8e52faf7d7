package bench

import (
	"fmt"

	"aamgo/internal/graph"
	"aamgo/internal/query"
	"aamgo/internal/shard"
)

func init() {
	register(Experiment{
		ID:    "net",
		Title: "Distributed shard engine over loopback TCP: wire traffic and cross-transport equivalence",
		Paper: "The multi-process port of the sharded coalescing executor: a coordinator and two " +
			"worker ranks connected over loopback TCP run the same SPMD drivers as the in-process " +
			"engine, cross-shard batches travel as length-prefixed wire frames, and Drain becomes " +
			"a sent/received counter exchange. Results must be bit-identical to the in-process " +
			"engine; at workers=1 the per-algorithm batch-frame counts and bytes on the wire are " +
			"deterministic for a fixed seed and scale, so they gate exactly like the remote-unit " +
			"counts of the sharded experiments.",
		Run: runNet,
	})
}

func runNet(o Options) *Report {
	rep := &Report{}
	scale := o.shift(10, 6)
	g := graph.AttachSymmetricWeights(graph.Kronecker(scale, 8, o.Seed), uint64(o.Seed))
	src := g.MaxDegreeVertex()

	const clusterWorkers = 2
	c, err := shard.NewCluster("127.0.0.1:0", clusterWorkers)
	if err != nil {
		rep.Checkf(false, "cluster starts", "listen: %v", err)
		return rep
	}
	joined := make(chan error, clusterWorkers)
	for i := 0; i < clusterWorkers; i++ {
		go func() { joined <- shard.JoinCluster(c.Addr()) }()
	}
	if err := c.Accept(); err != nil {
		c.Close()
		rep.Checkf(false, "cluster starts", "accept: %v", err)
		return rep
	}
	defer func() {
		c.Close()
		for i := 0; i < clusterWorkers; i++ {
			if err := <-joined; err != nil {
				rep.Checkf(false, "workers exit cleanly", "worker: %v", err)
			}
		}
	}()

	// Workers=1 keeps per-shard execution sequential, which makes the
	// batch-frame stream — and therefore the wire byte counts — exact.
	cfg := shard.Config{Shards: 4, Workers: 1, BatchSize: 64}

	t := rep.NewTable(fmt.Sprintf("loopback cluster, 1 coordinator + %d workers (shards=4, workers=1, batch=64)", clusterWorkers),
		"algo", "wire-batches", "wire-bytes", "remote-units", "identical")

	// Each algorithm runs on the cluster and in-process, and both answers
	// are held to the descriptor's Verify — the sequential reference, and
	// the value all runs agree on bit for bit: BFS depth vectors (parents
	// race benignly, depths are the invariant), PageRank rank bits
	// (fixed-point arithmetic), and SSSP distance bits against Dijkstra as a
	// third, weighted min-combine path whose bytes are not gated.
	args := query.Args{Src: src, Damping: 0.85, Iters: 20}
	env := query.Env{Shard: cfg, Cluster: c}
	algos := []struct{ name, bytesMetric string }{
		{"bfs", "shard.bytes_on_wire.bfs"},
		{"pagerank", "shard.bytes_on_wire.pagerank"},
		{"sssp", ""},
	}
	identical, crossed := true, true
	var gatedBatches uint64
	for _, a := range algos {
		d := query.Lookup(a.name)
		var agree any
		res, err := verifiedRun(d, query.EngineCluster, g, args, env, &agree)
		if err == nil {
			_, err = verifiedRun(d, query.EngineShard, g, args, env, &agree)
		}
		same := err == nil
		if !same {
			rep.Notef("FAILED: %s: %v", a.name, err)
		}
		identical = identical && same
		tot := res.Shard.Totals() // the shard run funcs report counters on failure too
		t.AddRow(a.name, utoa(tot.WireBatchesSent), utoa(tot.WireBytesSent),
			utoa(tot.RemoteUnitsSent), fmt.Sprintf("%v", same))
		if a.bytesMetric != "" {
			rep.Metricf(a.bytesMetric, float64(tot.WireBytesSent))
			gatedBatches += tot.WireBatchesSent
			crossed = crossed && tot.WireBatchesSent > 0
		}
	}
	rep.Metricf("shard.wire_batches", float64(gatedBatches))
	rep.Checkf(identical, "cross-transport identical",
		"BFS depths, PageRank rank bits and SSSP distance bits match the in-process engine and the sequential references")
	rep.Checkf(crossed, "batches crossed the wire",
		"bfs and pagerank each sent batch frames, %d in total (per algorithm in the table)", gatedBatches)

	rep.Notef("graph: Kronecker scale %d (%d vertices, %d arcs), src=%d, symmetric distinct weights",
		scale, g.N, g.NumEdges(), src)
	rep.Notef("shard.bytes_on_wire.* and shard.wire_batches count ftBatch frames at the origin rank " +
		"(header included) and are deterministic at workers=1: spawns happen only in compute phases, " +
		"per-shard execution is sequential, and flush boundaries are fixed by the batch size. " +
		"State-sync and collective bytes are excluded — the Drain loop count is timing-dependent")
	return rep
}
