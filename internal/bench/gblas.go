package bench

import (
	"fmt"
	"reflect"

	"aamgo/internal/algo"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
)

func init() {
	register(Experiment{
		ID:    "gblas",
		Title: "GraphBLAS engine: masked-SpMV backend vs sharded executor and sequential references",
		Paper: "The paper's §7 positions GraphBLAS accumulations as AAM operators; this " +
			"scenario benchmarks the repo's vectorized realization of that algebra — the " +
			"frontier as a sparse vector, one step as a masked SpMV/SpMSpV over a " +
			"semiring — as the third engine behind the facade. Results must be " +
			"bit-identical to the sharded executor and the sequential references; the " +
			"direction heuristic is shared with the sharded BFS, so the push/pull step " +
			"split is deterministic and gates exactly.",
		Run: runGBLAS,
	})
}

func runGBLAS(o Options) *Report {
	rep := &Report{}
	scale := o.shift(11, 6)
	g := graph.AttachSymmetricWeights(graph.Kronecker(scale, 8, o.Seed), uint64(o.Seed))
	src := g.MaxDegreeVertex()
	const prIters = 5
	scfg := shard.Config{Shards: 4, BatchSize: 64}

	t := rep.NewTable("gblas engine vs sharded executor", "algo", "engine", "steps")

	// BFS: level sets must match the sequential depths, and the direction
	// switch must engage on the scale-free frontier on the same levels as
	// the sharded executor's (shared heuristic, shared thresholds).
	refDepth := algo.SeqBFS(g, src)
	parents, levels, bfsRes, err := gblas.EngineBFS(g, src)
	for v := 0; err == nil && v < len(levels); v++ {
		if levels[v] != int64(refDepth[v]) {
			err = fmt.Errorf("level[%d] = %d, sequential %d", v, levels[v], refDepth[v])
		}
	}
	if err == nil {
		err = algo.ValidateBFSTree(g, src, parents, refDepth)
	}
	if err == nil {
		var sres shard.BFSResult
		if sres, err = shard.BFS(g, src, scfg); err == nil {
			t.AddRow("bfs", "shard", fmt.Sprintf("%dp+%dq", sres.PushLevels, sres.PullLevels))
			if sres.PushLevels != bfsRes.PushSteps || sres.PullLevels != bfsRes.PullSteps {
				err = fmt.Errorf("direction decisions diverge from the sharded executor's")
			}
		}
	}
	if err != nil {
		rep.Notef("FAILED: gblas bfs: %v", err)
	}
	t.AddRow("bfs", "gblas", fmt.Sprintf("%dp+%dq", bfsRes.PushSteps, bfsRes.PullSteps))
	rep.Metricf("gblas.bfs.push_steps", float64(bfsRes.PushSteps))
	rep.Metricf("gblas.bfs.pull_steps", float64(bfsRes.PullSteps))
	rep.Checkf(err == nil && bfsRes.PullSteps > 0, "gblas BFS matches and pulls",
		"level sets match the sequential BFS; the shared Beamer heuristic pulled %d of %d steps (same split as the sharded executor)",
		bfsRes.PullSteps, bfsRes.Steps)

	// SSSP: the min-plus fixpoint is unique — distances must equal
	// Dijkstra's bit for bit.
	dists, ssspRes, err := gblas.EngineSSSP(g, src)
	if err == nil && !reflect.DeepEqual(dists, algo.SeqSSSP(g, src)) {
		err = fmt.Errorf("distances diverge from Dijkstra")
	}
	if err != nil {
		rep.Notef("FAILED: gblas sssp: %v", err)
	}
	t.AddRow("sssp", "gblas", itoa(ssspRes.Steps))
	rep.Metricf("gblas.sssp.rounds", float64(ssspRes.Steps))
	rep.Checkf(err == nil, "gblas SSSP matches Dijkstra",
		"min-plus SpMSpV reaches the Bellman fixpoint in %d rounds with bit-identical distances", ssspRes.Steps)

	// PageRank: Q24.40 integer adds commute, so the gblas rank vector must
	// be bit-identical to the sharded executor's at any shard count.
	shardPR, err := shard.PageRank(g, 0.85, prIters, scfg)
	ranks, prRes := gblas.EnginePageRank(g, 0.85, prIters)
	if err == nil && !reflect.DeepEqual(ranks, shardPR.Ranks) {
		err = fmt.Errorf("ranks diverge from the sharded executor")
	}
	if err != nil {
		rep.Notef("FAILED: gblas pagerank: %v", err)
	}
	t.AddRow("pagerank", "gblas", itoa(prRes.Steps))
	rep.Checkf(err == nil, "gblas PageRank bit-identical",
		"Q24.40 rank vector equals the sharded executor's after %d iterations", prIters)

	rep.Notef("graph: Kronecker scale %d (%d vertices, %d arcs), src=%d (max degree), symmetric weights wseed=%d",
		scale, g.N, g.NumEdges(), src, o.Seed)
	rep.Notef("push/pull step splits and sssp rounds are deterministic for a fixed seed and scale; " +
		"what the engine costs in wall time is benchmark/'s gblas.* metrics")
	return rep
}
