package query

import (
	"fmt"
	"strconv"

	"aamgo/internal/algo"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
)

// Registry is the algorithm × engine matrix, in presentation order. Adding an algorithm is one
// entry here (plus a job in internal/shard's wire table if it runs on the
// cluster); adding an engine is one Engines key per algorithm it covers.
var Registry = []*Descriptor{
	{
		Name: "bfs", Title: "BFS", PredictM: true,
		Params:  []Param{paramSrc},
		Engines: map[string]RunFunc{EngineAAM: aamBFS, EngineShard: shardBFS, EngineCluster: shardBFS, EngineGBLAS: gblasBFS},
	},
	{
		Name: "cc", Title: "Components",
		Params: []Param{{Name: "mech", NotOn: map[string]string{
			EngineAAM: "mech only applies to the sharded components query (add ?shards=N)"}}},
		Engines: map[string]RunFunc{EngineAAM: aamCC, EngineShard: shardCC, EngineCluster: shardCC},
	},
	{
		Name: "pagerank", Title: "PageRank", PredictM: true,
		Params:  []Param{paramIters, paramDamping, paramTop},
		Engines: map[string]RunFunc{EngineAAM: aamPageRank, EngineShard: shardPageRank, EngineCluster: shardPageRank, EngineGBLAS: gblasPageRank},
	},
	{
		Name: "sssp", Title: "SSSP", Weighted: true, PredictM: true,
		Params: []Param{paramSrc, paramWSeed, uintParam("delta", func(a *Args) *uint64 { return &a.Delta },
			map[string]string{EngineGBLAS: "delta only applies to the sharded delta-stepping SSSP"})},
		Engines: map[string]RunFunc{EngineAAM: aamSSSP, EngineShard: shardSSSP, EngineCluster: shardSSSP, EngineGBLAS: gblasSSSP},
	},
	{
		Name: "mst", Title: "MST", Weighted: true,
		Params:  []Param{paramWSeed},
		Engines: map[string]RunFunc{EngineAAM: aamMST, EngineShard: shardMST, EngineCluster: shardMST},
	},
	{
		Name: "coloring", Title: "Coloring",
		// The priority seed orders the sharded Jones-Plassmann coloring; the
		// single-runtime Boman algorithm has no such knob.
		Params: []Param{uintParam("seed", func(a *Args) *uint64 { return &a.Seed },
			map[string]string{EngineAAM: "seed only applies to the sharded coloring (add ?shards=N)"})},
		Engines: map[string]RunFunc{EngineAAM: aamColoring, EngineShard: shardColoring, EngineCluster: shardColoring},
	},
}

func badParam(name, v string) error { return fmt.Errorf("bad %s %q", name, v) }

// uintParam is an optional non-negative integer parameter stored in *field.
func uintParam(name string, field func(*Args) *uint64, notOn map[string]string) Param {
	return Param{Name: name, NotOn: notOn, Parse: func(a *Args, v string, _ int) error {
		n, err := strconv.ParseUint(v, 10, 63)
		if err != nil {
			return badParam(name, v)
		}
		*field(a) = n
		return nil
	}}
}

var (
	// paramSrc is range-checked here, on every engine: the sharded executor
	// re-checks, but the single-runtime algorithms would panic.
	paramSrc = Param{Name: "src", Required: true, Parse: func(a *Args, v string, n int) (err error) {
		if a.Src, err = strconv.Atoi(v); err != nil {
			return fmt.Errorf("bad src: %v", err)
		}
		if a.Src < 0 || a.Src >= n {
			return fmt.Errorf("src %d out of range [0,%d)", a.Src, n)
		}
		return nil
	}}
	paramWSeed = uintParam("wseed", func(a *Args) *uint64 { return &a.WSeed }, nil)
	paramIters = Param{Name: "iters", Parse: func(a *Args, v string, _ int) (err error) {
		if a.Iters, err = strconv.Atoi(v); err != nil || a.Iters < 1 || a.Iters > 1000 {
			return badParam("iters", v)
		}
		return nil
	}}
	paramDamping = Param{Name: "damping", Parse: func(a *Args, v string, _ int) (err error) {
		if a.Damping, err = strconv.ParseFloat(v, 64); err != nil || a.Damping <= 0 || a.Damping >= 1 {
			return badParam("damping", v)
		}
		return nil
	}}
	// An explicit top is also validated against the graph size, on every
	// engine: a request for more vertices than the graph has is a caller
	// error, not a truncation.
	paramTop = Param{Name: "top",
		Parse: func(a *Args, v string, _ int) (err error) {
			if a.Top, err = strconv.Atoi(v); err != nil || a.Top < 1 {
				return badParam("top", v)
			}
			return nil
		},
		Bound: func(a Args, n int) error {
			if a.Top > n {
				return fmt.Errorf("top %d out of range [1,%d]", a.Top, n)
			}
			return nil
		}}
)

func aamBFS(g *graph.Graph, a Args, e Env) (Result, error) {
	b := algo.NewBFS(g, e.Nodes, algo.BFSConfig{Mode: algo.BFSAAM, Engine: e.AAM, VisitedCheck: true})
	m, res := e.RunAAM(e.Nodes, b, b.Body(a.Src))
	return Result{Parents: b.Parents(m), AAM: res}, nil
}

// The shard and cluster engines share one run func per algorithm:
// e.Cluster is nil on the shard engine (Descriptor.Run sees to it), and
// the nil *shard.Cluster runs its jobs in-process.
func shardBFS(g *graph.Graph, a Args, e Env) (Result, error) {
	res, err := e.Cluster.BFS(g, a.Src, e.Shard)
	return Result{Parents: res.Parents, Steps: res.Levels, Shard: &res.Result}, err
}

func gblasBFS(g *graph.Graph, a Args, _ Env) (Result, error) {
	parents, _, res, err := gblas.EngineBFS(g, a.Src)
	// Steps counts frontier expansions including the final empty one, so
	// the depth matches the sharded engine's Levels.
	return Result{Parents: parents, Steps: res.Steps - 1, GBLAS: &res}, err
}

func aamCC(g *graph.Graph, _ Args, e Env) (Result, error) {
	cc := algo.NewCC(g, e.Nodes)
	m, res := e.RunAAM(e.Nodes, cc, cc.Body(e.AAM))
	return Result{Labels: cc.Labels(m), AAM: res}, nil
}

func shardCC(g *graph.Graph, _ Args, e Env) (Result, error) {
	res, err := e.Cluster.Components(g, e.Shard)
	return Result{Labels: res.Labels, Steps: res.Rounds, Shard: &res.Result}, err
}

func aamPageRank(g *graph.Graph, a Args, e Env) (Result, error) {
	p := algo.NewPageRank(g, e.Nodes, algo.PRConfig{Damping: a.Damping, Iterations: a.Iters, Engine: e.AAM})
	m, res := e.RunAAM(e.Nodes, p, p.Body())
	return Result{Ranks: p.Ranks(m), AAM: res}, nil
}

func shardPageRank(g *graph.Graph, a Args, e Env) (Result, error) {
	res, err := e.Cluster.PageRank(g, a.Damping, a.Iters, e.Shard)
	return Result{Ranks: res.Ranks, Shard: &res.Result}, err
}

func gblasPageRank(g *graph.Graph, a Args, _ Env) (Result, error) {
	ranks, res := gblas.EnginePageRank(g, a.Damping, a.Iters)
	return Result{Ranks: ranks, GBLAS: &res}, nil
}

func aamSSSP(g *graph.Graph, a Args, e Env) (Result, error) {
	s := algo.NewSSSP(g, e.Nodes)
	m, res := e.RunAAM(e.Nodes, s, s.Body(a.Src, e.AAM))
	return Result{Dists: s.Dists(m), AAM: res}, nil
}

func shardSSSP(g *graph.Graph, a Args, e Env) (Result, error) {
	res, err := e.Cluster.SSSP(g, a.Src, a.Delta, e.Shard)
	return Result{Dists: res.Dists, Steps: res.Buckets, Delta: res.Delta, Shard: &res.Result}, err
}

func gblasSSSP(g *graph.Graph, a Args, _ Env) (Result, error) {
	dists, res, err := gblas.EngineSSSP(g, a.Src)
	return Result{Dists: dists, GBLAS: &res}, err
}

// Boruvka and the Boman coloring are single-node formulations.
func aamMST(g *graph.Graph, _ Args, e Env) (Result, error) {
	b := algo.NewBoruvka(g)
	m, res := e.RunAAM(1, b, b.Body(e.AAM))
	return Result{Weight: b.Weight(m), Labels: b.Components(m), AAM: res}, nil
}

func shardMST(g *graph.Graph, _ Args, e Env) (Result, error) {
	res, err := e.Cluster.MST(g, e.Shard)
	return Result{Weight: res.Weight, Labels: res.Labels, Steps: res.Rounds, Shard: &res.Result}, err
}

func aamColoring(g *graph.Graph, _ Args, e Env) (Result, error) {
	c := algo.NewColoring(g)
	m, res := e.RunAAM(1, c, c.Body(e.AAM, 0))
	colors, used := c.Colors(m)
	return Result{Colors: colors, Used: used, AAM: res}, nil
}

func shardColoring(g *graph.Graph, a Args, e Env) (Result, error) {
	res, err := e.Cluster.Coloring(g, a.Seed, e.Shard)
	return Result{Colors: res.Colors, Used: res.Used, Steps: res.Rounds, Shard: &res.Result}, err
}
