package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
)

// Registry is the algorithm × engine matrix, in presentation order, with
// what each algorithm's answer means. Adding an algorithm is one entry
// here, Verify and Summary included (plus a job in internal/shard's wire
// table if it runs on the cluster); adding an engine is one Engines key
// per algorithm it covers.
var Registry = []*Descriptor{
	{
		Name: "bfs", Title: "BFS", PredictM: true,
		Params:  []Param{paramSrc},
		Engines: map[string]RunFunc{EngineAAM: aamBFS, EngineShard: shardBFS, EngineCluster: shardBFS, EngineGBLAS: gblasBFS},
		Verify:  verifyBFS, Summary: summariseBFS, VectorKey: "parents",
	},
	{
		Name: "cc", Title: "Components",
		Params: []Param{{Name: "mech", NotOn: map[string]string{
			EngineAAM: "mech only applies to the sharded components query (add ?shards=N)"}}},
		Engines: map[string]RunFunc{EngineAAM: aamCC, EngineShard: shardCC, EngineCluster: shardCC},
		Verify:  verifyCC, Summary: summariseCC, VectorKey: "labels",
	},
	{
		Name: "pagerank", Title: "PageRank", PredictM: true,
		Params:  []Param{paramIters, paramDamping, paramTop},
		Engines: map[string]RunFunc{EngineAAM: aamPageRank, EngineShard: shardPageRank, EngineCluster: shardPageRank, EngineGBLAS: gblasPageRank},
		Verify:  verifyPageRank, Summary: summarisePageRank,
	},
	{
		Name: "sssp", Title: "SSSP", Weighted: true, PredictM: true,
		Params: []Param{paramSrc, paramWSeed, uintParam("delta", func(a *Args) *uint64 { return &a.Delta },
			map[string]string{EngineAAM: deltaShardOnly, EngineGBLAS: deltaShardOnly})},
		Engines: map[string]RunFunc{EngineAAM: aamSSSP, EngineShard: shardSSSP, EngineCluster: shardSSSP, EngineGBLAS: gblasSSSP},
		Verify:  verifySSSP, Summary: summariseSSSP, VectorKey: "dists",
	},
	{
		Name: "mst", Title: "MST", Weighted: true,
		Params:  []Param{paramWSeed},
		Engines: map[string]RunFunc{EngineAAM: aamMST, EngineShard: shardMST, EngineCluster: shardMST},
		Verify:  verifyMST, Summary: summariseMST, VectorKey: "labels",
	},
	{
		Name: "coloring", Title: "Coloring",
		// The priority seed orders the sharded Jones-Plassmann coloring; the
		// single-runtime Boman algorithm has no such knob.
		Params: []Param{uintParam("seed", func(a *Args) *uint64 { return &a.Seed },
			map[string]string{EngineAAM: "seed only applies to the sharded coloring (add ?shards=N)"})},
		Engines: map[string]RunFunc{EngineAAM: aamColoring, EngineShard: shardColoring, EngineCluster: shardColoring},
		Verify:  verifyColoring, Summary: summariseColoring, VectorKey: "per_vertex",
	},
}

const deltaShardOnly = "delta only applies to the sharded delta-stepping SSSP"

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
	c := gblas.NewCC(g, e.Nodes, e.AAM)
	m, res := e.RunAAM(e.Nodes, c, c.Body())
	return Result{Labels: c.Labels(m), AAM: res}, nil
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
	s := gblas.NewSSSP(g, e.Nodes, e.AAM)
	m, res := e.RunAAM(e.Nodes, s, s.Body(a.Src))
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

// errNoAtomic answers the aam cells whose operator spans several words
// and so has no atomic body: Boruvka's merge and Boman's colour.
func errNoAtomic(name string) error {
	return fmt.Errorf("mech atomic does not apply to the aam %s (its operator spans several words; use htm, lock, occ or flatcomb)", name)
}

// Boruvka and the Boman coloring are single-node formulations.
func aamMST(g *graph.Graph, _ Args, e Env) (Result, error) {
	if e.AAM.Mechanism == aam.MechAtomic {
		return Result{}, errNoAtomic("mst")
	}
	b := algo.NewBoruvka(g)
	m, res := e.RunAAM(1, b, b.Body(e.AAM))
	return Result{Weight: b.Weight(m), Labels: b.Components(m), AAM: res}, nil
}

func shardMST(g *graph.Graph, _ Args, e Env) (Result, error) {
	res, err := e.Cluster.MST(g, e.Shard)
	return Result{Weight: res.Weight, Labels: res.Labels, Steps: res.Rounds, Shard: &res.Result}, err
}

func aamColoring(g *graph.Graph, _ Args, e Env) (Result, error) {
	if e.AAM.Mechanism == aam.MechAtomic {
		return Result{}, errNoAtomic("coloring")
	}
	c := algo.NewColoring(g)
	m, res := e.RunAAM(1, c, c.Body(e.AAM, 0))
	colors, used := c.Colors(m)
	return Result{Colors: colors, Used: used, AAM: res}, nil
}

func shardColoring(g *graph.Graph, a Args, e Env) (Result, error) {
	res, err := e.Cluster.Coloring(g, a.Seed, e.Shard)
	return Result{Colors: res.Colors, Used: res.Used, Steps: res.Rounds, Shard: &res.Result}, err
}

// The Verify funcs: each answer held to its sequential reference.

func verifyBFS(g *graph.Graph, a Args, res Result) (any, error) {
	ref := algo.SeqBFS(g, a.Src)
	// Engines may legitimately pick different previous-level parents (they
	// race benignly); the depth of every vertex is the invariant, and a
	// tree whose every edge descends one reference level has the
	// reference's depths.
	return ref, algo.ValidateBFSTree(g, a.Src, res.Parents, ref)
}

func verifyPageRank(g *graph.Graph, a Args, res Result) (any, error) {
	for v, want := range algo.SeqPageRank(g, a.Damping, a.Iters) {
		if d := res.Ranks[v] - want; d > 1e-6 || d < -1e-6 {
			return nil, fmt.Errorf("pagerank: rank[%d] = %v, sequential reference %v", v, res.Ranks[v], want)
		}
	}
	return res.Ranks, nil // Q24.40 accumulation: the rank bits are identical
}

func verifySSSP(g *graph.Graph, a Args, res Result) (any, error) {
	if !slices.Equal(res.Dists, algo.SeqSSSP(g, a.Src)) {
		return nil, errors.New("sssp: distances diverge from the sequential reference")
	}
	return res.Dists, nil
}

// canonLabels rewrites a component labeling to min-vertex-id labels, the
// one canonical form: engines may pick different representatives (the aam
// engine reports "a representative vertex id", the shard engine the
// minimum), but the partition they induce is the invariant.
func canonLabels(labels []int32) []int32 {
	min := map[int32]int32{}
	out := make([]int32, len(labels))
	for v, l := range labels {
		if _, ok := min[l]; !ok {
			min[l] = int32(v) // the first, so the smallest, vertex carrying l
		}
		out[v] = min[l]
	}
	return out
}

func verifyCC(g *graph.Graph, _ Args, res Result) (any, error) {
	labels := canonLabels(res.Labels)
	if !slices.Equal(labels, algo.SeqComponents(g)) {
		return nil, errors.New("cc: partition diverges from the sequential reference")
	}
	return labels, nil
}

func verifyMST(g *graph.Graph, a Args, res Result) (any, error) {
	if want := algo.SeqMSTWeight(g); res.Weight != want {
		return nil, fmt.Errorf("mst: forest weight %d, sequential reference %d", res.Weight, want)
	}
	if _, err := verifyCC(g, a, res); err != nil {
		return nil, fmt.Errorf("mst: forest %v", err)
	}
	return res.Weight, nil
}

func verifyColoring(g *graph.Graph, _ Args, res Result) (any, error) {
	if !algo.ValidColoring(g, res.Colors) {
		return nil, errors.New("coloring: not proper")
	}
	largest := int32(-1)
	for _, c := range res.Colors {
		largest = max(largest, c)
	}
	if res.Used != int(largest)+1 {
		return nil, fmt.Errorf("coloring: %d colors reported, largest color is %d", res.Used, largest)
	}
	return nil, nil // the aam and shard heuristics color differently
}

// The Summary funcs. Every summary but pagerank's, which has never carried
// the vertex count, opens with n.

func summariseBFS(a Args, n int, res Result) []Stat {
	reached := 0
	for _, p := range res.Parents {
		if p >= 0 {
			reached++
		}
	}
	out := []Stat{{"n", n}, {"src", a.Src}, {"reached", reached}}
	if res.AAM == nil {
		out = append(out, Stat{"levels", res.Steps})
	}
	if res.GBLAS != nil {
		out = append(out, Stat{"gblas", map[string]any{"push_steps": res.GBLAS.PushSteps, "pull_steps": res.GBLAS.PullSteps}})
	}
	return out
}

func summariseCC(_ Args, n int, res Result) []Stat {
	out := []Stat{{"n", n}, {"components", distinct(res.Labels)}}
	if res.Shard != nil {
		out = append(out, Stat{"rounds", res.Steps})
	}
	return out
}

func summarisePageRank(a Args, _ int, res Result) []Stat {
	return []Stat{{"iters", a.Iters}, {"damping", a.Damping}, {"top", topRanked(res.Ranks, a.Top)}}
}

func summariseSSSP(a Args, n int, res Result) []Stat {
	out := []Stat{{"n", n}, {"src", a.Src}, {"wseed", a.WSeed}}
	if res.Shard != nil {
		out = append(out, Stat{"buckets", res.Steps}, Stat{"delta", res.Delta})
	}
	if res.GBLAS != nil {
		out = append(out, Stat{"gblas", map[string]any{"rounds": res.GBLAS.Steps}})
	}
	reached := 0
	for _, d := range res.Dists {
		if d != ^uint64(0) {
			reached++
		}
	}
	return append(out, Stat{"reached", reached})
}

func summariseMST(a Args, n int, res Result) []Stat {
	comps := distinct(res.Labels)
	// A spanning forest, on every engine: n - components edges.
	out := []Stat{{"n", n}, {"wseed", a.WSeed}, {"weight", res.Weight}, {"components", comps}, {"edges", n - comps}}
	if res.Shard != nil {
		out = append(out, Stat{"rounds", res.Steps})
	}
	return out
}

func summariseColoring(a Args, n int, res Result) []Stat {
	out := []Stat{{"n", n}, {"colors", res.Used}}
	if res.Shard != nil {
		out = append(out, Stat{"rounds", res.Steps}, Stat{"seed", a.Seed})
	}
	return out
}

func distinct(labels []int32) int {
	seen := map[int32]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

type rankedVertex struct {
	V    int     `json:"v"`
	Rank float64 `json:"rank"`
}

// topRanked returns the top vertices by rank, descending.
func topRanked(ranks []float64, top int) []rankedVertex {
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] > ranks[idx[b]] })
	if top > len(idx) {
		top = len(idx)
	}
	best := make([]rankedVertex, top)
	for i := 0; i < top; i++ {
		best[i] = rankedVertex{V: idx[i], Rank: ranks[idx[i]]}
	}
	return best
}
