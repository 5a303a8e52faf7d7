// Package query is the algorithm registry: one Descriptor per algorithm
// the engine axis covers — name, whether it needs edge weights, typed
// parameters with their validation, one run func per engine returning a
// uniform Result, and what that Result means: the sequential reference it
// must satisfy and the scalars that summarise it. The façade (package
// aamgo), the daemon (internal/serve), aam-run, aam-worker, the bench
// scenarios and the cross-engine tests all go through it, so the
// algorithm × engine matrix is written once, in algos.go; a missing engine
// is an absent map entry.
package query

import (
	"fmt"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
)

// Engine names, as spelled in Config.Engine and ?engine=.
const (
	EngineAAM     = "aam"
	EngineShard   = "shard"
	EngineGBLAS   = "gblas"
	EngineCluster = "cluster"
)

// Engines lists every engine name in canonical order.
var Engines = []string{EngineAAM, EngineShard, EngineGBLAS, EngineCluster}

// Args is the union of the algorithms' parameters; a descriptor's Params
// names the fields it reads.
type Args struct {
	Src     int     // bfs, sssp: source vertex
	Iters   int     // pagerank: iterations
	Damping float64 // pagerank
	Top     int     // pagerank: how many ranked vertices a summary lists
	WSeed   uint64  // sssp, mst: seed of the synthesized edge weights
	Delta   uint64  // sssp on shard/cluster: bucket width, 0 auto-selects
	Seed    uint64  // coloring on shard/cluster: priority-order seed
}

// Param is one textual (URL query) parameter of an algorithm.
type Param struct {
	Name string
	// Required parameters are parsed even when absent ("" fails to parse).
	Required bool
	// Parse validates v (n is the vertex count) and stores it into a. Nil
	// for a parameter decoded elsewhere that only carries a NotOn rule.
	Parse func(a *Args, v string, n int) error
	// NotOn maps an engine to the error an explicitly given value earns
	// there, where it would otherwise be silently ignored.
	NotOn map[string]string
	// Bound checks a given value against n once the engine is settled.
	Bound func(a Args, n int) error
}

// Env is everything a run func needs besides the graph and the arguments.
type Env struct {
	// The aam engine: machine runtime ("sim"/"native"), cost profile, shape
	// and seed, and the per-thread engine configuration.
	Runtime        string
	Profile        *exec.MachineProfile
	Nodes, Threads int
	Seed           int64
	AAM            aam.Config
	Shard          shard.Config   // the shard and cluster engines
	Cluster        *shard.Cluster // the cluster engine's coordinator handle
}

// Result is the uniform outcome of one run: the per-vertex vector the
// algorithm defines, its scalars, and the block of the engine that ran.
type Result struct {
	Parents []int64   // bfs (-1 = unreachable)
	Ranks   []float64 // pagerank
	Dists   []uint64  // sssp (MaxUint64 = unreachable)
	Labels  []int32   // cc, mst: component labels
	Colors  []int32   // coloring

	Weight uint64 // mst: forest weight
	Used   int    // coloring: colors used

	// What only the shard, cluster and gblas engines report. Steps counts
	// the engine's outer iterations: BFS levels, SSSP buckets, and the
	// rounds of cc, mst and coloring.
	Steps int
	Delta uint64 // sssp: bucket width actually used

	// Exactly one engine block is set.
	AAM   *exec.Result        // machine (virtual or wall) time and counters
	Shard *shard.Result       // shard and cluster engines
	GBLAS *gblas.EngineResult // gblas engine
}

// Vector returns the per-vertex vector a full=1 body carries under
// Descriptor.VectorKey (nil for a zero Result): distances as int64, so the
// unreachable marker MaxUint64 reads -1.
func (r Result) Vector() any {
	switch {
	case r.Parents != nil:
		return r.Parents
	case r.Dists != nil:
		signed := make([]int64, len(r.Dists))
		for i, d := range r.Dists {
			signed[i] = int64(d)
		}
		return signed
	case r.Labels != nil:
		return r.Labels
	case r.Colors != nil:
		return r.Colors
	}
	return nil
}

// Stat is one named scalar of an answer's summary.
type Stat struct {
	Key string
	Val any
}

// RunFunc runs one algorithm on one engine.
type RunFunc func(g *graph.Graph, a Args, env Env) (Result, error)

// Descriptor describes one algorithm.
type Descriptor struct {
	// Name is the wire name ("cc"); Title the façade function ("Components").
	Name, Title string
	// Weighted algorithms need g.Weights.
	Weighted bool
	// PredictM marks the algorithms whose aam run honours the façade's
	// sampling-based M prediction.
	PredictM bool
	// Params lists the parameters in validation order.
	Params []Param
	// Engines maps engine name → run func; shard and cluster share one,
	// which goes distributed when Env.Cluster is set.
	Engines map[string]RunFunc
	// Verify holds res, an answer over g, to the algorithm's sequential
	// reference or validity checker. agree is the value every engine,
	// transport, shard count and partition must produce bit for bit; nil
	// when validity is all they share.
	Verify func(g *graph.Graph, a Args, res Result) (agree any, err error)
	// Summary lists the scalars that summarise res over an n-vertex graph,
	// in presentation order: the /query/<name> body keys and aam-run's
	// line. What only some engines report appears only on their results;
	// the zero Result summarises the empty graph.
	Summary func(a Args, n int, res Result) []Stat
	// VectorKey is the key a full=1 body carries Result.Vector under; ""
	// when the body never lists the vector.
	VectorKey string
}

// Lookup returns the named descriptor, or nil.
func Lookup(name string) *Descriptor {
	for _, d := range Registry {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Decode parses the descriptor's parameters from their textual form (get
// returns "" for an absent one, which keeps its default) over a graph of n
// vertices.
func (d *Descriptor) Decode(get func(string) string, n int) (Args, error) {
	a := Args{Iters: 10, Damping: 0.85, Top: 10, WSeed: 1}
	for _, p := range d.Params {
		if v := get(p.Name); p.Parse != nil && (v != "" || p.Required) {
			if err := p.Parse(&a, v, n); err != nil {
				return a, err
			}
		}
	}
	return a, nil
}

// Check applies the engine-dependent rules to the explicitly given
// parameters: the NotOn rejection, then the Bound.
func (d *Descriptor) Check(eng string, get func(string) string, a Args, n int) error {
	for _, p := range d.Params {
		if get(p.Name) == "" {
			continue
		}
		if msg, ok := p.NotOn[eng]; ok {
			return fmt.Errorf("%s", msg)
		}
		if p.Bound != nil {
			if err := p.Bound(a, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// NotImplemented is the error for an engine the algorithm lacks; label is
// how the caller names the algorithm. Every algorithm runs on aam and shard.
func (d *Descriptor) NotImplemented(eng, label string) error {
	return fmt.Errorf("engine %s does not implement %s (use aam or shard)", eng, label)
}

// Run executes the algorithm on the named engine. Only the cluster engine
// sees env.Cluster, so a shard run can never go distributed by accident.
func (d *Descriptor) Run(eng string, g *graph.Graph, a Args, env Env) (Result, error) {
	f := d.Engines[eng]
	if f == nil {
		return Result{}, d.NotImplemented(eng, d.Title)
	}
	if eng != EngineCluster {
		env.Cluster = nil
	}
	return f(g, a, env)
}

// RunAAM runs body on a machine of e's runtime, profile, threads and
// seed built for p by aam.NewMachine. The caller extracts results from
// the machine.
func (e Env) RunAAM(nodes int, p aam.Sizer, body func(exec.Context)) (exec.Machine, *exec.Result) {
	m := aam.NewMachine(p, e.Runtime, nodes, e.Threads, e.Profile, e.Seed)
	res := m.Run(body)
	return m, &res
}
