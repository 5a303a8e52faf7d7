package aamgo_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"aamgo"
	"aamgo/internal/algo"
	"aamgo/internal/query"
)

// patchify re-packs g into the patched slack-CSR layout (Ends != nil) with
// poisoned gap slots, so the matrix below also certifies every engine on
// the layout incremental snapshot freezes produce.
func patchify(g *aamgo.Graph, slack int) *aamgo.Graph {
	out := &aamgo.Graph{
		N:        g.N,
		Directed: g.Directed,
		Offsets:  make([]int64, g.N+1),
		Ends:     make([]int64, g.N),
		Arcs:     g.NumEdges(),
	}
	total := g.NumEdges() + int64(g.N*slack)
	out.Adj = make([]int32, total)
	if g.Weights != nil {
		out.Weights = make([]uint32, total)
	}
	pos := int64(0)
	for v := 0; v < g.N; v++ {
		out.Offsets[v] = pos
		pos += int64(copy(out.Adj[pos:], g.Neighbors(v)))
		if g.Weights != nil {
			copy(out.Weights[out.Offsets[v]:], g.EdgeWeights(v))
		}
		out.Ends[v] = pos
		for s := 0; s < slack; s++ {
			out.Adj[pos] = -1 // poison
			pos++
		}
	}
	out.Offsets[g.N] = pos
	return out
}

// canonLabels rewrites a component labeling to min-vertex-id labels, the
// one canonical form: engines may pick different representatives (the aam
// engine reports "a representative vertex id", the shard engine the
// minimum), but the partition they induce is the cross-engine invariant.
func canonLabels(labels []int32) []int32 {
	min := map[int32]int32{}
	for v, l := range labels {
		if _, ok := min[l]; !ok {
			min[l] = int32(v) // first (smallest) vertex carrying the label
		}
	}
	out := make([]int32, len(labels))
	for v, l := range labels {
		out[v] = min[l]
	}
	return out
}

// facades attaches, by registry name, how the test drives the typed
// façade function and which sequential reference or validity checker its
// answer must satisfy. check returns the value every engine must agree on
// bit for bit (nil when validity is all the engines share).
var facades = map[string]func(t *testing.T, g *aamgo.Graph, src int, c aamgo.Config) (agree any, err error){
	"bfs": func(t *testing.T, g *aamgo.Graph, src int, c aamgo.Config) (any, error) {
		res, err := aamgo.BFS(g, src, c)
		if err != nil {
			return nil, err
		}
		ref := algo.SeqBFS(g, src)
		if err := algo.ValidateBFSTree(g, src, res.Parents, ref); err != nil {
			t.Error(err)
		}
		// Engines may legitimately pick different previous-level parents, but
		// the depth of every vertex is unique.
		depths := algo.BFSDepths(g, src, res.Parents)
		if !slices.Equal(depths, ref) {
			t.Error("BFS levels diverge from the sequential reference")
		}
		return depths, nil
	},
	"pagerank": func(t *testing.T, g *aamgo.Graph, _ int, c aamgo.Config) (any, error) {
		ranks, _, err := aamgo.PageRank(g, 0.85, 10, c)
		if err != nil {
			return nil, err
		}
		for v, want := range algo.SeqPageRank(g, 0.85, 10) {
			if d := ranks[v] - want; d > 1e-6 || d < -1e-6 {
				t.Errorf("rank[%d] = %v, sequential reference %v", v, ranks[v], want)
				break
			}
		}
		return ranks, nil // rank bits are identical across engines
	},
	"sssp": func(t *testing.T, g *aamgo.Graph, src int, c aamgo.Config) (any, error) {
		dists, _, err := aamgo.SSSP(g, src, c)
		if err == nil && !slices.Equal(dists, algo.SeqSSSP(g, src)) {
			t.Error("SSSP distances diverge from the sequential reference")
		}
		return dists, err
	},
	"cc": func(t *testing.T, g *aamgo.Graph, _ int, c aamgo.Config) (any, error) {
		labels, _, err := aamgo.Components(g, c)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(canonLabels(labels), algo.SeqComponents(g)) {
			t.Error("component partition diverges from the sequential reference")
		}
		return canonLabels(labels), nil
	},
	"mst": func(t *testing.T, g *aamgo.Graph, _ int, c aamgo.Config) (any, error) {
		weight, labels, _, err := aamgo.MST(g, c)
		if err != nil {
			return nil, err
		}
		if want := algo.SeqMSTWeight(g); weight != want {
			t.Errorf("forest weight %d, sequential reference %d", weight, want)
		}
		if !slices.Equal(canonLabels(labels), algo.SeqComponents(g)) {
			t.Error("forest components diverge from the sequential reference")
		}
		return weight, nil
	},
	"coloring": func(t *testing.T, g *aamgo.Graph, _ int, c aamgo.Config) (any, error) {
		colors, used, _, err := aamgo.Coloring(g, c)
		if err != nil {
			return nil, err
		}
		if !algo.ValidColoring(g, colors) {
			t.Error("coloring is not proper")
		}
		if max := int(slices.Max(colors)); max != used-1 {
			t.Errorf("%d colors reported, largest color is %d", used, max)
		}
		return nil, nil // the aam and shard heuristics color differently
	},
}

// TestCrossEngineEquivalence is the engine contract in one matrix driven
// by the registry: for every algorithm, engine and graph shape (including
// the patched slack-CSR layout) the answer satisfies the sequential
// reference or validity checker and is bit-identical across engines (BFS
// levels, SSSP distances, PageRank rank bits, component partitions, forest
// weight) — or the engine returns the exact not-implemented error. A new
// descriptor without a facades entry fails the test.
func TestCrossEngineEquivalence(t *testing.T) {
	kronW := aamgo.AttachSymmetricWeights(aamgo.Kronecker(8, 8, 3), 5)
	roadW := aamgo.AttachSymmetricWeights(aamgo.RoadGrid(16, 16, 0.1, 4), 6)
	graphs := []struct {
		name string
		g    *aamgo.Graph
		src  int
	}{
		{"kron", kronW, maxDeg(kronW)},
		{"road", roadW, 0},
		{"kron-patched", patchify(kronW, 3), maxDeg(kronW)},
	}
	configs := map[string]aamgo.Config{
		aamgo.EngineAAM:   {Engine: aamgo.EngineAAM},
		aamgo.EngineShard: {Engine: aamgo.EngineShard, Shards: 4},
		aamgo.EngineGBLAS: {Engine: aamgo.EngineGBLAS},
	}
	for _, d := range query.Registry {
		call, ok := facades[d.Name]
		if !ok {
			t.Errorf("registry entry %q has no façade check attached", d.Name)
			continue
		}
		for _, gc := range graphs {
			var want any
			for _, eng := range aamgo.Engines {
				cfg, ok := configs[eng]
				if !ok {
					t.Fatalf("engine %q has no test config", eng)
				}
				t.Run(d.Name+"/"+gc.name+"/"+eng, func(t *testing.T) {
					got, err := call(t, gc.g, gc.src, cfg)
					if d.Engines[eng] == nil {
						if wantErr := "aamgo: " + d.NotImplemented(eng, d.Title).Error(); err == nil || err.Error() != wantErr {
							t.Fatalf("error %v, want %q", err, wantErr)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s answer diverges from the %s engine's", d.Title, aamgo.Engines[0])
					}
				})
			}
		}
	}
}

// TestRuntimeBackendTransition, now that the deprecated Backend alias is
// gone: Config.Runtime alone picks the machine backend, and the empty
// value is the deterministic simulator.
func TestRuntimeBackendTransition(t *testing.T) {
	g := kron(t)
	src := maxDeg(g)
	ref, err := aamgo.BFS(g, src, aamgo.Config{Runtime: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	def, err := aamgo.BFS(g, src, aamgo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(def.Parents, ref.Parents) || def.Elapsed != ref.Elapsed {
		t.Fatal("the default runtime is not the sim runtime")
	}
}

func TestEngineValidation(t *testing.T) {
	g := aamgo.AttachSymmetricWeights(aamgo.Kronecker(6, 4, 1), 2)
	if _, err := aamgo.BFS(g, 0, aamgo.Config{Engine: "spark"}); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown engine not rejected: %v", err)
	}
	if _, err := aamgo.BFS(g, 0, aamgo.Config{Engine: aamgo.EngineAAM, Shards: 4}); err == nil {
		t.Fatal("Engine=aam with Shards>1 not rejected")
	}
	if _, err := aamgo.BFS(g, 0, aamgo.Config{Engine: aamgo.EngineGBLAS, Shards: 4}); err == nil {
		t.Fatal("Engine=gblas with Shards>1 not rejected")
	}
	// Engine=shard alone is enough: Shards defaults to 2.
	if _, err := aamgo.BFS(g, 0, aamgo.Config{Engine: aamgo.EngineShard}); err != nil {
		t.Fatalf("Engine=shard without Shards: %v", err)
	}
	// gblas covers BFS/SSSP/PageRank only.
	gb := aamgo.Config{Engine: aamgo.EngineGBLAS}
	if _, _, _, err := aamgo.MST(g, gb); err == nil {
		t.Fatal("gblas MST not rejected")
	}
	if _, _, _, err := aamgo.Coloring(g, gb); err == nil {
		t.Fatal("gblas Coloring not rejected")
	}
	if _, _, err := aamgo.Components(g, gb); err == nil {
		t.Fatal("gblas Components not rejected")
	}
	if _, _, err := aamgo.MaxFlow(g, 0, 1, gb); err == nil {
		t.Fatal("gblas MaxFlow not rejected")
	}
	if _, _, err := aamgo.Connected(g, 0, 1, gb); err == nil {
		t.Fatal("gblas Connected not rejected")
	}
	if _, _, err := aamgo.MaxFlow(g, 0, 1, aamgo.Config{Engine: aamgo.EngineShard}); err == nil {
		t.Fatal("shard MaxFlow not rejected")
	}
	if _, _, err := aamgo.Connected(g, 0, 1, aamgo.Config{Engine: aamgo.EngineShard}); err == nil {
		t.Fatal("shard Connected not rejected")
	}
}
