package aamgo_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"aamgo"
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

// TestCrossEngineEquivalence is the engine contract in one matrix driven
// by the registry: for every algorithm, engine and graph shape (including
// the patched slack-CSR layout) the answer satisfies the descriptor's
// Verify — its sequential reference or validity checker — and what Verify
// says the engines agree on is bit-identical across them (BFS levels, SSSP
// distances, PageRank rank bits, component partitions, forest weight) — or
// the engine returns the exact not-implemented error.
func TestCrossEngineEquivalence(t *testing.T) {
	kronW := aamgo.AttachSymmetricWeights(aamgo.Kronecker(8, 8, 3), 5)
	roadW := aamgo.AttachSymmetricWeights(aamgo.RoadGrid(16, 16, 0.1, 4), 6)
	graphs := []struct {
		name string
		g    *aamgo.Graph
		src  int
	}{
		{"kron", kronW, kronW.MaxDegreeVertex()},
		{"road", roadW, 0},
		{"kron-patched", patchify(kronW, 3), kronW.MaxDegreeVertex()},
	}
	configs := map[string]aamgo.Config{
		aamgo.EngineAAM:   {Engine: aamgo.EngineAAM},
		aamgo.EngineShard: {Engine: aamgo.EngineShard, Shards: 4},
		aamgo.EngineGBLAS: {Engine: aamgo.EngineGBLAS},
	}
	for _, d := range query.Registry {
		for _, gc := range graphs {
			args := query.Args{Src: gc.src, Damping: 0.85, Iters: 10}
			var want any
			for _, eng := range aamgo.Engines {
				cfg, ok := configs[eng]
				if !ok {
					t.Fatalf("engine %q has no test config", eng)
				}
				t.Run(d.Name+"/"+gc.name+"/"+eng, func(t *testing.T) {
					res, _, err := aamgo.Run(d.Name, gc.g, args, cfg)
					if d.Engines[eng] == nil {
						if wantErr := "aamgo: " + d.NotImplemented(eng, d.Title).Error(); err == nil || err.Error() != wantErr {
							t.Fatalf("error %v, want %q", err, wantErr)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.Verify(gc.g, args, res)
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
	src := g.MaxDegreeVertex()
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
