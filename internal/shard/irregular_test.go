package shard

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

// weighted attaches deterministic symmetric edge weights to g (shared
// structure, fresh weight array).
func weighted(g *graph.Graph, seed uint64) *graph.Graph {
	return graph.AttachSymmetricWeights(g, seed)
}

// irregularConfigs is the shard-count × workers × flush-policy ×
// mechanism matrix the three new algorithms are cross-checked over
// (≥3 shard counts, per the acceptance criteria).
var irregularConfigs = []Config{
	{Shards: 1},
	{Shards: 2, BatchSize: 1, Flush: FlushEager},
	{Shards: 3, BatchSize: 4},
	{Shards: 4, Workers: 2, Flush: FlushByEpoch, Mechanism: aam.MechLock},
	{Shards: 8, BatchSize: 16, Mechanism: aam.MechOptimistic},
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for name, g := range testGraphs(t) {
		wg := weighted(g, 5)
		src := wg.MaxDegreeVertex()
		ref := algo.SeqSSSP(wg, src)
		maxW := uint64(0)
		for _, w := range wg.Weights {
			if uint64(w) > maxW {
				maxW = uint64(w)
			}
		}
		// Auto delta, a tiny delta (many buckets) and a huge delta (one
		// bucket: the Bellman-Ford degeneration) must all agree.
		for _, delta := range []uint64{0, maxW/64 + 1, 1 << 62} {
			for _, cfg := range irregularConfigs {
				res, err := SSSP(wg, src, delta, cfg)
				if err != nil {
					t.Fatalf("%s delta=%d %+v: %v", name, delta, cfg, err)
				}
				if !reflect.DeepEqual(res.Dists, ref) {
					t.Fatalf("%s delta=%d %+v: distances diverge from Dijkstra", name, delta, cfg)
				}
			}
		}
	}
}

// TestSSSPMatchesSingleRuntime cross-checks against the single-runtime
// SSSP of the default aam engine, the GraphBLAS system's min-plus frontier
// rounds, on the simulator.
func TestSSSPMatchesSingleRuntime(t *testing.T) {
	g := weighted(graph.Kronecker(8, 8, 3), 7)
	src := g.MaxDegreeVertex()
	prof := exec.HaswellC()
	s := gblas.NewSSSP(g, 1, aam.Config{M: 8, Mechanism: aam.MechHTM})
	m := aam.NewMachine(s, run.Sim, 1, 4, &prof, 1)
	m.Run(s.Body(src))
	single := s.Dists(m)

	res, err := SSSP(g, src, 0, Config{Shards: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dists, single) {
		t.Fatal("sharded SSSP distances diverge from the single-runtime min-plus SSSP")
	}
}

func TestMSTMatchesKruskal(t *testing.T) {
	for name, g := range testGraphs(t) {
		wg := weighted(g, 9)
		refWeight := algo.SeqMSTWeight(wg)
		refCC := algo.SeqComponents(wg)
		comps := map[int32]struct{}{}
		for _, l := range refCC {
			comps[l] = struct{}{}
		}
		wantEdges := wg.N - len(comps)
		for _, cfg := range irregularConfigs {
			res, err := MST(wg, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if res.Weight != refWeight {
				t.Fatalf("%s %+v: forest weight %d, Kruskal %d", name, cfg, res.Weight, refWeight)
			}
			if !reflect.DeepEqual(res.Labels, refCC) {
				t.Fatalf("%s %+v: component labels diverge", name, cfg)
			}
			if res.Edges != wantEdges || len(res.Arcs) != wantEdges {
				t.Fatalf("%s %+v: %d forest edges (%d arcs), want %d", name, cfg, res.Edges, len(res.Arcs), wantEdges)
			}
			// The selected arcs must form a spanning forest: every union
			// succeeds and the partition matches the labels.
			uf := algo.NewUnionFind(wg.N)
			var total uint64
			for _, pos := range res.Arcs {
				u, v := findArcSrc(wg, pos), int(wg.Adj[pos])
				if !uf.Union(u, v) {
					t.Fatalf("%s %+v: selected arcs contain a cycle at pos %d", name, cfg, pos)
				}
				total += uint64(wg.Weights[pos])
			}
			if total != res.Weight {
				t.Fatalf("%s %+v: arc weights sum to %d, reported %d", name, cfg, total, res.Weight)
			}
		}
	}
}

// findArcSrc recovers the source vertex of CSR arc pos by offset search.
func findArcSrc(g *graph.Graph, pos int64) int {
	lo, hi := 0, g.N
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Offsets[mid+1] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestMSTMatchesSingleRuntime cross-checks the forest weight against the
// single-runtime algo.Boruvka execution on the simulator.
func TestMSTMatchesSingleRuntime(t *testing.T) {
	g := weighted(graph.Community(300, 10, 4, 0.05, 11), 13)
	prof := exec.HaswellC()
	b := algo.NewBoruvka(g)
	m := aam.NewMachine(b, run.Sim, 1, 4, &prof, 1)
	m.Run(b.Body(aam.Config{M: 8, Mechanism: aam.MechHTM}))
	single := b.Weight(m)

	res, err := MST(g, Config{Shards: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != single {
		t.Fatalf("sharded MST weight %d, single-runtime Boruvka %d", res.Weight, single)
	}
}

func TestColoringMatchesGreedyReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		// Seed 0: identity priority order reproduces the sequential
		// greedy coloring exactly.
		refColors, refUsed := algo.GreedyColoring(g)
		for _, cfg := range irregularConfigs {
			res, err := Coloring(g, 0, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(res.Colors, refColors) || res.Used != refUsed {
				t.Fatalf("%s %+v: seed-0 coloring diverges from GreedyColoring", name, cfg)
			}
		}
		// Random priorities: valid, bounded, and identical across every
		// configuration (the priority hash is execution-independent).
		var first *ColoringResult
		for _, cfg := range irregularConfigs {
			res, err := Coloring(g, 12345, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if !algo.ValidColoring(g, res.Colors) {
				t.Fatalf("%s %+v: invalid coloring", name, cfg)
			}
			if res.Used > g.MaxDegree()+1 {
				t.Fatalf("%s %+v: %d colors exceeds maxdeg+1 = %d", name, cfg, res.Used, g.MaxDegree()+1)
			}
			if first == nil {
				first = &res
			} else if !reflect.DeepEqual(res.Colors, first.Colors) {
				t.Fatalf("%s %+v: coloring not deterministic across configurations", name, cfg)
			}
		}
	}
}

// TestIrregularMechanisms runs SSSP, MST and coloring under every
// isolation mechanism at every mechShapes shape, with intra-shard
// contention (a star graph: every operator fight converges on the hub's
// shard).
func TestIrregularMechanisms(t *testing.T) {
	g := weighted(starGraph(512), 17)
	src := 0
	refDist := algo.SeqSSSP(g, src)
	refWeight := algo.SeqMSTWeight(g)
	refColors, _ := algo.GreedyColoring(g)
	for _, shape := range mechShapes {
		for _, mech := range allMechs {
			cfg := shape
			cfg.Mechanism = mech
			name := fmt.Sprintf("%v, %d shards", mech, cfg.Shards)
			sr, err := SSSP(g, src, 0, cfg)
			if err != nil {
				t.Fatalf("%s sssp: %v", name, err)
			}
			if !reflect.DeepEqual(sr.Dists, refDist) {
				t.Fatalf("%s: sssp distances diverge", name)
			}
			mr, err := MST(g, cfg)
			if err != nil {
				t.Fatalf("%s mst: %v", name, err)
			}
			if mr.Weight != refWeight {
				t.Fatalf("%s: mst weight %d, want %d", name, mr.Weight, refWeight)
			}
			cr, err := Coloring(g, 0, cfg)
			if err != nil {
				t.Fatalf("%s coloring: %v", name, err)
			}
			if !reflect.DeepEqual(cr.Colors, refColors) {
				t.Fatalf("%s: coloring diverges", name)
			}
			for _, tot := range []Stats{sr.Totals(), mr.Totals(), cr.Totals()} {
				if tot.RemoteUnitsSent != tot.RemoteUnitsRecv {
					t.Fatalf("%s: %d units sent, %d received", name, tot.RemoteUnitsSent, tot.RemoteUnitsRecv)
				}
			}
		}
	}
}

func TestIrregularEdgeCases(t *testing.T) {
	small := weighted(pathGraph(3), 3)

	// Out-of-range source and missing weights.
	if _, err := SSSP(small, -1, 0, Config{}); err == nil {
		t.Fatal("want error for negative SSSP source")
	}
	if _, err := SSSP(small, 3, 0, Config{Shards: 2}); err == nil {
		t.Fatal("want error for out-of-range SSSP source")
	}
	if _, err := SSSP(pathGraph(3), 0, 0, Config{}); err == nil {
		t.Fatal("want error for SSSP without weights")
	}
	if _, err := MST(pathGraph(3), Config{}); err == nil {
		t.Fatal("want error for MST without weights")
	}

	// More shards than vertices.
	res, err := SSSP(small, 0, 0, Config{Shards: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, uint64(small.Weights[0]), uint64(small.Weights[0]) + uint64(small.EdgeWeights(1)[1])}
	if !reflect.DeepEqual(res.Dists, want) {
		t.Fatalf("path dists = %v, want %v", res.Dists, want)
	}

	// Disconnected vertices stay at infinity / singleton components.
	b := graph.NewBuilder(6).WithWeights(graph.SymmetricWeight(21))
	for i := 1; i < 4; i++ {
		b.AddEdge(0, int32(i))
	}
	iso := b.Build() // vertices 4, 5 isolated
	sres, err := SSSP(iso, 0, 0, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Dists[4] != math.MaxUint64 || sres.Dists[5] != math.MaxUint64 {
		t.Fatalf("isolated vertices reachable: %v", sres.Dists)
	}
	mres, err := MST(iso, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Edges != 3 {
		t.Fatalf("forest edges = %d, want 3", mres.Edges)
	}

	// Empty graph and single vertex.
	empty := graph.NewBuilder(0).WithWeights(graph.SymmetricWeight(1)).Build()
	if mres, err := MST(empty, Config{Shards: 2}); err != nil || len(mres.Labels) != 0 {
		t.Fatalf("empty MST: %v %v", mres.Labels, err)
	}
	if cres, err := Coloring(graph.NewBuilder(0).Build(), 0, Config{Shards: 2}); err != nil || len(cres.Colors) != 0 {
		t.Fatalf("empty coloring: %v %v", cres.Colors, err)
	}
	one := graph.NewBuilder(1).WithWeights(graph.SymmetricWeight(1)).Build()
	if cres, err := Coloring(one, 7, Config{Shards: 4}); err != nil || !reflect.DeepEqual(cres.Colors, []int32{0}) {
		t.Fatalf("single-vertex coloring: %v %v", cres.Colors, err)
	}
	if mres, err := MST(one, Config{Shards: 4}); err != nil || mres.Weight != 0 || mres.Edges != 0 {
		t.Fatalf("single-vertex MST: %+v %v", mres, err)
	}
}
