package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

var allMechs = []aam.Mechanism{
	aam.MechHTM, aam.MechAtomic, aam.MechLock, aam.MechOptimistic, aam.MechFlatCombining,
}

// mechShapes are the shapes the mechanism tests run every mechanism at:
// few shards with four workers fighting on each, and more shards with
// two workers and smaller batches.
var mechShapes = []Config{
	{Shards: 3, Workers: 4, BatchSize: 8},
	{Shards: 5, Workers: 2, BatchSize: 4},
}

// testGraphs returns the generated and real-world-proxy graphs the
// correctness matrix runs over.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{
		"kron":      graph.Kronecker(8, 8, 3),
		"community": graph.Community(400, 10, 4, 0.05, 7),
		"road":      graph.RoadGrid(20, 20, 0.05, 5),
		"path":      pathGraph(64),
		"star":      starGraph(256),
	}
	// Two real-world structural proxies from Table 1 (heavily downscaled):
	// a social network and a road network.
	for _, id := range []string{"sDB", "rPA"} {
		spec, err := graph.SpecByID(id)
		if err != nil {
			tb.Fatalf("SpecByID(%s): %v", id, err)
		}
		gs[id] = spec.Generate(9, 3)
	}
	return gs
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

// depths compares via algo.BFSDepths: parents may validly differ between
// implementations, depth vectors may not.
func depths(g *graph.Graph, src int, parents []int64) []int32 {
	return algo.BFSDepths(g, src, parents)
}

func TestBFSMatchesSequentialReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		src := g.MaxDegreeVertex()
		ref := algo.SeqBFS(g, src)
		for _, cfg := range []Config{
			{Shards: 1},
			{Shards: 2, BatchSize: 1, Flush: FlushEager},
			{Shards: 3, BatchSize: 4},
			{Shards: 4, Workers: 2, Flush: FlushByEpoch},
			{Shards: 8, BatchSize: 16, Mechanism: aam.MechHTM},
		} {
			res, err := BFS(g, src, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			// ValidateBFSTree against the sequential distances implies the
			// depth vectors agree exactly (visited sets equal, every tree
			// edge descends one reference level).
			if err := algo.ValidateBFSTree(g, src, res.Parents, ref); err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
		}
	}
}

// TestBFSMatchesSingleRuntime cross-checks the sharded port against the
// actual single-runtime internal/algo execution on the simulator backend.
func TestBFSMatchesSingleRuntime(t *testing.T) {
	g := graph.Kronecker(8, 8, 3)
	src := g.MaxDegreeVertex()
	prof := exec.HaswellC()
	b := algo.NewBFS(g, 1, algo.BFSConfig{
		Mode:         algo.BFSAAM,
		Engine:       aam.Config{M: 8, Mechanism: aam.MechHTM},
		VisitedCheck: true,
	})
	m := aam.NewMachine(b, run.Sim, 1, 4, &prof, 1)
	m.Run(b.Body(src))
	single := depths(g, src, b.Parents(m))

	res, err := BFS(g, src, Config{Shards: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sharded := depths(g, src, res.Parents); !reflect.DeepEqual(sharded, single) {
		t.Fatal("sharded BFS depth vector diverges from single-runtime internal/algo BFS")
	}
}

func TestPageRankMatchesSingleRuntime(t *testing.T) {
	for name, g := range testGraphs(t) {
		// Single-runtime internal/algo PageRank (fixed-point arithmetic).
		prof := exec.HaswellC()
		p := algo.NewPageRank(g, 1, algo.PRConfig{
			Damping: 0.85, Iterations: 5,
			Engine: aam.Config{M: 8, Mechanism: aam.MechAtomic},
		})
		m := aam.NewMachine(p, run.Sim, 1, 2, &prof, 1)
		m.Run(p.Body())
		single := p.Ranks(m)

		for _, cfg := range []Config{
			{Shards: 1},
			{Shards: 4, BatchSize: 8},
			{Shards: 4, Workers: 2, Flush: FlushEager},
			{Shards: 7, Flush: FlushByEpoch, Mechanism: aam.MechLock},
		} {
			res, err := PageRank(g, 0.85, 5, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			// Q24.40 fixed-point adds are exact and order-independent, so
			// the sharded ranks must be bit-identical to the single-runtime
			// version.
			if !reflect.DeepEqual(res.Ranks, single) {
				t.Fatalf("%s %+v: sharded ranks diverge from single-runtime ranks", name, cfg)
			}
		}
	}
}

func TestComponentsMatchesReferences(t *testing.T) {
	for name, g := range testGraphs(t) {
		seq := algo.SeqComponents(g)
		for _, cfg := range []Config{
			{Shards: 1},
			{Shards: 2, BatchSize: 1, Flush: FlushEager},
			{Shards: 5, BatchSize: 8},
			{Shards: 4, Workers: 2, Flush: FlushByEpoch, Mechanism: aam.MechOptimistic},
		} {
			res, err := Components(g, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(res.Labels, seq) {
				t.Fatalf("%s %+v: labels diverge from sequential components", name, cfg)
			}
		}
	}
}

// TestComponentsMatchesSingleRuntime cross-checks against the aam
// engine's components, gblas.CC's min-label rounds (a fixed point, so
// labels must be identical, not merely partition-equivalent).
func TestComponentsMatchesSingleRuntime(t *testing.T) {
	g := graph.Community(300, 10, 4, 0.05, 11)
	prof := exec.HaswellC()
	c := gblas.NewCC(g, 1, aam.Config{M: 8, Mechanism: aam.MechHTM})
	m := aam.NewMachine(c, run.Sim, 1, 4, &prof, 1)
	m.Run(c.Body())
	single := c.Labels(m)

	res, err := Components(g, Config{Shards: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Labels, single) {
		t.Fatal("sharded CC labels diverge from the aam engine's gblas CC")
	}
}

// TestMechanisms runs every isolation mechanism at every mechShapes
// shape under intra-shard contention (a star graph, where every marking
// fight converges on the hub's shard).
func TestMechanisms(t *testing.T) {
	g := starGraph(512)
	ref := algo.SeqBFS(g, 0)
	seq := algo.SeqComponents(g)
	for _, shape := range mechShapes {
		for _, mech := range allMechs {
			cfg := shape
			cfg.Mechanism = mech
			name := fmt.Sprintf("%v, %d shards", mech, cfg.Shards)
			res, err := BFS(g, 0, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := algo.ValidateBFSTree(g, 0, res.Parents, ref); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cc, err := Components(g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(cc.Labels, seq) {
				t.Fatalf("%s: cc labels diverge", name)
			}
			tot := cc.Totals()
			if tot.Ops() == 0 {
				t.Fatalf("%s: no operators recorded", name)
			}
			if tot.RemoteUnitsSent != tot.RemoteUnitsRecv {
				t.Fatalf("%s: %d units sent but %d received", name, tot.RemoteUnitsSent, tot.RemoteUnitsRecv)
			}
			if tot.RemoteBatchesSent != tot.RemoteBatchesRecv {
				t.Fatalf("%s: %d batches sent but %d received", name, tot.RemoteBatchesSent, tot.RemoteBatchesRecv)
			}
		}
	}
}

// TestFlushPolicies checks the batching lever: identical results and
// identical unit counts under every policy, with the batch count ordered
// eager ≥ size ≥ epoch.
func TestFlushPolicies(t *testing.T) {
	g := graph.Community(500, 10, 4, 0.05, 13)
	src := g.MaxDegreeVertex()
	ref := algo.SeqBFS(g, src)

	type outcome struct {
		units, batches uint64
	}
	var results []outcome
	for _, p := range []FlushPolicy{FlushEager, FlushBySize, FlushByEpoch} {
		res, err := BFS(g, src, Config{Shards: 4, BatchSize: 32, Flush: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := algo.ValidateBFSTree(g, src, res.Parents, ref); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		tot := res.Totals()
		results = append(results, outcome{tot.RemoteUnitsSent, tot.RemoteBatchesSent})
	}
	eager, size, epoch := results[0], results[1], results[2]
	if eager.units != size.units || size.units != epoch.units {
		t.Fatalf("unit counts differ across policies: %+v", results)
	}
	if eager.batches < size.batches || size.batches < epoch.batches {
		t.Fatalf("batch counts not ordered eager ≥ size ≥ epoch: %+v", results)
	}
	if eager.units > 0 && eager.batches != eager.units {
		t.Fatalf("eager policy sent %d units in %d batches; want one per unit", eager.units, eager.batches)
	}
}

func TestEdgeCases(t *testing.T) {
	// More shards than vertices: trailing shards own empty blocks.
	small := pathGraph(3)
	res, err := BFS(small, 0, Config{Shards: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 0, 1}; !reflect.DeepEqual(res.Parents, want) {
		t.Fatalf("parents = %v, want %v", res.Parents, want)
	}

	// Single vertex.
	one := graph.NewBuilder(1).Build()
	if cc, err := Components(one, Config{Shards: 4}); err != nil || !reflect.DeepEqual(cc.Labels, []int32{0}) {
		t.Fatalf("single vertex: labels=%v err=%v", cc.Labels, err)
	}
	if pr, err := PageRank(one, 0.85, 3, Config{Shards: 2}); err != nil || len(pr.Ranks) != 1 {
		t.Fatalf("single vertex: ranks=%v err=%v", pr.Ranks, err)
	}

	// Empty graph.
	empty := graph.NewBuilder(0).Build()
	if cc, err := Components(empty, Config{Shards: 2}); err != nil || len(cc.Labels) != 0 {
		t.Fatalf("empty graph: labels=%v err=%v", cc.Labels, err)
	}
	if _, err := BFS(empty, 0, Config{Shards: 2}); err == nil {
		t.Fatal("BFS on empty graph: want source-range error")
	}

	// Out-of-range source.
	if _, err := BFS(small, -1, Config{}); err == nil {
		t.Fatal("want error for negative source")
	}

}

// TestConcurrentWritersReaders exercises the executor under -race: within
// one parallel phase, writer workers hammer a contended operator while
// reader workers scan shard state through the atomic accessors.
func TestConcurrentWritersReaders(t *testing.T) {
	g := starGraph(64)
	for _, mech := range allMechs {
		ex, err := New(g, 1, Config{Shards: 2, Workers: 4, BatchSize: 4, Mechanism: mech})
		if err != nil {
			t.Fatal(err)
		}
		add := ex.Register(&Op{
			Name:   "count",
			Addr:   func(lv int, arg uint64) int { return lv },
			Mutate: func(c, arg uint64) (uint64, bool) { return c + arg, true },
		})
		const perWorker = 200
		ex.Parallel(func(w *Worker) {
			if w.ID%2 == 0 {
				for i := 0; i < perWorker; i++ {
					w.Spawn(add, i%g.N, 1) // local and remote mixed
				}
			} else {
				var sum uint64
				for i := 0; i < perWorker; i++ {
					sum += w.Load(i % ex.Part.MaxLocal())
				}
				_ = sum
			}
		})
		ex.Drain()
		var total uint64
		for _, s := range ex.Shards() {
			lo, hi := s.Lo, s.Hi
			for v := lo; v < hi; v++ {
				total += s.Load(ex.Part.Local(v))
			}
		}
		writers := uint64(ex.Workers() / 2) // even worker ids
		if want := writers * perWorker; total != want {
			t.Fatalf("%v: counted %d increments, want %d", mech, total, want)
		}
	}
}

// TestAlgorithmsConcurrently runs independent sharded executions in
// parallel goroutines (the -race cross-talk check: executors share no
// state).
func TestAlgorithmsConcurrently(t *testing.T) {
	g := graph.Community(300, 8, 4, 0.05, 17)
	src := g.MaxDegreeVertex()
	ref := algo.SeqBFS(g, src)
	seq := algo.SeqComponents(g)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Shards: 2 + i, Workers: 2, BatchSize: 8, Mechanism: allMechs[i%len(allMechs)]}
			if res, err := BFS(g, src, cfg); err != nil {
				errs <- err
			} else if err := algo.ValidateBFSTree(g, src, res.Parents, ref); err != nil {
				errs <- err
			}
			if res, err := Components(g, cfg); err != nil {
				errs <- err
			} else if !reflect.DeepEqual(res.Labels, seq) {
				errs <- fmt.Errorf("cc labels diverge under config %+v", cfg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
