package dyn

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// neighborsOf flattens g's adjacency into per-vertex slices (layout
// independent), for exact comparison between patched and flat views.
func neighborsOf(g *graph.Graph) [][]int32 {
	out := make([][]int32, g.N)
	for v := 0; v < g.N; v++ {
		out[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	return out
}

// requireEquivalent asserts the incremental freeze and the full rebuild of
// one snapshot denote the identical graph: same per-vertex adjacency
// sequences, same arc count, both structurally valid.
func requireEquivalent(t *testing.T, s *Snapshot, what string) {
	t.Helper()
	inc := s.Freeze()
	full := s.FullMaterialize()
	if err := inc.Validate(); err != nil {
		t.Fatalf("%s: incremental freeze invalid: %v", what, err)
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("%s: full rebuild invalid: %v", what, err)
	}
	if inc.N != full.N || inc.NumEdges() != full.NumEdges() {
		t.Fatalf("%s: size mismatch: incremental (%d, %d) vs full (%d, %d)",
			what, inc.N, inc.NumEdges(), full.N, full.NumEdges())
	}
	gi, gf := neighborsOf(inc), neighborsOf(full)
	for v := range gi {
		if !slices.Equal(gi[v], gf[v]) {
			t.Fatalf("%s: vertex %d adjacency mismatch: incremental %v vs full %v",
				what, v, gi[v], gf[v])
		}
	}
}

// TestIncrementalFreezeEquivalence drives a mixed mutation stream —
// inserts, duplicate inserts, deletes, remove-then-readd, vertex
// additions — across compaction boundaries, freezing and cross-checking
// against the old full-rebuild path after every batch.
func TestIncrementalFreezeEquivalence(t *testing.T) {
	base := graph.Community(256, 8, 3, 0.1, 7)
	g, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Aggressive compaction so the stream crosses several boundaries.
	g.compactFraction = 0.1
	for round := 0; round < 40; round++ {
		n := g.N()
		var batch []Mutation
		for i := 0; i < 12; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				batch = append(batch, RemoveEdge(u, v))
			case 1: // duplicate add attempt
				batch = append(batch, AddEdge(u, v), AddEdge(u, v))
			case 2: // remove then re-add in consecutive rounds happens naturally
				batch = append(batch, RemoveEdge(u, v), AddEdge(u, v))
			default:
				batch = append(batch, AddEdge(u, v))
			}
		}
		if round%7 == 3 {
			batch = append(batch, AddVertex())
		}
		res, err := g.Apply(batch, TxConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s := g.Snapshot()
		requireEquivalent(t, s, fmt.Sprintf("round %d (epoch %d, compacted=%t)", round, res.Epoch, res.Compacted))
		// The analytics must agree on both views too.
		if want, got := algo.SeqComponents(s.FullMaterialize()), algo.SeqComponents(s.Freeze()); !slices.Equal(want, got) {
			t.Fatalf("round %d: components diverge between views", round)
		}
	}
	fs := g.FreezeStats()
	if fs.Incremental == 0 {
		t.Fatalf("no incremental freezes happened: %+v", fs)
	}
	// Explicit compaction resets the chain; the next freeze is free (the
	// compacted base IS the materialization).
	g.Compact()
	requireEquivalent(t, g.Snapshot(), "after explicit Compact")
}

// TestFreezeTouchedIsOofK pins the headline property: freezing after k
// single-edge mutations splices O(k) vertices, independent of N.
func TestFreezeTouchedIsOofK(t *testing.T) {
	base := graph.Kronecker(12, 8, 3) // 4096 vertices, ~64k arcs
	g, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze() // warm the arena head (same epoch: no work)

	before := g.FreezeStats()
	mustApply(t, g, []Mutation{AddEdge(1, 2000)})
	g.Freeze()
	after := g.FreezeStats()
	if inc := after.Incremental - before.Incremental; inc != 1 {
		t.Fatalf("incremental freezes = %d, want 1 (stats %+v)", inc, after)
	}
	if full := after.FullRebuilds - before.FullRebuilds; full != 0 {
		t.Fatalf("full rebuilds = %d, want 0", full)
	}
	if touched := after.TouchedVertices - before.TouchedVertices; touched != 2 {
		t.Fatalf("freeze after 1 edge touched %d vertices, want exactly 2", touched)
	}

	// k mutations → at most 2k touched vertices, never O(N).
	const k = 32
	before = g.FreezeStats()
	var batch []Mutation
	for i := 0; i < k; i++ {
		batch = append(batch, AddEdge(int32(i), int32(1000+i)))
	}
	mustApply(t, g, batch)
	g.Freeze()
	after = g.FreezeStats()
	if touched := after.TouchedVertices - before.TouchedVertices; touched > 2*k {
		t.Fatalf("freeze after %d edges touched %d vertices, want <= %d", k, touched, 2*k)
	}
}

// TestFreezeAfterOneEdgeAllocs bounds the allocation count of an
// incremental freeze to a small constant — the o(N) work gate: the old
// path allocated and filled O(N+M) element arrays; the new one allocates
// the two index copies and splices two segments.
func TestFreezeAfterOneEdgeAllocs(t *testing.T) {
	const runs = 8
	gs := make([]*Graph, runs)
	for i := range gs {
		g, err := New(graph.Kronecker(12, 8, int64(3+i)))
		if err != nil {
			t.Fatal(err)
		}
		g.Freeze()
		mustApply(t, g, []Mutation{AddEdge(1, 2000)})
		gs[i] = g
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		gs[i%runs].Freeze()
		i++
	})
	// First `runs` calls do one incremental freeze each (index copies +
	// two spliced segments + snapshot cache); the bound is far below any
	// O(N) element-wise build.
	if allocs > 16 {
		t.Fatalf("freeze after one edge did %.1f allocations per run, want <= 16", allocs)
	}
	for _, g := range gs {
		requireEquivalent(t, g.Snapshot(), "alloc-gated freeze")
	}
}

// TestFreezeOldEpochFallback: freezing a snapshot older than the arena
// head cannot replay forward and must fall back to a correct full rebuild.
func TestFreezeOldEpochFallback(t *testing.T) {
	g, err := New(graph.Community(128, 8, 3, 0.1, 5))
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, g, []Mutation{AddEdge(0, 64)})
	old := g.Snapshot()
	mustApply(t, g, []Mutation{AddEdge(1, 65)})
	g.Freeze() // arena advances past old.Epoch()

	before := g.FreezeStats()
	requireEquivalent(t, old, "old-epoch snapshot")
	after := g.FreezeStats()
	if after.FullRebuilds == before.FullRebuilds {
		t.Fatal("old-epoch freeze should have fallen back to a full rebuild")
	}
}

// TestFreezeConcurrentSameEpoch: many goroutines freezing the same fresh
// epoch race on the arena; exactly one replay happens, everyone gets an
// equivalent view.
func TestFreezeConcurrentSameEpoch(t *testing.T) {
	g, err := New(graph.Community(512, 8, 3, 0.1, 9))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		mustApply(t, g, []Mutation{AddEdge(int32(round), int32(100+round))})
		s := g.Snapshot()
		const readers = 8
		views := make([]*graph.Graph, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				views[r] = s.Freeze()
			}(r)
		}
		wg.Wait()
		want := neighborsOf(s.FullMaterialize())
		for r, view := range views {
			if err := view.Validate(); err != nil {
				t.Fatalf("round %d reader %d: %v", round, r, err)
			}
			got := neighborsOf(view)
			for v := range got {
				if !slices.Equal(got[v], want[v]) {
					t.Fatalf("round %d reader %d vertex %d: adjacency mismatch", round, r, v)
				}
			}
		}
	}
}

// TestNewAcceptsPatchedFreeze: an incrementally frozen (patched-layout)
// graph fed back into dyn.New must round-trip — New packs it flat before
// adopting it as the base.
func TestNewAcceptsPatchedFreeze(t *testing.T) {
	g1, err := New(graph.Community(128, 8, 3, 0.1, 21))
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, g1, []Mutation{AddEdge(0, 100)})
	patched := g1.Freeze()
	if patched.Ends == nil {
		t.Fatal("test premise: freeze after a mutation should be patched")
	}
	g2, err := New(patched)
	if err != nil {
		t.Fatal(err)
	}
	s := g2.Snapshot()
	if s.NumArcs() != patched.NumEdges() {
		t.Fatalf("arc count %d after round-trip, want %d", s.NumArcs(), patched.NumEdges())
	}
	if !s.HasEdge(0, 100) {
		t.Fatal("edge lost in round-trip")
	}
	requireEquivalent(t, s, "patched round-trip")
	want, got := neighborsOf(patched), neighborsOf(s.Freeze())
	for v := range want {
		slices.Sort(want[v]) // New canonicalizes the base to sorted adjacency
		if !slices.Equal(want[v], got[v]) {
			t.Fatalf("vertex %d adjacency changed in round-trip", v)
		}
	}
}

// TestArenaDoesNotAliasSharedBase: two dynamic graphs built over one base
// whose Adj slice has spare capacity must not append into the shared
// backing array — each arena's first append has to reallocate.
func TestArenaDoesNotAliasSharedBase(t *testing.T) {
	src := graph.Community(128, 8, 3, 0.1, 3)
	adj := make([]int32, len(src.Adj), len(src.Adj)+256) // spare capacity
	copy(adj, src.Adj)
	base := &graph.Graph{N: src.N, Offsets: src.Offsets, Adj: adj}

	g1, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave mutations and freezes: if either arena appended into the
	// shared backing, the other graph's spliced segments would be
	// clobbered.
	for i := 0; i < 6; i++ {
		mustApply(t, g1, []Mutation{AddEdge(int32(i), int32(60+i))})
		f1 := g1.Freeze()
		mustApply(t, g2, []Mutation{AddEdge(int32(30+i), int32(90+i))})
		g2.Freeze()
		requireEquivalent(t, g1.Snapshot(), fmt.Sprintf("g1 round %d", i))
		requireEquivalent(t, g2.Snapshot(), fmt.Sprintf("g2 round %d", i))
		if err := f1.Validate(); err != nil {
			t.Fatalf("g1 view corrupted after g2 froze: %v", err)
		}
	}
}

// TestSortedBaseInvariant: dyn.New must canonicalize an unsorted base so
// the binary-search membership checks stay correct, and compaction must
// re-establish the invariant for the next generation of deltas.
func TestSortedBaseInvariant(t *testing.T) {
	// Build a base whose insertion order is deliberately descending.
	b := graph.NewBuilder(64)
	for v := int32(1); v < 64; v++ {
		b.AddEdge(0, 64-v) // vertex 0's adjacency arrives unsorted
	}
	g, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	s := g.Snapshot()
	for w := int32(1); w < 64; w++ {
		if !s.HasEdge(0, w) {
			t.Fatalf("HasEdge(0,%d) = false on unsorted-input base", w)
		}
	}
	if s.HasEdge(0, 0) {
		t.Fatal("self-membership reported")
	}
	if d := s.Degree(0); d != 63 {
		t.Fatalf("Degree(0) = %d, want 63", d)
	}
	// Mutate until compaction, then re-check membership against the
	// re-canonicalized base.
	for i := 0; i < 8; i++ {
		mustApply(t, g, []Mutation{AddEdge(int32(1+i), int32(20+i))})
	}
	g.Compact()
	s = g.Snapshot()
	compacted := s.Freeze().Flat()
	for v := 0; v < s.N(); v++ {
		if !slices.IsSorted(compacted.Neighbors(v)) {
			t.Fatalf("compacted base adjacency of %d not sorted", v)
		}
	}
	if !s.HasEdge(1, 20) || !s.HasEdge(0, 40) {
		t.Fatal("membership lost across compaction")
	}
}

// TestSortedBaseWorkers: on 1, 2, 3 and 8 workers New sorts every
// segment of a skewed base — a hub holding half the arcs, so several runs
// fall inside one segment, with isolated vertices first and last — exactly
// as a serial pass does. It sorts the caller's arrays in place, unless the
// base is weighted, and a second New of the same base adopts them as they are.
func TestSortedBaseWorkers(t *testing.T) {
	b := graph.NewBuilder(3000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120_000; i++ { // 480k arcs: enough for eight workers
		b.AddEdge(1500, int32(1+rng.Intn(2998)))
		b.AddEdge(int32(1+rng.Intn(2998)), int32(1+rng.Intn(2998)))
	}
	built := b.Build()
	want := slices.Clone(built.Adj)
	for v := 0; v < built.N; v++ {
		slices.Sort(want[built.Offsets[v]:built.Offsets[v+1]])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		base := &graph.Graph{N: built.N, Offsets: built.Offsets, Adj: slices.Clone(built.Adj)}
		got := mustNew(t, base).Snapshot().base
		if !slices.Equal(got.Adj, want) || !slices.Equal(got.Offsets, base.Offsets) {
			t.Fatalf("GOMAXPROCS %d: segments differ from a serial sort", procs)
		}
		if !slices.Equal(base.Adj, want) {
			t.Fatalf("GOMAXPROCS %d: the caller's segments were not sorted in place", procs)
		}
		if again := mustNew(t, base).Snapshot().base; &again.Adj[0] != &got.Adj[0] {
			t.Fatalf("GOMAXPROCS %d: a sorted base was copied", procs)
		}
	}
	// A weighted base keeps its order: its weights parallel it.
	weighted := graph.AttachSymmetricWeights(&graph.Graph{N: built.N, Offsets: built.Offsets, Adj: slices.Clone(built.Adj)}, 1)
	if got := mustNew(t, weighted).Snapshot().base; !slices.Equal(got.Adj, want) || !slices.Equal(weighted.Adj, built.Adj) {
		t.Fatal("a weighted base was not sorted in a copy")
	}
}

// --- microbenchmarks -----------------------------------------------------

// starSnapshot builds a hub-and-spoke graph: vertex 0 has degree n-1 — the
// high-degree case where binary search beats the linear scan.
func starSnapshot(b *testing.B, n int) *Snapshot {
	bld := graph.NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		bld.AddEdge(0, v)
	}
	g, err := New(bld.Build())
	if err != nil {
		b.Fatal(err)
	}
	return g.Snapshot()
}

// BenchmarkBaseMembershipLinear is the pre-satellite behavior: a linear
// scan over the hub's sorted adjacency.
func BenchmarkBaseMembershipLinear(b *testing.B) {
	s := starSnapshot(b, 1<<14)
	list := s.base.Neighbors(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := int32(1 + i%(1<<14-1))
		if !containsArc(list, w) {
			b.Fatal("missing")
		}
	}
}

// BenchmarkBaseMembershipBinary is the new path: slices.BinarySearch over
// the same sorted adjacency.
func BenchmarkBaseMembershipBinary(b *testing.B) {
	s := starSnapshot(b, 1<<14)
	list := s.base.Neighbors(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := int32(1 + i%(1<<14-1))
		if !sortedContainsArc(list, w) {
			b.Fatal("missing")
		}
	}
}

// BenchmarkHasEdgeHighDegree exercises the full HasEdge path on the hub.
func BenchmarkHasEdgeHighDegree(b *testing.B) {
	s := starSnapshot(b, 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.HasEdge(0, int32(1+i%(1<<14-1))) {
			b.Fatal("missing")
		}
	}
}

// BenchmarkFreezeIncremental measures freeze latency after one edge
// mutation on a 2^14-vertex graph (the incremental path).
func BenchmarkFreezeIncremental(b *testing.B) {
	g, err := New(graph.Kronecker(14, 8, 3))
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	cfg := TxConfig{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := int32(i % (1 << 13))
		if _, err := g.Apply([]Mutation{AddEdge(u, u+1024)}, cfg); err != nil {
			b.Fatal(err)
		}
		s := g.Snapshot()
		b.StartTimer()
		s.Freeze()
	}
}

// BenchmarkFreezeFullRebuild is the same workload through the old
// full-rebuild path.
func BenchmarkFreezeFullRebuild(b *testing.B) {
	g, err := New(graph.Kronecker(14, 8, 3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := TxConfig{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := int32(i % (1 << 13))
		if _, err := g.Apply([]Mutation{AddEdge(u, u+1024)}, cfg); err != nil {
			b.Fatal(err)
		}
		s := g.Snapshot()
		b.StartTimer()
		s.FullMaterialize()
	}
}
