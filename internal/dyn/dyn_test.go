package dyn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

var allMechanisms = []aam.Mechanism{
	aam.MechHTM, aam.MechAtomic, aam.MechLock, aam.MechOptimistic, aam.MechFlatCombining,
}

// arcSet renders a graph's arcs as a sorted, comparable slice.
func arcSet(g *graph.Graph) [][2]int32 {
	var out [][2]int32
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			out = append(out, [2]int32{int32(v), w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func TestApplyBasics(t *testing.T) {
	g := NewEmpty(4)
	res, err := g.Apply([]Mutation{AddEdge(0, 1), AddEdge(1, 2), AddVertex()}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Rejected != 0 || res.VerticesAdded != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	if g.N() != 5 || g.NumArcs() != 4 {
		t.Fatalf("N=%d arcs=%d", g.N(), g.NumArcs())
	}
	s := g.Snapshot()
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 0) || !s.HasEdge(2, 1) || s.HasEdge(0, 2) {
		t.Fatal("edge membership wrong")
	}
	if got := g.ComponentCount(); got != 3 { // {0,1,2} {3} {4}
		t.Fatalf("components = %d, want 3", got)
	}

	// Duplicate add and missing remove are rejected, not applied.
	res, err = g.Apply([]Mutation{AddEdge(1, 0), RemoveEdge(3, 4)}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Rejected != 2 {
		t.Fatalf("unexpected result %+v", res)
	}

	// Remove works and splits the component count view.
	res, err = g.Apply([]Mutation{RemoveEdge(2, 1)}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("remove not applied: %+v", res)
	}
	if g.ComponentCount() != 4 {
		t.Fatalf("components after delete = %d, want 4", g.ComponentCount())
	}
	if g.Snapshot().HasEdge(1, 2) {
		t.Fatal("removed edge still present")
	}
}

func TestApplyValidation(t *testing.T) {
	g := NewEmpty(3)
	if _, err := g.Apply([]Mutation{AddEdge(0, 3)}, TxConfig{}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := g.Apply([]Mutation{AddEdge(1, 1)}, TxConfig{}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.Apply([]Mutation{AddEdge(0, 1)}, TxConfig{Machine: "cray"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := g.Apply([]Mutation{AddEdge(0, 1)}, TxConfig{Runtime: "gpu"}); err == nil {
		t.Fatal("unknown runtime accepted")
	}
	if _, err := g.Apply([]Mutation{{Kind: 99}}, TxConfig{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A batch may wire up the vertices it creates.
	res, err := g.Apply([]Mutation{AddVertex(), AddEdge(2, 3)}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || !g.Snapshot().HasEdge(3, 2) {
		t.Fatalf("batch-created vertex not wired: %+v", res)
	}
}

func TestIntraBatchSemantics(t *testing.T) {
	g := NewEmpty(4)
	// Duplicate adds: one applies, the other is redundant (both commit —
	// neither sees the edge in the pre-batch snapshot).
	res, err := g.Apply([]Mutation{AddEdge(0, 1), AddEdge(1, 0)}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Redundant != 1 {
		t.Fatalf("duplicate adds: %+v", res)
	}
	// Add and remove of an absent edge in one batch: the batch reads the
	// pre-batch state, so the add applies and the remove is rejected.
	res, err = g.Apply([]Mutation{AddEdge(2, 3), RemoveEdge(2, 3)}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Rejected != 1 || !g.Snapshot().HasEdge(2, 3) {
		t.Fatalf("add+remove same batch: %+v", res)
	}
}

// TestMechanismsAgree applies one mutation stream under every isolation
// mechanism and both runtimes; the resulting graphs, component structures
// and mechanism-specific counters must match expectations.
func TestMechanismsAgree(t *testing.T) {
	base := graph.Community(200, 8, 4, 0.1, 3)
	rng := rand.New(rand.NewSource(7))
	var batches [][]Mutation
	for b := 0; b < 6; b++ {
		var batch []Mutation
		for i := 0; i < 40; i++ {
			u, v := int32(rng.Intn(base.N)), int32(rng.Intn(base.N))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				batch = append(batch, RemoveEdge(u, v))
			} else {
				batch = append(batch, AddEdge(u, v))
			}
		}
		batches = append(batches, batch)
	}

	var wantArcs [][2]int32
	var wantCC []int32
	for bi, rt := range []string{"sim", "native"} {
		for _, mech := range allMechanisms {
			name := fmt.Sprintf("%s/%s", rt, mech)
			g, err := New(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := TxConfig{Mechanism: mech, Runtime: rt, Threads: 4}
			for _, batch := range batches {
				if _, err := g.Apply(batch, cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			arcs := arcSet(g.Freeze())
			cc := g.Components()
			if wantArcs == nil {
				wantArcs, wantCC = arcs, cc
			} else {
				if !reflect.DeepEqual(arcs, wantArcs) {
					t.Errorf("%s: final arc set diverges", name)
				}
				if !reflect.DeepEqual(cc, wantCC) {
					t.Errorf("%s: component labels diverge", name)
				}
			}
			if bi == 0 { // counter shapes are only pinned on the sim runtime
				st := g.Stats()
				switch mech {
				case aam.MechHTM:
					if st.Tx.TxStarted == 0 {
						t.Errorf("%s: no transactions recorded", name)
					}
				case aam.MechAtomic:
					if st.Tx.AtomicOps == 0 {
						t.Errorf("%s: no atomics recorded", name)
					}
				case aam.MechLock:
					if st.Tx.LockAcqs == 0 {
						t.Errorf("%s: no lock acquisitions recorded", name)
					}
				case aam.MechOptimistic:
					if st.Tx.TxStarted == 0 {
						t.Errorf("%s: no OCC transactions recorded", name)
					}
				case aam.MechFlatCombining:
					if st.Tx.LockAcqs == 0 {
						t.Errorf("%s: no combiner-lock acquisitions recorded", name)
					}
				}
				if st.Tx.OpsExecuted == 0 {
					t.Errorf("%s: no operators recorded", name)
				}
			}
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	g := NewEmpty(3)
	mustApply(t, g, []Mutation{AddEdge(0, 1)})
	old := g.Snapshot()
	oldArcs := arcSet(old.Freeze())
	mustApply(t, g, []Mutation{AddEdge(1, 2), RemoveEdge(0, 1)})
	if !reflect.DeepEqual(arcSet(old.Freeze()), oldArcs) {
		t.Fatal("published snapshot changed under a later batch")
	}
	if old.Epoch() == g.Epoch() {
		t.Fatal("epoch did not advance")
	}
	if !old.HasEdge(0, 1) || old.HasEdge(1, 2) {
		t.Fatal("old snapshot sees new state")
	}
}

func TestCompaction(t *testing.T) {
	g := NewEmpty(50)
	g.compactFraction = 0.01
	var batch []Mutation
	for v := int32(1); v < 50; v++ {
		batch = append(batch, AddEdge(0, v))
	}
	res, err := g.Apply(batch, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("compaction did not trigger: %+v", res)
	}
	s := g.Snapshot()
	if s.DeltaArcs() != 0 {
		t.Fatalf("deltas survived compaction: %d", s.DeltaArcs())
	}
	if s.NumArcs() != 98 || !s.HasEdge(0, 49) {
		t.Fatalf("compaction lost edges: arcs=%d", s.NumArcs())
	}
	if g.Stats().Compactions != 1 {
		t.Fatalf("compaction counter = %d", g.Stats().Compactions)
	}

	// Explicit compaction is a no-op on a clean graph…
	e := g.Epoch()
	g.Compact()
	if g.Epoch() != e {
		t.Fatal("no-op Compact advanced the epoch")
	}
	// …and folds outstanding deltas otherwise.
	mustApply(t, g, []Mutation{RemoveEdge(0, 49)})
	g.Compact()
	if s := g.Snapshot(); s.DeltaArcs() != 0 || s.HasEdge(0, 49) {
		t.Fatal("explicit Compact left deltas")
	}
}

// TestIncrementalCCMatchesRecompute drives a random insert/delete stream
// and cross-checks the incrementally maintained components against
// algo.SeqComponents over the frozen snapshot after every batch.
func TestIncrementalCCMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewEmpty(60)
	for step := 0; step < 25; step++ {
		var batch []Mutation
		for i := 0; i < 12; i++ {
			u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
			if u == v {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				batch = append(batch, RemoveEdge(u, v))
			case 1:
				if step%5 == 0 {
					batch = append(batch, AddVertex())
				}
			default:
				batch = append(batch, AddEdge(u, v))
			}
		}
		mustApply(t, g, batch)
		want := algo.SeqComponents(g.Freeze())
		got := g.Components()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: incremental CC diverged from recompute", step)
		}
	}
}

// TestConcurrentWritersAndReaders is the race-mode stress test: several
// writer goroutines apply disjoint batches while reader goroutines freeze
// snapshots, walk adjacency, and query components. Afterwards the
// incremental CC must match a from-scratch recompute.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const (
		writers = 4
		readers = 3
		rounds  = 8
	)
	n := 40 * writers
	g := NewEmpty(n)

	var writersWg, readersWg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			mech := allMechanisms[w%len(allMechanisms)]
			lo := int32(w * 40) // writers own disjoint vertex ranges
			for r := 0; r < rounds; r++ {
				var batch []Mutation
				for i := 0; i < 20; i++ {
					u := lo + int32(rng.Intn(40))
					v := lo + int32(rng.Intn(40))
					if u == v {
						continue
					}
					if rng.Intn(4) == 0 {
						batch = append(batch, RemoveEdge(u, v))
					} else {
						batch = append(batch, AddEdge(u, v))
					}
				}
				if _, err := g.Apply(batch, TxConfig{Mechanism: mech, Threads: 2}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readersWg.Add(1)
		go func(r int) {
			defer readersWg.Done()
			var scratch []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := g.Snapshot()
				f := s.Freeze()
				if err := f.Validate(); err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if f.NumEdges() != s.NumArcs() {
					errc <- fmt.Errorf("reader %d: arc count mismatch", r)
					return
				}
				for v := 0; v < s.N(); v += 7 {
					scratch = s.AppendNeighbors(scratch[:0], v)
				}
				g.ComponentCount()
				g.SameComponent(0, int32(s.N()-1))
			}
		}(r)
	}

	// Wait for the writers, then stop the readers.
	writersWg.Wait()
	close(stop)
	readersWg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	want := algo.SeqComponents(g.Freeze())
	if got := g.Components(); !reflect.DeepEqual(got, want) {
		t.Fatal("incremental CC diverged from recompute after concurrent run")
	}
	if g.Stats().Batches != writers*rounds {
		t.Fatalf("batches = %d, want %d", g.Stats().Batches, writers*rounds)
	}
}

func mustNew(tb testing.TB, base *graph.Graph) *Graph {
	tb.Helper()
	g, err := New(base)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestApplyPanicReleasesWriterLock: a panic in an operator body unwinds the
// simulated machine's Run and then Apply, on the caller's goroutine. The
// caller recovers it, and the next batch must not wait on a writer lock
// the panic left held. The operators panic here because the published
// snapshot's base has lost its offsets.
func TestApplyPanicReleasesWriterLock(t *testing.T) {
	g := mustNew(t, graph.Community(80, 8, 4, 0.05, 5))
	good := g.cur.Load()
	broken := *good.base
	broken.Offsets = nil
	g.cur.Store(&Snapshot{epoch: good.epoch, n: good.n, base: &broken, pages: good.pages, arcs: good.arcs, mat: good.mat})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Apply over a base without offsets did not panic")
			}
		}()
		g.Apply([]Mutation{{Kind: KindAddEdge, U: 0, V: 1}, {Kind: KindAddEdge, U: 2, V: 3}}, TxConfig{})
	}()
	g.cur.Store(good)

	done := make(chan BatchResult, 1)
	go func() {
		res, err := g.Apply([]Mutation{{Kind: KindAddVertex}}, TxConfig{})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.VerticesAdded != 1 || res.Epoch != good.epoch+1 {
			t.Fatalf("batch after the panic: %+v, want one vertex at epoch %d", res, good.epoch+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Apply after a recovered panic is still waiting for the writer lock")
	}
}

func mustApply(t *testing.T, g *Graph, batch []Mutation) BatchResult {
	t.Helper()
	res, err := g.Apply(batch, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMutationIdempotence is the regression guard for duplicate and
// missing-target mutations: a duplicate AddEdge of an existing edge and a
// RemoveEdge of a nonexistent edge must be rejected without corrupting
// degree counts, arc totals, or the incremental CC state — cross-checked
// against a full recompute after every batch.
func TestMutationIdempotence(t *testing.T) {
	base := graph.Community(80, 8, 4, 0.05, 5)
	g, err := New(base)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string, wantRejected, gotRejected int) {
		t.Helper()
		if gotRejected != wantRejected {
			t.Fatalf("%s: rejected = %d, want %d", step, gotRejected, wantRejected)
		}
		snap := g.Snapshot()
		f := snap.Freeze()
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: frozen graph invalid: %v", step, err)
		}
		if snap.NumArcs() != f.NumEdges() {
			t.Fatalf("%s: snapshot counts %d arcs, frozen graph has %d", step, snap.NumArcs(), f.NumEdges())
		}
		for v := 0; v < snap.N(); v++ {
			if snap.Degree(v) != f.Degree(v) {
				t.Fatalf("%s: degree(%d) = %d, frozen graph says %d", step, v, snap.Degree(v), f.Degree(v))
			}
		}
		if got, want := g.Components(), algo.SeqComponents(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental CC diverges from full recompute", step)
		}
	}

	// Pick an existing and a nonexistent edge of the base.
	u := 0
	for g.Snapshot().Degree(u) == 0 {
		u++
	}
	v := int(base.Neighbors(u)[0])
	missU, missV := int32(0), int32(0)
	for x := 0; x < base.N && missU == missV; x++ {
		for y := x + 1; y < base.N; y++ {
			if !g.Snapshot().HasEdge(int32(x), int32(y)) {
				missU, missV = int32(x), int32(y)
				break
			}
		}
	}

	// Duplicate AddEdge of an existing edge (both orientations) rejects
	// both without touching state.
	res, err := g.Apply([]Mutation{AddEdge(int32(u), int32(v)), AddEdge(int32(v), int32(u))}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 {
		t.Fatalf("duplicate add applied %d mutations", res.Applied)
	}
	check("duplicate add", 2, res.Rejected)

	// RemoveEdge of a nonexistent edge rejects without corrupting CC.
	res, err = g.Apply([]Mutation{RemoveEdge(missU, missV)}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check("missing remove", 1, res.Rejected)

	// A mixed batch: one real insert, its intra-batch duplicate, one
	// duplicate of an existing edge, one real delete, one missing delete,
	// and a repeat of the real delete.
	res, err = g.Apply([]Mutation{
		AddEdge(missU, missV),
		AddEdge(missV, missU),          // intra-batch duplicate (redundant)
		AddEdge(int32(u), int32(v)),    // exists: rejected
		RemoveEdge(int32(u), int32(v)), // real delete
		RemoveEdge(missU, missV),       // nonexistent pre-batch: rejected
		RemoveEdge(int32(v), int32(u)), // intra-batch duplicate delete
	}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 { // one insert + one delete
		t.Fatalf("mixed batch applied %d, want 2", res.Applied)
	}
	if res.Redundant != 2 {
		t.Fatalf("mixed batch redundant %d, want 2", res.Redundant)
	}
	check("mixed batch", 1+1, res.Rejected) // existing add + the remove below

	// Re-adding the removed edge and re-removing the added one restores
	// the original arc totals; the CC cross-check keeps passing after
	// every inversion, under every mechanism.
	for _, mech := range allMechanisms {
		cfg := TxConfig{Mechanism: mech}
		if _, err := g.Apply([]Mutation{AddEdge(int32(u), int32(v)), RemoveEdge(missU, missV)}, cfg); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("invert %v", mech), 0, 0)
		if _, err := g.Apply([]Mutation{RemoveEdge(int32(u), int32(v)), AddEdge(missU, missV)}, cfg); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("revert %v", mech), 0, 0)
	}
}
