package dyn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// checkForest holds uf to labels, the min-id label of every vertex: the same
// partition and count, labels() equal, and at every root minus the size of
// its set — what union by size goes on from when edges are inserted later.
func checkForest(t *testing.T, uf *unionFind, labels []int32) {
	t.Helper()
	if got := uf.labels(); !slices.Equal(got, labels) {
		t.Fatalf("labels %v, want %v", got, labels)
	}
	size := map[int32]int32{}
	for _, l := range labels {
		size[l]++
	}
	if uf.comps != len(size) {
		t.Fatalf("comps = %d, the labels have %d", uf.comps, len(size))
	}
	for v, p := range uf.parent {
		if r := uf.find(v); (p < 0) != (r == v) || p >= int32(len(labels)) {
			t.Fatalf("parent[%d] = %d, find = %d", v, p, r)
		} else if p < 0 && -p != size[labels[v]] {
			t.Fatalf("root %d holds %d, its set has %d vertices", v, p, size[labels[v]])
		}
	}
}

// TestUnionFindMatchesModel drives random union/grow/find sequences against
// a label array that relabels the whole set on every union.
func TestUnionFindMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		uf, model := newUnionFind(n), make([]int32, n)
		for i := range model {
			model[i] = int32(i)
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				n += rng.Intn(4)
				uf.grow(n)
				for i := len(model); i < n; i++ {
					model = append(model, int32(i))
				}
			case n == 0:
			case op < 7:
				a, b := rng.Intn(n), rng.Intn(n)
				la, lb := model[a], model[b]
				if merged := uf.union(a, b); merged != (la != lb) {
					t.Fatalf("seed %d step %d: union(%d,%d) = %t, labels %d and %d", seed, step, a, b, merged, la, lb)
				}
				for i, l := range model {
					if l == max(la, lb) {
						model[i] = min(la, lb)
					}
				}
			default:
				a, b := rng.Intn(n), rng.Intn(n)
				if same := uf.find(a) == uf.find(b); same != (model[a] == model[b]) {
					t.Fatalf("seed %d step %d: find says %d and %d together = %t", seed, step, a, b, same)
				}
			}
			if step%25 == 0 {
				checkForest(t, uf, model)
			}
		}
		checkForest(t, uf, model)
	}
}

// built returns the forest rebuildCC makes of g's current snapshot.
func built(g *Graph) *unionFind {
	g.rebuildCC(g.Snapshot())
	return g.uf
}

// TestRebuildCCForest: the forest the one builder makes has the components
// a recompute finds — of a base read in place, and of a snapshot whose
// deltas lie on both sides of a page boundary and past the base — and on a
// base that stores an arc one way only it joins what the ascending arcs
// join, no more.
func TestRebuildCCForest(t *testing.T) {
	for name, base := range map[string]*graph.Graph{
		"kron12":   graph.Kronecker(12, 16, 1),
		"road64":   graph.RoadGrid(64, 64, 0.1, 1),
		"edgeless": {N: 9, Offsets: make([]int64, 10)},
		"empty":    {Offsets: []int64{0}},
	} {
		g := mustNew(t, base)
		if g.uf != nil {
			t.Fatalf("%s: New built a forest", name)
		}
		checkForest(t, built(g), algo.SeqComponents(base))
	}

	// Cells 63 and 64 are the last of one page and the first of the next.
	// Recovery is NewWithEpoch and Replay: neither builds a forest.
	g, err := NewWithEpoch(graph.RoadGrid(16, 16, 0.1, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Replay([]Mutation{AddEdge(0, 255), AddVertex()}); err != nil || g.uf != nil || NewEmpty(5).uf != nil {
		t.Fatalf("Replay: %v; forest after it %v, after NewEmpty %v: want none", err, g.uf, NewEmpty(5).uf)
	}
	s := g.Snapshot()
	batch := []Mutation{AddVertex(), AddEdge(63, 200), AddEdge(64, 130), AddEdge(5, 257)}
	for _, v := range []int32{63, 64, 65} {
		batch = append(batch, RemoveEdge(v, s.AppendNeighbors(nil, int(v))[0]))
	}
	g.compactFraction = -1
	if res, err := g.Apply(batch, TxConfig{}); err != nil || res.Applied != len(batch) {
		t.Fatalf("applied %d of %d: %v", res.Applied, len(batch), err)
	}
	if s = g.Snapshot(); s.pages[0] == nil || s.pages[1] == nil || g.uf != nil {
		t.Fatalf("pages %v %v, forest %v: want deltas in both pages and the delete to leave no forest", s.pages[0], s.pages[1], g.uf)
	}
	checkForest(t, built(g), algo.SeqComponents(s.FullMaterialize()))

	// 0→1 counts; 3→2 is stored from its larger end only and is not followed.
	oneWay := &graph.Graph{N: 4, Offsets: []int64{0, 1, 1, 1, 2}, Adj: []int32{1, 2}}
	checkForest(t, built(mustNew(t, oneWay)), []int32{0, 0, 2, 3})
}

// TestForestStatesMatchRecompute walks the forest through every state it
// has — never asked for, built, grown by inserts and new vertices, dropped
// by a delete, rebuilt — in random order: a stream of insert, delete and
// add-vertex batches through Apply and Replay, with compactions, and one
// of the three questions asked at random points (before any write on the
// even seeds, after the first writes on the odd ones, right after a delete
// on both). Every answer is the one a recompute of the frozen snapshot gives.
func TestForestStatesMatchRecompute(t *testing.T) {
	bases := map[string]func() *Graph{
		"kron10":   func() *Graph { return mustNew(t, graph.Kronecker(10, 8, 1)) },
		"road32":   func() *Graph { return mustNew(t, graph.RoadGrid(32, 32, 0.1, 1)) },
		"empty50":  func() *Graph { return NewEmpty(50) },
		"edgeless": func() *Graph { return mustNew(t, &graph.Graph{N: 70, Offsets: make([]int64, 71)}) },
	}
	for name, mk := range bases {
		// How many asks found a forest a delete had dropped: right after the
		// delete, and with further batches applied on the unbuilt forest.
		rightAfter, later := 0, 0
		for seed := int64(1); seed <= 20; seed++ {
			sinceDelete := -1 // batches since an unasked-about delete; -1 without one
			rng := rand.New(rand.NewSource(seed))
			g := mk()
			g.compactFraction = 0.3
			ask := func(when string) {
				t.Helper()
				switch {
				case sinceDelete == 0:
					rightAfter++
				case sinceDelete > 0:
					later++
				}
				sinceDelete = -1
				want := algo.SeqComponents(g.Freeze())
				switch rng.Intn(3) {
				case 0:
					comps := 0
					for v, l := range want {
						if int(l) == v {
							comps++
						}
					}
					if got := g.ComponentCount(); got != comps {
						t.Fatalf("%s seed %d, %s: ComponentCount = %d, recompute %d", name, seed, when, got, comps)
					}
				case 1:
					if got := g.Components(); !slices.Equal(got, want) {
						t.Fatalf("%s seed %d, %s: Components differ from the recompute", name, seed, when)
					}
				default:
					for range 32 {
						u, v := int32(rng.Intn(len(want)+2)-1), int32(rng.Intn(len(want)+2)-1) // -1 and n are in no component
						same := u >= 0 && v >= 0 && int(u) < len(want) && int(v) < len(want) && want[u] == want[v]
						if got := g.SameComponent(u, v); got != same {
							t.Fatalf("%s seed %d, %s: SameComponent(%d,%d) = %t, recompute %t", name, seed, when, u, v, got, same)
						}
					}
				}
			}
			if seed%2 == 0 {
				ask("before any write")
			}
			var nb []int32
			for step := 0; step < 24; step++ {
				if rng.Intn(8) == 0 {
					g.Compact()
					if rng.Intn(2) == 0 {
						ask("after Compact")
					}
					continue
				}
				s, n := g.Snapshot(), g.N()
				var batch []Mutation
				deletes, deleted := rng.Intn(3) == 0, false // a batch that may delete; one that did
				for range 1 + rng.Intn(10) {
					u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
					switch k := rng.Intn(8); {
					case k == 0:
						batch = append(batch, AddVertex())
						n++
						if rng.Intn(2) == 0 {
							batch = append(batch, AddEdge(u, int32(n-1))) // wired up in its own batch
						}
					case u == v:
					case deletes && k < 4 && int(u) < s.N():
						if nb = s.AppendNeighbors(nb[:0], int(u)); len(nb) > 0 { // an edge that exists
							v = nb[rng.Intn(len(nb))]
						}
						if u != v { // the base may hold a self-loop
							batch = append(batch, RemoveEdge(u, v))
							deleted = deleted || s.HasEdge(u, v)
						}
					default:
						batch = append(batch, AddEdge(u, v))
					}
				}
				var err error
				if rng.Intn(3) == 0 {
					_, err = g.Replay(batch)
				} else {
					_, err = g.Apply(batch, TxConfig{Seed: seed})
				}
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", name, seed, step, err)
				}
				if deleted {
					sinceDelete = 0
				} else if sinceDelete >= 0 {
					sinceDelete++
				}
				if rng.Intn(2) == 0 {
					ask(fmt.Sprintf("after step %d (deleted %t)", step, deleted))
				}
			}
			ask("at the end")
		}
		if rightAfter == 0 || later == 0 {
			t.Fatalf("%s: %d asks right after a delete, %d with writes since: the stream must make both", name, rightAfter, later)
		}
	}
}
