package dyn

import (
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

// TestSweepBaseForest: the forest New starts from has the components a
// recompute finds, and on a base that stores an arc one way only it joins
// what the ascending arcs join, no more.
func TestSweepBaseForest(t *testing.T) {
	for name, base := range map[string]*graph.Graph{
		"kron12":   graph.Kronecker(12, 16, 1),
		"road64":   graph.RoadGrid(64, 64, 0.1, 1),
		"edgeless": {N: 9, Offsets: make([]int64, 10)},
		"empty":    {Offsets: []int64{0}},
	} {
		uf, _, ok := sweepBase(base)
		if !ok {
			t.Fatalf("%s: base rejected", name)
		}
		checkForest(t, uf, algo.SeqComponents(base))
	}
	// 0→1 counts; 3→2 is stored from its larger end only and is not followed.
	oneWay := &graph.Graph{N: 4, Offsets: []int64{0, 1, 1, 1, 2}, Adj: []int32{1, 2}}
	uf, sorted, ok := sweepBase(oneWay)
	if !ok || !sorted {
		t.Fatalf("one-way base: ok %t, sorted %t", ok, sorted)
	}
	checkForest(t, uf, []int32{0, 0, 2, 3})
}
