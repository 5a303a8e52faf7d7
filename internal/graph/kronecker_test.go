package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// kroneckerPlain is the definition of KroneckerABC, written the way its doc
// comment words it: one rand.Rand over the seed draws the label permutation
// and then, edge by edge and bit by bit, one Float64 that picks the half
// and, in the lower half, a second that picks the side.
func kroneckerPlain(scale, edgeFactor int, a, b, c float64, seed int64) *Graph {
	n := 1 << uint(scale)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	ab, cNorm := a+b, c/(1-a-b)
	bld := NewBuilder(n)
	for e := 0; e < edgeFactor*n; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			if r := rng.Float64(); r >= ab {
				u |= 1 << uint(bit)
				if rng.Float64() >= cNorm {
					v |= 1 << uint(bit)
				}
			} else if r >= a {
				v |= 1 << uint(bit)
			}
		}
		bld.AddEdge(int32(perm[u]), int32(perm[v]))
	}
	return bld.Build()
}

// TestKroneckerMatchesPlainLoop holds KroneckerABC to its definition array
// for array, where the fingerprint file only holds it to its past output.
func TestKroneckerMatchesPlainLoop(t *testing.T) {
	initiators := []struct {
		name    string
		a, b, c float64
	}{
		{"graph500", 0.57, 0.19, 0.19},
		{"webgraph", 0.65, 0.15, 0.15},
		{"a+b=1,c=0", 0.75, 0.25, 0},   // cNorm = 0/0 = NaN
		{"a+b=1,c>0", 0.75, 0.25, 0.1}, // cNorm = +Inf
		{"c>1-a-b", 0.5, 0.2, 0.4},     // cNorm > 1: the lower half never goes right
		{"a=0", 0, 0.5, 0.25},          // the upper half always goes right
		{"a+b=0", 0, 0, 0.5},           // every bit draws twice
		{"a+b>1", 0.9, 0.3, 0.1},       // never the lower half; cNorm < 0
		{"thresholds-at-2^-53", 0x1p-53, 0x1p-53, 1 - 0x1p-52},
	}
	for _, in := range initiators {
		for _, scale := range []int{0, 1, 5, 11} {
			for _, ef := range []int{0, 1, 16} {
				for _, seed := range []int64{1, 7, 12345} {
					want := kroneckerPlain(scale, ef, in.a, in.b, in.c, seed)
					got := KroneckerABC(scale, ef, in.a, in.b, in.c, seed)
					if got.N != want.N || got.Directed != want.Directed || got.Weights != nil || got.Ends != nil ||
						!slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) {
						t.Fatalf("%s scale=%d ef=%d seed=%d: KroneckerABC differs from the plain loop", in.name, scale, ef, seed)
					}
				}
			}
		}
	}
	// The two public shorthands are the first two initiators.
	for _, c := range []struct{ got, want *Graph }{
		{Kronecker(9, 8, 3), kroneckerPlain(9, 8, 0.57, 0.19, 0.19, 3)},
		{WebGraph(9, 8, 3), kroneckerPlain(9, 8, 0.65, 0.15, 0.15, 3)},
	} {
		if !slices.Equal(c.got.Offsets, c.want.Offsets) || !slices.Equal(c.got.Adj, c.want.Adj) {
			t.Fatal("Kronecker or WebGraph differs from the plain loop over its initiator")
		}
	}
}
