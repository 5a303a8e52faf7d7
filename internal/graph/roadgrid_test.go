package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// roadGridPlain is the definition of RoadGrid: cell by cell in row-major
// order, one Float64 decides the edge to the right, one the edge down and one
// the diagonal shortcut, each drawn only where the neighbour exists.
func roadGridPlain(w, h int, dropFrac float64, rng *rand.Rand) *Graph {
	bld := NewBuilder(w * h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w && rng.Float64() >= dropFrac {
				bld.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h && rng.Float64() >= dropFrac {
				bld.AddEdge(id(x, y), id(x, y+1))
			}
			if x+1 < w && y+1 < h && rng.Float64() < 0.02 {
				bld.AddEdge(id(x, y), id(x+1, y+1))
			}
		}
	}
	return bld.Dedup().Build()
}

func sameCSR(got, want *Graph) bool {
	return got.N == want.N && got.Directed == want.Directed && got.Weights == nil && got.Ends == nil &&
		slices.Equal(got.Offsets, want.Offsets) && slices.Equal(got.Adj, want.Adj)
}

// TestRoadGridMatchesPlainLoop holds RoadGrid to its definition array for
// array, where the fingerprint file only holds it to its past output.
func TestRoadGridMatchesPlainLoop(t *testing.T) {
	for _, s := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {24, 17}, {100, 3}, {256, 256}} {
		for _, drop := range []float64{0, 0.05, 0.1, 0.5, 1, 1.5, -1, math.NaN()} {
			for _, seed := range []int64{1, 7, 12345} {
				want := roadGridPlain(s[0], s[1], drop, rand.New(rand.NewSource(seed)))
				if got := RoadGrid(s[0], s[1], drop, seed); !sameCSR(got, want) {
					t.Fatalf("%dx%d dropFrac=%v seed=%d: RoadGrid differs from the plain loop", s[0], s[1], drop, seed)
				}
			}
		}
	}
}
