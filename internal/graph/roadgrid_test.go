package graph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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

// TestRoadGridRedraws plants, in the state roadGridCSR starts from, values
// that convert to 1.0 — Float64 draws again on those — where a right, a down
// and a diagonal draw fall, twice in a row and with bit 63 set, and next to
// them the largest value that is kept.
func TestRoadGridRedraws(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		state := lfStream(rand.NewSource(seed).(rand.Source64))[lfBlock:]
		for i, x := range map[int]uint64{0: 1<<63 - 512, 4: 1<<63 - 1, 5: 1<<64 - 1, 8: 1<<64 - 300, 40: 1<<63 - 513, 41: 1<<63 - 512, 99: 1<<64 - 513, 606: 1<<63 - 1} {
			state[i] = x
		}
		// And one that the block generator computes, lfLen values after
		// state[4]: 2^63-1 + 2^63-511 = 2^64-512, 1.0 again under the mask.
		state[4+lfLen-lfTap] = 1<<63 - 511
		for _, drop := range []float64{0, 0.1, 1} { // 40×30: more values than the state and a block after it
			want := roadGridPlain(40, 30, drop, rand.New(&lfSource{x: slices.Clone(state)}))
			if got := roadGridCSR(40, 30, drop, lfStream(&lfSource{x: slices.Clone(state)})); !sameCSR(got, want) {
				t.Fatalf("seed %d dropFrac %v: roadGridCSR differs from the plain loop over the same planted state", seed, drop)
			}
		}
	}
}

// TestRoadGridAllocatesItsCSR: the arrays of the graph, a flag byte per cell
// and 64 KB for the stream block, the flag row above the grid and headers —
// no edge list, whose 8 bytes per edge would double this.
func TestRoadGridAllocatesItsCSR(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := RoadGrid(256, 256, 0.1, 1)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(g.Adj)+8*(g.N+1)+g.N+64<<10); got > limit {
		t.Fatalf("RoadGrid(256,256) allocated %d bytes, more than the %d its CSR and flags take", got, limit)
	}
}

// TestVertexCountsPanicInWords: a count no int32 id numbers is refused where
// it is given, not by make or by ids that wrap.
func TestVertexCountsPanicInWords(t *testing.T) {
	for name, build := range map[string]func(){
		"NewBuilder(-5)":        func() { NewBuilder(-5) },
		"NewBuilder(2^31)":      func() { NewBuilder(1 << 31) },
		"ErdosRenyi(-5)":        func() { ErdosRenyi(-5, 0.5, 1) },
		"RoadGrid(-1,5)":        func() { RoadGrid(-1, 5, 0.1, 1) },
		"RoadGrid(5,-1)":        func() { RoadGrid(5, -1, 0.1, 1) },
		"RoadGrid(0,-1)":        func() { RoadGrid(0, -1, 0.1, 1) },
		"RoadGrid(46341,46341)": func() { RoadGrid(46341, 46341, 0.1, 1) },
		"RoadGrid(2^62,2^62)":   func() { RoadGrid(1<<62, 1<<62, 0.1, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "graph: ") {
					t.Errorf("%s: want the worded panic, got %q", name, msg)
				}
			}()
			build()
		}()
	}
	if g := NewBuilder(0).Build(); g.N != 0 || g.Validate() != nil {
		t.Errorf("NewBuilder(0): %+v", g)
	}
}
