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
	// These rows take under rmatCut values, so they are one band;
	// TestRoadGridSplits forces the splits.
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
	// The benchmark's road20 grid takes some 3.1 M values: one band on one P,
	// two on two and three on three.
	want := roadGridPlain(1024, 1024, 0.1, rand.New(rand.NewSource(1)))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(p)
		if got := RoadGrid(1024, 1024, 0.1, 1); !sameCSR(got, want) {
			t.Fatalf("GOMAXPROCS=%d: RoadGrid(1024,1024) differs from the plain loop", p)
		}
	}
}

// TestRoadGridSplits holds roadGridCSR on one to five workers to the plain
// loop over the same state: shapes with fewer rows than workers, one column,
// bands of one row, no columns, and a grid whose later bands jump past the
// state and past several blocks. Values Float64 draws again on are planted,
// twice in a row, on the first value of every band the state holds, of band 0
// alone and of the last band alone: a band that meets one must have every
// band after it drawn again.
func TestRoadGridSplits(t *testing.T) {
	redraw := [2]uint64{1<<63 - 512, 1<<64 - 1} // 1.0, and 1.0 under the mask
	for _, s := range [][2]int{{0, 4}, {4, 0}, {1, 1}, {1, 9}, {9, 1}, {9, 3}, {9, 5}, {12, 11}, {3, 14}, {40, 30}} {
		w, h := s[0], s[1]
		for _, seed := range []int64{1, 7} {
			clean := lfStream(rand.NewSource(seed).(rand.Source64))[lfBlock:]
			for workers := 1; workers <= 5; workers++ {
				bands := min(workers, max(h, 1))
				first := func(b int) int { return chunk(h, bands, b) * (3*w - 2) }
				for _, planted := range [][]int{nil, {0, 1, 2, 3, 4}, {0}, {bands - 1}} {
					state := slices.Clone(clean)
					for _, b := range planted {
						if k := first(b); b < bands && w > 0 && k+1 < lfLen {
							state[k], state[k+1] = redraw[0], redraw[1]
						}
					}
					for _, drop := range []float64{0.1, 0.5} {
						want := roadGridPlain(w, h, drop, rand.New(&lfSource{x: slices.Clone(state)}))
						if got := roadGridCSR(w, h, drop, lfStream(&lfSource{x: slices.Clone(state)}), workers); !sameCSR(got, want) {
							t.Fatalf("%dx%d seed=%d workers=%d redraws at the start of bands %v dropFrac=%v: roadGridCSR differs from the plain loop", w, h, seed, workers, planted, drop)
						}
					}
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
			if got := roadGridCSR(40, 30, drop, lfStream(&lfSource{x: slices.Clone(state)}), 1); !sameCSR(got, want) {
				t.Fatalf("seed %d dropFrac %v: roadGridCSR differs from the plain loop over the same planted state", seed, drop)
			}
		}
	}
}

// TestRoadGridAllocatesItsCSR: the arrays of the graph, a flag byte per cell,
// per band a stream and what a jump of it takes beside it, and 48 KB for the
// source, the values jumps start from, the flag row above the grid, headers
// and the three arrays' rounding up to whole pages — no edge list, whose 8
// bytes per edge would double this, and no scratch adjacency per band.
func TestRoadGridAllocatesItsCSR(t *testing.T) {
	const stream, jump = 8 * (lfBlock + lfLen), 8 * 3 * lfLen
	for _, workers := range []int{1, 3} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := roadGridCSR(256, 256, 0.1, lfStream(rand.NewSource(1).(rand.Source64)), workers)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(g.Adj)+8*(g.N+1)+g.N+workers*(stream+jump)+48<<10); got > limit {
			t.Fatalf("RoadGrid(256,256) on %d workers allocated %d bytes, more than the %d its CSR, flags and streams take", workers, got, limit)
		}
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
