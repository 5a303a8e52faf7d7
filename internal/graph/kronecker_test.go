package graph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// kroneckerPlain is the definition of KroneckerABC, written the way its doc
// comment words it: one rand.Rand over the seed draws the label permutation
// and then the edges.
func kroneckerPlain(scale, edgeFactor int, a, b, c float64, seed int64) *Graph {
	n := 1 << uint(scale)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	bld := NewBuilder(n)
	for _, e := range plainEdges(rng, perm, scale, edgeFactor*n, a, b, c) {
		bld.AddEdge(e.U, e.V)
	}
	return bld.Build()
}

// plainEdges draws m R-MAT edges edge by edge and bit by bit: one Float64
// picks the half and, in the lower half, a second picks the side.
func plainEdges(rng *rand.Rand, perm []int, scale, m int, a, b, c float64) []Edge {
	ab, cNorm := a+b, c/(1-a-b)
	edges := make([]Edge, 0, m)
	for e := 0; e < m; e++ {
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
		edges = append(edges, Edge{int32(perm[u]), int32(perm[v])})
	}
	return edges
}

// initiators are the corners of the descent: every outcome of every
// threshold, and the two where no value is a sync value (a+b = 0, and
// 2^-52, which one value in 2^52 reaches).
var initiators = []struct {
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

// TestKroneckerMatchesPlainLoop holds KroneckerABC to its definition array
// for array, where the fingerprint file only holds it to its past output.
func TestKroneckerMatchesPlainLoop(t *testing.T) {
	// These rows take under rmatCut values, so the draw is one worker's;
	// TestRMATEdgesSplits forces the splits.
	for _, in := range initiators {
		for _, scale := range []int{0, 1, 5, 8, 9, 11} { // 8|9: an edge's bits never straddle a 64-bit stream word, and do
			for _, ef := range []int{0, 1, 16} {
				for _, seed := range []int64{1, 7, 12345} {
					want := kroneckerPlain(scale, ef, in.a, in.b, in.c, seed)
					if got := KroneckerABC(scale, ef, in.a, in.b, in.c, seed); !sameCSR(got, want) {
						t.Fatalf("%s scale=%d ef=%d seed=%d: KroneckerABC differs from the plain loop", in.name, scale, ef, seed)
					}
				}
			}
		}
	}
	// The two public shorthands are the first two initiators. The graph is
	// the seed's whatever GOMAXPROCS is: WebGraph(17, 1) takes enough values
	// for its draw to be split in two on two Ps and on three.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		gen  func() *Graph
		want *Graph
	}{
		{func() *Graph { return Kronecker(9, 8, 3) }, kroneckerPlain(9, 8, 0.57, 0.19, 0.19, 3)},
		{func() *Graph { return WebGraph(9, 8, 3) }, kroneckerPlain(9, 8, 0.65, 0.15, 0.15, 3)},
		{func() *Graph { return Kronecker(16, 1, 3) }, kroneckerPlain(16, 1, 0.57, 0.19, 0.19, 3)},
		{func() *Graph { return WebGraph(17, 1, 3) }, kroneckerPlain(17, 1, 0.65, 0.15, 0.15, 3)},
	} {
		for _, p := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(p)
			if got := c.gen(); !slices.Equal(got.Offsets, c.want.Offsets) || !slices.Equal(got.Adj, c.want.Adj) {
				t.Fatalf("GOMAXPROCS=%d: Kronecker or WebGraph differs from the plain loop over its initiator", p)
			}
		}
	}
}

// lfSource is the recurrence of math/rand's seeded source one value at a
// time, continuing from any lfLen values: a rand.Source64 a test can plant
// values in.
type lfSource struct {
	x    []uint64
	next int
}

func (s *lfSource) Uint64() uint64 {
	if s.next == len(s.x) {
		s.x = append(s.x, s.x[s.next-lfLen]+s.x[s.next-lfTap])
	}
	s.next++
	return s.x[s.next-1]
}
func (s *lfSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *lfSource) Seed(int64)   {}

// TestLaggedFibonacciMatchesMathRand is the tripwire for the fact
// KroneckerABC rests on: the lfLen outputs that follow any use of a seeded
// math/rand source are its state, and x[n] = x[n-lfLen] + x[n-lfTap]
// continues it. Go promises the seeded stream of math/rand (v1) will not
// change; should a release break that promise, this test fails and
// KroneckerABC must draw through the source again — there is no runtime
// fallback.
func TestLaggedFibonacciMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		src, twin := rand.NewSource(seed).(rand.Source64), rand.NewSource(seed).(rand.Source64)
		rand.New(src).Perm(1000)
		rand.New(twin).Perm(1000)
		vals := lfStream(src)
		one := &lfSource{x: slices.Clone(vals[lfBlock:])}
		for n := 0; n < 2<<20; {
			for _, x := range lfAdvance(vals) {
				if want, single := twin.Uint64(), one.Uint64(); x != want || single != want {
					t.Fatalf("seed %d: value %d after Perm is %#x (lfAdvance) / %#x (lfSource), math/rand draws %#x", seed, n, x, single, want)
				}
				n++
			}
		}
	}
}

// TestFloatThreshold: x >= floatThreshold(t) is Float64() >= t for the x the
// source returned, on both sides of the bound and at the ends of the range.
func TestFloatThreshold(t *testing.T) {
	const top = 1<<63 - 1
	for _, th := range []float64{0, 5e-324, 0.19, 0.57, 0.76, 0.8, 1 - 0x1p-53, 1, 1.5, math.Inf(1), math.NaN(), -1, math.Inf(-1), 0x1p-63, 0x1p-62, 1 - 0x1p-52, 1 - 0x1p-43} {
		bound := floatThreshold(th)
		if bound > 1<<63 {
			t.Fatalf("floatThreshold(%v) = %d, past 1<<63", th, bound)
		}
		check := func(x uint64) {
			if x > top {
				return
			}
			if got, want := x >= bound, float64(x)/(1<<63) >= th; got != want {
				t.Fatalf("t = %v, bound %d: x = %d compares %v, float64(x)/(1<<63) >= t is %v", th, bound, x, got, want)
			}
		}
		check(0)
		check(top)
		for d := uint64(0); d <= 2048; d++ {
			if bound >= d {
				check(bound - d)
			}
			check(bound + d)
		}
	}
	if got := floatThreshold(1); got != 1<<63-512 {
		t.Fatalf("floatThreshold(1) = %d: Float64 draws again from 1<<63-512 (round half to even) up", got)
	}
}

// TestRMATEdgesRedraws plants, in the state rmatEdges starts from, values
// that convert to 1.0 — Float64 draws again on those — as a first draw, as
// a second draw, twice in a row and with bit 63 set, and next to them the
// largest value that is kept.
func TestRMATEdgesRedraws(t *testing.T) {
	const scale, m = 7, 400 // some 3500 values: the state and more than a block past it
	for _, seed := range []int64{1, 7, 12345} {
		src := rand.NewSource(seed).(rand.Source64)
		perm := rand.New(src).Perm(1 << scale)
		state := lfStream(src)[lfBlock:]
		for i, x := range map[int]uint64{0: 1<<63 - 512, 5: 1<<63 - 1, 6: 1<<64 - 1, 7: 1<<64 - 300, 40: 1<<63 - 513, 41: 1<<63 - 512, 99: 1<<64 - 513, 606: 1<<63 - 1} {
			state[i] = x
		}
		// And one that the block generator computes, lfLen values after
		// state[5]: 2^63-1 + 2^63-511 = 2^64-512, 1.0 again under the mask.
		state[5+lfLen-lfTap] = 1<<63 - 511
		perm32 := make([]int32, len(perm))
		for i, p := range perm {
			perm32[i] = int32(p)
		}
		for _, in := range [][3]float64{{0.57, 0.19, 0.19}, {0, 0, 0.5}, {0.9, 0.3, 0.1}} {
			want := plainEdges(rand.New(&lfSource{x: slices.Clone(state)}), perm, scale, m, in[0], in[1], in[2])
			got := rmatEdges(lfStream(&lfSource{x: slices.Clone(state)}), perm32, scale, m, in[0]+in[1], in[0], in[2]/(1-in[0]-in[1]), 1)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d initiator %v: rmatEdges differs from the plain loop over the same planted state", seed, in)
			}
		}
	}
}

// TestLfJump: the state lfJump computes k values on is the one stepping the
// recurrence k times reaches, from the monomials (k below lfLen) through the
// first reductions to a jump of a million.
func TestLfJump(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		src := rand.NewSource(seed).(rand.Source64)
		rand.New(src).Perm(100)
		vals := lfStream(src)
		var x []uint64 // the stream, stepped
		for len(x) < 1e6+3+lfLen {
			x = append(x, lfAdvance(vals)...)
		}
		for _, k := range []int{0, 1, 606, 607, 608, 2048, 1e6 + 3} {
			if got := lfJump(x[:2*lfLen-1], k)[lfBlock:]; !slices.Equal(got, x[k:k+lfLen]) {
				t.Fatalf("seed %d: lfJump by %d differs from stepping", seed, k)
			}
		}
	}
}

// TestRMATEdgesSplits holds rmatEdges on one to five workers to the plain
// loop over the same state, on every initiator — those with no sync value
// merge every split into piece 0 — and with values the descent redraws
// planted on each split point of each worker count, and one that masks to 0,
// a sync value, right after them. Sizes run from no bits at all through
// splits a few values apart to jumps past several blocks, where the estimate
// of the values the edges take falls on either side of the truth.
func TestRMATEdgesSplits(t *testing.T) {
	for _, in := range initiators {
		ab, cNorm := in.a+in.b, in.c/(1-in.a-in.b)
		sync := min(floatThreshold(ab), floatThreshold(1))
		for _, size := range [][2]int{{0, 5}, {4, 0}, {1, 3}, {7, 50}, {6, 90}, {10, 1500}} {
			scale, m := size[0], size[1]
			values := rmatValues(m*scale, sync, floatThreshold(1))
			for _, seed := range []int64{1, 7} {
				src := rand.NewSource(seed).(rand.Source64)
				perm := rand.New(src).Perm(1 << scale)
				perm32 := make([]int32, len(perm))
				for i, p := range perm {
					perm32[i] = int32(p)
				}
				clean := lfStream(src)[lfBlock:]
				for workers := 1; workers <= 5; workers++ {
					state := slices.Clone(clean)
					for w := 1; w < workers; w++ {
						if k := chunk(values, workers, w); k+2 < lfLen && seed == 7 {
							state[k], state[k+1], state[k+2] = 1<<63-512, 1<<64-1, 1<<63
						}
					}
					want := plainEdges(rand.New(&lfSource{x: slices.Clone(state)}), perm, scale, m, in.a, in.b, in.c)
					got := rmatEdges(lfStream(&lfSource{x: slices.Clone(state)}), perm32, scale, m, ab, in.a, cNorm, workers)
					if !slices.Equal(got, want) {
						t.Fatalf("%s scale=%d m=%d seed=%d workers=%d: rmatEdges differs from the plain loop", in.name, scale, m, seed, workers)
					}
				}
			}
		}
	}
}

// TestRMATEdgesMidBlock holds rmatEdges on one to five workers to the plain
// loop at sizes where every piece spans blocks, every piece after the first
// starts inside a block (seek stops on a sync value in it) and every piece
// ends inside one: the descent enters its loop both on the rest of a block
// seek read and on a fresh one, and stops and goes on mid-block.
func TestRMATEdgesMidBlock(t *testing.T) {
	in := initiators[0]
	ab, cNorm := in.a+in.b, in.c/(1-in.a-in.b)
	one := floatThreshold(1)
	sync := min(floatThreshold(ab), one)
	for _, size := range [][2]int{{11, 1500}, {13, 2500}} {
		scale, m := size[0], size[1]
		values := rmatValues(m*scale, sync, one)
		src := rand.NewSource(3).(rand.Source64)
		perm := rand.New(src).Perm(1 << scale)
		perm32 := make([]int32, len(perm))
		for i, p := range perm {
			perm32[i] = int32(p)
		}
		state := lfStream(src)[lfBlock:]
		x := lfAdvance(lfStream(&lfSource{x: slices.Clone(state)}))
		want := plainEdges(rand.New(&lfSource{x: slices.Clone(state)}), perm, scale, m, in.a, in.b, in.c)
		for workers := 1; workers <= 5; workers++ {
			for w := 1; w < workers; w++ { // piece w starts where piece w-1 ends
				at := chunk(values, workers, w)
				p := rmatPiece{sync: sync, next: at, vals: lfJump(x, at)}
				if !p.seek(chunk(values, workers, w+1)) || len(p.blk) == 0 || (p.next-chunk(values, workers, w-1))%lfBlock == 0 {
					t.Fatalf("scale=%d m=%d workers=%d: piece %d does not start inside a block, or piece %d end on a block's boundary", scale, m, workers, w, w-1)
				}
				if p.next-chunk(values, workers, w-1) < lfBlock {
					t.Fatalf("scale=%d m=%d workers=%d: piece %d spans no block", scale, m, workers, w-1)
				}
			}
			got := rmatEdges(lfStream(&lfSource{x: slices.Clone(state)}), perm32, scale, m, ab, in.a, cNorm, workers)
			if !slices.Equal(got, want) {
				t.Fatalf("scale=%d m=%d workers=%d: rmatEdges differs from the plain loop", scale, m, workers)
			}
		}
	}
}

// TestKroneckerRejectsArguments: a scale that cannot be shifted by or whose
// ids pass int32, a negative edge factor and one whose edges' draws overflow
// int — 2^20·2^44 edges wrap to none at all, 2^20·(2^43+1) to a slice
// length make refuses — panic with the library's own words, as AddEdge does
// on a bad endpoint.
func TestKroneckerRejectsArguments(t *testing.T) {
	for _, c := range [][2]int{{-1, 16}, {31, 1}, {32, 0}, {64, 1}, {4, -1}, {20, 1 << 44}, {20, 1<<43 + 1}, {20, maxEdgeFactor(20) + 1}, {30, math.MaxInt}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "graph: Kronecker scale") {
					t.Errorf("scale %d, edge factor %d: want the worded panic, got %q", c[0], c[1], msg)
				}
			}()
			WebGraph(c[0], c[1], 1)
		}()
	}
	if g := Kronecker(0, 3, 1); g.N != 1 || g.NumEdges() != 0 {
		t.Errorf("scale 0: want one vertex and its self-loops dropped, got %d vertices, %d arcs", g.N, g.NumEdges())
	}
}
