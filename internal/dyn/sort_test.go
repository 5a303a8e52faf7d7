package dyn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"aamgo/internal/graph"
)

// segmentFills are the orders a segment reaches sortSegments in: a
// generator's (random), a multigraph's (few distinct ids), a compaction's
// (the sorted base run, then the batch's adds; or untouched) and the worst
// case of an insertion sort.
var segmentFills = []struct {
	name string
	fill func(seg []int32, n int, rng *rand.Rand)
}{
	{"random", func(seg []int32, n int, rng *rand.Rand) {
		for i := range seg {
			seg[i] = int32(rng.Intn(n))
		}
	}},
	{"duplicates", func(seg []int32, n int, rng *rand.Rand) {
		few := []int32{0, int32(n - 1), int32(rng.Intn(n))}
		for i := range seg {
			seg[i] = few[rng.Intn(len(few))]
		}
	}},
	{"sorted-run-then-tail", func(seg []int32, n int, rng *rand.Rand) {
		for i := range seg {
			seg[i] = int32(rng.Intn(n))
		}
		slices.Sort(seg[:len(seg)-min(len(seg), 5)])
	}},
	{"sorted", func(seg []int32, n int, rng *rand.Rand) {
		for i := range seg {
			seg[i] = int32(rng.Intn(n))
		}
		slices.Sort(seg)
	}},
	{"descending", func(seg []int32, n int, rng *rand.Rand) {
		for i := range seg {
			seg[i] = int32((len(seg) - 1 - i) % n)
		}
	}},
	{"one-bucket", func(seg []int32, n int, rng *rand.Rand) {
		for i := range seg {
			seg[i] = int32(rng.Intn(min(n, bucketWidth(len(seg), n))))
		}
	}},
}

// bucketWidth is how many ids share a bucket of sortIDs on a segment of l
// ids below n: the ids below it all land in the first.
func bucketWidth(l, n int) int {
	return 1 << max(0, bits.Len(uint(n-1))-bits.Len(uint(l)))
}

// TestSortSegments compares sortSegments with slices.Sort segment by
// segment: lengths on both sides of the powers of two where sortIDs takes
// another bit for its buckets and of bucketCap, a hub long enough for a
// second worker, vertex counts below and above the bucket count, every fill
// above, on one and on two workers.
func TestSortSegments(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, bucketCap - 1, bucketCap, bucketCap + 1, 0, 70_000, 63, 64, 65, 1000, 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 2, 10, 1000, 2048, 2049, 1 << 18} {
			for _, f := range segmentFills {
				rng := rand.New(rand.NewSource(int64(n)))
				g := &graph.Graph{N: max(n, len(lengths)), Offsets: []int64{0}}
				for _, l := range lengths {
					seg := make([]int32, l)
					f.fill(seg, n, rng)
					g.Adj = append(g.Adj, seg...)
					g.Offsets = append(g.Offsets, int64(len(g.Adj)))
				}
				for len(g.Offsets) <= g.N {
					g.Offsets = append(g.Offsets, int64(len(g.Adj)))
				}
				want := slices.Clone(g.Adj)
				for v := range lengths {
					slices.Sort(want[g.Offsets[v]:g.Offsets[v+1]])
				}
				sortSegments(g)
				if !slices.Equal(g.Adj, want) {
					t.Fatalf("GOMAXPROCS %d, ids below %d, %s: segments differ from slices.Sort", procs, n, f.name)
				}
			}
		}
	}
}

// TestSortIDs calls the segment sort directly with id ranges no test graph
// can have (31 bits), with fewer ids than buckets (n = 3, and n = 1000 under
// a 70k hub), with one bucket of exactly bucketCap ids and of one more among
// ids that leave the others one or none, and with scratch it must grow, may
// reuse and must not read.
func TestSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tmp []int32
	check := func(seg []int32, n int, what string) {
		t.Helper()
		want := slices.Clone(seg)
		slices.Sort(want)
		for i := range tmp {
			tmp[i] = -1 // what an earlier, longer segment left behind
		}
		tmp = sortIDs(seg, n, tmp)
		if !slices.Equal(seg, want) {
			t.Fatalf("ids below %d, %d of them, %s: sortIDs differs from slices.Sort", n, len(seg), what)
		}
		if len(tmp) < len(seg) {
			t.Fatalf("scratch of %d returned after a segment of %d", len(tmp), len(seg))
		}
	}
	for _, n := range []int{math.MaxInt32, 1<<23 + 5, 1 << 12, 1<<11 + 1, 1000, 3} {
		for _, l := range []int{bucketCap, 1000, 5000, bucketCap + 1, 70_000} {
			seg := make([]int32, l)
			for i := range seg {
				seg[i] = int32(rng.Intn(n))
			}
			seg[0], seg[l-1] = int32(n-1), 0
			check(seg, n, "random")
		}
	}
	for _, full := range []int{bucketCap, bucketCap + 1} {
		const n, l = 1 << 20, 1000
		w := bucketWidth(l, n)
		seg := make([]int32, l)
		for i := range seg {
			seg[i] = int32(i * (n / l)) // one id a bucket or none
		}
		for i := range full {
			seg[i] = int32(5*w + rng.Intn(w)) // bucket 5, unsorted
		}
		rng.Shuffle(l, func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		check(seg, n, fmt.Sprintf("%d in one bucket", full))
	}
	if got := sortIDs([]int32{1, 2}, 3, nil); got != nil {
		t.Fatalf("a sorted segment allocated %d ids of scratch", len(got))
	}
}

// TestSweepBaseMatchesPerSegmentChecks: on random small bases — empty
// segments between full ones, equal ids and descents across a boundary,
// one swap inside a segment, one id out of range, one offset negative, past
// the arcs or out of order — sweepBase on one to five workers accepts what
// graph.Validate accepts and calls sorted what slices.IsSorted calls sorted
// segment by segment, in both directions (a sorted base taken for unsorted
// would only be copied for nothing, and no other test would see it).
func TestSweepBaseMatchesPerSegmentChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	verdicts := map[[2]bool]int{}
	for range 4000 {
		n := 1 + rng.Intn(6)
		g := &graph.Graph{N: n, Offsets: make([]int64, n+1)}
		for v := range n {
			seg := make([]int32, rng.Intn(4)*rng.Intn(2))
			for i := range seg {
				seg[i] = int32(rng.Intn(n))
			}
			if rng.Intn(4) > 0 {
				slices.Sort(seg)
			}
			g.Adj = append(g.Adj, seg...)
			g.Offsets[v+1] = int64(len(g.Adj))
		}
		if len(g.Adj) > 0 && rng.Intn(8) == 0 {
			g.Adj[rng.Intn(len(g.Adj))] = []int32{-1, int32(n), math.MinInt32, math.MaxInt32}[rng.Intn(4)]
		}
		if n > 1 && rng.Intn(8) == 0 {
			v := 1 + rng.Intn(n-1)
			g.Offsets[v] = []int64{-10, -1, int64(len(g.Adj)) + 3, g.Offsets[v+1] + 1, g.Offsets[v-1] - 1}[rng.Intn(5)]
		}
		wantOK, wantSorted := g.Validate() == nil, true
		for v := 0; wantOK && v < n; v++ {
			wantSorted = wantSorted && slices.IsSorted(g.Neighbors(v))
		}
		for workers := 1; workers <= 5; workers++ {
			sorted, ok := sweepBase(g, workers)
			if ok != wantOK || ok && sorted != wantSorted {
				t.Fatalf("offsets %v adj %v, %d workers: sweepBase says sorted %t, ok %t; want %t, %t", g.Offsets, g.Adj, workers, sorted, ok, wantSorted, wantOK)
			}
		}
		verdicts[[2]bool{wantOK, wantOK && wantSorted}]++
	}
	if len(verdicts) != 3 {
		t.Fatalf("verdicts seen %v: want rejected, sorted and unsorted bases", verdicts)
	}
}
