package dyn

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// deltaModel is the dense reference the paged delta table is checked
// against: one neighbour multiset per vertex, copied whole per epoch.
type deltaModel []map[int32]int

func modelOf(g *graph.Graph) deltaModel {
	m := make(deltaModel, g.N)
	for v := range m {
		m[v] = map[int32]int{}
		for _, w := range g.Neighbors(v) {
			m[v][w]++
		}
	}
	return m
}

func (m deltaModel) neighbors(v int) []int32 {
	var out []int32
	for w, c := range m[v] {
		for ; c > 0; c-- {
			out = append(out, w)
		}
	}
	slices.Sort(out)
	return out
}

// apply returns the model after batch and the outcome counts Apply must
// report: every edge mutation is judged against m, the pre-batch state.
func (m deltaModel) apply(batch []Mutation) (next deltaModel, applied, rejected, redundant int) {
	for _, nb := range m {
		c := make(map[int32]int, len(nb))
		for w, k := range nb {
			c[w] = k
		}
		next = append(next, c)
	}
	seen := map[Mutation]bool{}
	for _, mu := range batch {
		if mu.Kind == KindAddVertex {
			next = append(next, map[int32]int{})
			applied++
			continue
		}
		exists := int(mu.U) < len(m) && m[mu.U][mu.V] > 0
		if exists != (mu.Kind == KindRemoveEdge) {
			rejected++
			continue
		}
		key := Mutation{Kind: mu.Kind, U: min(mu.U, mu.V), V: max(mu.U, mu.V)}
		if seen[key] {
			redundant++
			continue
		}
		seen[key] = true
		applied++
		if mu.Kind == KindAddEdge {
			next[mu.U][mu.V]++
			next[mu.V][mu.U]++
		} else {
			delete(next[mu.U], mu.V) // every parallel copy
			delete(next[mu.V], mu.U)
		}
	}
	return next, applied, rejected, redundant
}

// check compares every vertex of s with the model: adjacency, degree,
// membership of each neighbour and of probes non-neighbours (all of them
// when full).
func (m deltaModel) check(t *testing.T, s *Snapshot, rng *rand.Rand, full bool) {
	t.Helper()
	if s.N() != len(m) {
		t.Fatalf("epoch %d: N = %d, model has %d", s.Epoch(), s.N(), len(m))
	}
	var arcs int64
	var buf []int32
	for v := range m {
		want := m.neighbors(v)
		arcs += int64(len(want))
		buf = s.AppendNeighbors(buf[:0], v)
		slices.Sort(buf)
		if !slices.Equal(buf, want) {
			t.Fatalf("epoch %d: neighbours of %d = %v, model %v", s.Epoch(), v, buf, want)
		}
		if s.Degree(v) != len(want) {
			t.Fatalf("epoch %d: Degree(%d) = %d, model %d", s.Epoch(), v, s.Degree(v), len(want))
		}
		probes := want
		if full {
			probes = nil
			for w := range m {
				probes = append(probes, int32(w))
			}
		} else {
			for range 8 {
				probes = append(probes, int32(rng.Intn(len(m))))
			}
		}
		for _, w := range probes {
			if got := s.HasEdge(int32(v), w); got != (m[v][w] > 0) {
				t.Fatalf("epoch %d: HasEdge(%d,%d) = %v, model has %d copies", s.Epoch(), v, w, got, m[v][w])
			}
		}
	}
	if s.NumArcs() != arcs {
		t.Fatalf("epoch %d: NumArcs = %d, model %d", s.Epoch(), s.NumArcs(), arcs)
	}
}

// TestDeltaTableMatchesModel drives seeded random streams of add / remove /
// add-vertex batches under every mechanism — over a base with parallel
// edges and a vertex count that is no multiple of the page size, growing
// across a page boundary, with duplicate adds, removes of parallel copies
// and compactions — and after every batch checks every snapshot published
// so far against the model recorded when it was published: a later write
// into a shared page must never show in an older view. Readers scan the
// retained snapshots all along, so under -race a write into a published
// page or list is a reported race as well.
func TestDeltaTableMatchesModel(t *testing.T) {
	const n0, batches = 150, 36 // 150 = 2 pages + 22 cells; grows past 192
	for _, mech := range allMechanisms {
		t.Run(mech.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mech) + 11))
			b := graph.NewBuilder(n0)
			for range 3 * n0 {
				u, v := int32(rng.Intn(n0)), int32(rng.Intn(n0))
				for c := 1 + rng.Intn(2); c > 0 && u != v; c-- { // parallel copies
					b.AddEdge(u, v)
				}
			}
			base := b.Build()
			g := mustNew(t, base)
			g.compactFraction = 0.2

			var mu sync.Mutex // guards snaps against the readers
			snaps := []*Snapshot{g.Snapshot()}
			models := []deltaModel{modelOf(base)}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					var buf []int32
					for {
						select {
						case <-stop:
							return
						default:
						}
						mu.Lock()
						s := snaps[rng.Intn(len(snaps))]
						mu.Unlock()
						for v := 0; v < s.N(); v++ {
							buf = s.AppendNeighbors(buf[:0], v)
							if len(buf) != s.Degree(v) {
								t.Errorf("epoch %d: reader saw %d neighbours of %d, degree %d", s.Epoch(), len(buf), v, s.Degree(v))
								return
							}
						}
						s.Freeze()
						runtime.Gosched()
					}
				}()
			}
			defer func() { close(stop); wg.Wait() }()

			compactions := 0
			for i := range batches {
				cur := models[len(models)-1]
				n := len(cur)
				var batch []Mutation
				for range 12 + rng.Intn(12) {
					u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
					switch k := rng.Intn(10); {
					case k == 0:
						batch = append(batch, AddVertex())
						n++
					case u == v:
					case k < 5:
						batch = append(batch, AddEdge(u, v))
						if rng.Intn(4) == 0 {
							batch = append(batch, AddEdge(v, u)) // intra-batch duplicate
						}
					case k < 9 && int(u) < len(cur) && len(cur[u]) > 0: // an edge that exists
						nb := cur.neighbors(int(u)) // a parallel pair is twice as likely
						batch = append(batch, RemoveEdge(u, nb[rng.Intn(len(nb))]))
					default:
						batch = append(batch, RemoveEdge(u, v))
					}
				}
				next, applied, rejected, redundant := cur.apply(batch)
				res, err := g.Apply(batch, TxConfig{Mechanism: mech, Seed: int64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				if res.Applied != applied || res.Rejected != rejected || res.Redundant != redundant {
					t.Fatalf("batch %d: applied/rejected/redundant = %d/%d/%d, model %d/%d/%d",
						i, res.Applied, res.Rejected, res.Redundant, applied, rejected, redundant)
				}
				if res.Compacted {
					compactions++
				}
				s := g.Snapshot()
				mu.Lock()
				snaps = append(snaps, s)
				mu.Unlock()
				models = append(models, next)
				for j, old := range snaps {
					models[j].check(t, old, rng, j == len(snaps)-1)
				}
				if a, b := arcSet(s.Freeze()), arcSet(s.FullMaterialize()); !slices.Equal(a, b) {
					t.Fatalf("batch %d: Freeze differs from FullMaterialize", i)
				}
			}
			if last := len(models[len(models)-1]); last <= 192 || last%pageSize == 0 {
				t.Fatalf("stream ended at %d vertices: want growth into a fourth, partly used page", last)
			}
			if compactions == 0 {
				t.Fatal("stream triggered no compaction")
			}
		})
	}
}

// TestCloneCostIsPerPage pins what one epoch pays before it changes
// anything: two allocations (the snapshot and its page-pointer table) and
// bytes proportional to N/pageSize — not to N, as the dense tables were
// (48 B per vertex).
func TestCloneCostIsPerPage(t *testing.T) {
	for _, side := range []int{64, 512} {
		g := mustNew(t, graph.RoadGrid(side, side, 0.1, 1))
		n := g.N()
		mustApply(t, g, []Mutation{AddEdge(0, int32(n-1)), AddEdge(1, int32(n/2))})
		s := g.Snapshot()
		var sink *Snapshot
		if allocs := testing.AllocsPerRun(16, func() { sink = s.clone(n) }); allocs != 2 {
			t.Errorf("N=%d: clone made %v allocations, want 2", n, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sink = s.clone(n)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*8*n/pageSize+512); got > bound {
			t.Errorf("N=%d: clone allocated %d B, bound %d (dense tables: %d)", n, got, bound, 48*n)
		}
		if !sink.HasEdge(0, int32(n-1)) || sink.Degree(1) != s.Degree(1) {
			t.Errorf("N=%d: clone lost the deltas", n)
		}
	}
}

// malformedBases lists one base per check of graph.Validate that dyn.New
// repeats in its own sweep, with the error New returned for it before the
// sweeps were merged (want is that error byte for byte; N < 0 used to
// panic).
var malformedBases = []struct {
	name string
	base *graph.Graph
	want string
}{
	{"nil", nil, "dyn: nil base graph"},
	{"directed", &graph.Graph{N: 1, Offsets: []int64{0, 0}, Directed: true}, "dyn: base graph must be undirected"},
	{"negative N", &graph.Graph{N: -1}, "dyn: invalid base: graph: negative vertex count -1"},
	{"more negative N", &graph.Graph{N: -5, Offsets: []int64{0}}, "dyn: invalid base: graph: offsets len 1, want -4"},
	{"negative N, patched", &graph.Graph{N: -1, Ends: []int64{}}, "dyn: invalid base: graph: ends len 0, want -1"},
	{"offsets too short", &graph.Graph{N: 3, Offsets: []int64{0, 1}, Adj: []int32{1}}, "dyn: invalid base: graph: offsets len 2, want 4"},
	{"offsets empty", &graph.Graph{N: 0}, "dyn: invalid base: graph: offsets len 0, want 1"},
	{"offsets[0] != 0", &graph.Graph{N: 2, Offsets: []int64{1, 1, 2}, Adj: []int32{1, 0}}, "dyn: invalid base: graph: offsets[0] = 1, want 0"},
	{"offsets not monotone", &graph.Graph{N: 3, Offsets: []int64{0, 2, 1, 2}, Adj: []int32{1, 2}}, "dyn: invalid base: graph: offsets not monotone at 1"},
	{"offsets dip below zero", &graph.Graph{N: 2, Offsets: []int64{0, -1, 2}, Adj: []int32{1, 0}}, "dyn: invalid base: graph: offsets not monotone at 0"},
	{"offsets[N] short of adj", &graph.Graph{N: 2, Offsets: []int64{0, 1, 1}, Adj: []int32{1, 0}}, "dyn: invalid base: graph: offsets[N] = 1, want 2"},
	{"offsets[N] past adj", &graph.Graph{N: 2, Offsets: []int64{0, 1, 9}, Adj: []int32{1, 0}}, "dyn: invalid base: graph: offsets[N] = 9, want 2"},
	{"neighbour < 0, first segment", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{-1, 2, 0, 2, 0, 1}}, "dyn: invalid base: graph: adj[0] = -1 out of range"},
	{"neighbour >= N, first segment", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{1, 3, 0, 2, 0, 1}}, "dyn: invalid base: graph: adj[1] = 3 out of range"},
	{"neighbour < 0, middle segment", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{1, 2, 0, -7, 0, 1}}, "dyn: invalid base: graph: adj[3] = -7 out of range"},
	{"neighbour >= N, middle segment", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{1, 2, 1 << 30, 2, 0, 1}}, "dyn: invalid base: graph: adj[2] = 1073741824 out of range"},
	{"neighbour < 0, last segment", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{1, 2, 0, 2, 0, -1}}, "dyn: invalid base: graph: adj[5] = -1 out of range"},
	{"neighbour >= N, last segment", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{1, 2, 0, 2, 3, 1}}, "dyn: invalid base: graph: adj[4] = 3 out of range"},
	{"two bad neighbours: the first is named", &graph.Graph{N: 3, Offsets: []int64{0, 2, 4, 6}, Adj: []int32{1, 2, 0, 5, 0, -1}}, "dyn: invalid base: graph: adj[3] = 5 out of range"},
	{"weights length", &graph.Graph{N: 2, Offsets: []int64{0, 1, 2}, Adj: []int32{1, 0}, Weights: []uint32{7}}, "dyn: invalid base: graph: weights len 1, adj len 2"},
	{"weights length before bad neighbour", &graph.Graph{N: 2, Offsets: []int64{0, 1, 2}, Adj: []int32{1, 9}, Weights: []uint32{7}}, "dyn: invalid base: graph: weights len 1, adj len 2"},
	{"patched: ends length", &graph.Graph{N: 2, Offsets: []int64{0, 1, 2}, Ends: []int64{1}, Adj: []int32{1, 0}, Arcs: 2}, "dyn: invalid base: graph: ends len 1, want 2"},
	{"patched: segment out of range", &graph.Graph{N: 2, Offsets: []int64{0, 1, 2}, Ends: []int64{1, 3}, Adj: []int32{1, 0}, Arcs: 3}, "dyn: invalid base: graph: segment [1,3) of vertex 1 out of range [0,2]"},
	{"patched: neighbour out of range", &graph.Graph{N: 2, Offsets: []int64{0, 1, 2}, Ends: []int64{1, 2}, Adj: []int32{1, 2}, Arcs: 2}, "dyn: invalid base: graph: neighbor 2 of vertex 1 out of range"},
	{"patched: arc count", &graph.Graph{N: 2, Offsets: []int64{0, 1, 2}, Ends: []int64{1, 2}, Adj: []int32{1, 0}, Arcs: 5}, "dyn: invalid base: graph: arcs = 5, segments hold 2"},
}

// TestNewRejectsMalformedBase: New returns an error — never panics, so the
// union-find is never handed an id outside [0, N) — and the error is the
// one graph.Validate words.
func TestNewRejectsMalformedBase(t *testing.T) {
	for _, c := range malformedBases {
		t.Run(c.name, func(t *testing.T) {
			g, err := New(c.base)
			if err == nil || g != nil {
				t.Fatalf("New accepted the base (graph %v, error %v)", g, err)
			}
			if err.Error() != c.want {
				t.Errorf("error %q, want %q", err, c.want)
			}
		})
	}
}

// fuzzBase builds a small graph from raw bytes, one signed byte per offset
// and per neighbour, so that every kind of malformed base is a few
// mutations away from a valid one.
func fuzzBase(n int, offs, adj []byte) *graph.Graph {
	g := &graph.Graph{N: n}
	for _, b := range offs {
		g.Offsets = append(g.Offsets, int64(int8(b)))
	}
	for _, b := range adj {
		g.Adj = append(g.Adj, int32(int8(b)))
	}
	return g
}

// FuzzDynNewBase: on any (N, offsets, adj), New fails exactly when
// graph.Validate does, with Validate's message, and never panics, nor does
// the sweep on one to three workers, each of which gives New's verdict; an
// accepted base comes back with the same adjacency, sorted per vertex, and
// the components a recompute finds.
func FuzzDynNewBase(f *testing.F) {
	// testdata/fuzz/FuzzDynNewBase holds more: N = -1 (Validate used to index
	// Offsets[0] of nothing), a bad last arc, a segment past the end of adj,
	// an offset of 0 after a negative one (a run of the sweep that starts
	// there must not index adj[-1]).
	f.Add(3, []byte{0, 2, 4, 6}, []byte{2, 1, 0, 2, 1, 0}) // a triangle, first segment unsorted
	f.Add(5, []byte{0, 1, 2, 3, 4, 4}, []byte{1, 0, 3, 2}) // two components and a singleton
	f.Add(2, []byte{0, 2, 4}, []byte{1, 1, 0, 0})          // parallel copies
	f.Add(70, make([]byte, 71), []byte{})                  // more than one page of vertices
	f.Add(0, []byte{0}, []byte{})
	f.Add(2, []byte{0, 1, 2}, []byte{0xff, 0}) // neighbour -1 in the first segment
	f.Add(3, []byte{0, 2, 1, 2}, []byte{1, 2}) // offsets not monotone
	f.Add(2, []byte{0, 0x80, 2}, []byte{1, 0}) // a negative offset
	f.Add(2, []byte{1, 1, 2}, []byte{1, 0})    // offsets[0] != 0
	f.Add(1<<40, []byte{0}, []byte{})          // offsets len far from N+1
	f.Fuzz(func(t *testing.T, n int, offs, adj []byte) {
		base := fuzzBase(n, offs, adj)
		want := base.Validate()
		wantSorted := want == nil
		for v := 0; wantSorted && v < n; v++ {
			wantSorted = slices.IsSorted(base.Neighbors(v))
		}
		for workers := 1; workers <= 3; workers++ {
			if sorted, ok := sweepBase(base, workers); ok != (want == nil) || sorted != wantSorted {
				t.Fatalf("sweep on %d workers: sorted %t, ok %t; Validate: %v", workers, sorted, ok, want)
			}
		}
		g, err := New(base)
		if want != nil {
			if err == nil || err.Error() != "dyn: invalid base: "+want.Error() {
				t.Fatalf("New: %v; Validate: %v", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("New rejected a base Validate accepts: %v", err)
		}
		s := g.Snapshot()
		for v := 0; v < n; v++ {
			seg := slices.Clone(base.Neighbors(v))
			slices.Sort(seg)
			if got := s.AppendNeighbors(nil, v); !slices.Equal(got, seg) {
				t.Fatalf("neighbours of %d = %v, want %v", v, got, seg)
			}
		}
		// New takes the base for undirected — every arc stored both ways —
		// and the forest is built from the ascending arcs alone.
		for v := 0; v < n; v++ {
			for _, w := range base.Neighbors(v) {
				if !s.HasEdge(w, int32(v)) {
					return
				}
			}
		}
		if got, want := g.Components(), algo.SeqComponents(base); !slices.Equal(got, want) {
			t.Fatalf("components %v, recompute %v", got, want)
		}
	})
}
