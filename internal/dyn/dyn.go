// Package dyn is the dynamic-graph subsystem: a mutable, concurrently
// updatable graph layered on the static CSR representation of
// internal/graph and the AAM runtime of internal/aam.
//
// The design follows the paper's pitch — fine-grained concurrent updates to
// an irregular structure, isolated by (emulated) hardware transactions or
// one of the alternative mechanisms — and extends it with the machinery a
// long-lived service needs:
//
//   - Graph wraps a frozen CSR "base" with per-vertex adjacency deltas
//     (added and deleted arcs). Mutations are applied in transactional
//     batches; when the deltas grow past a configurable fraction of the
//     base, the graph is compacted back into a fresh CSR.
//   - Batches of AddEdge/RemoveEdge mutations execute as AAM operators on
//     an abstract machine, so they run under all five isolation mechanisms
//     (HTM, atomics, locks, optimistic locking, flat combining) with
//     abort/retry statistics flowing into internal/stats. Every edge
//     operator reads and writes the version words of both endpoints,
//     reproducing the conflict structure of concurrent adjacency updates.
//   - Readers never block writers: Snapshot returns an immutable
//     epoch-stamped view built with copy-on-write (of delta pages and of
//     the per-vertex lists in them), and Freeze materializes it into a
//     plain *graph.Graph so the static analytics in internal/algo run
//     unchanged against a consistent cut of the graph.
//   - Connected components are maintained incrementally: the first query
//     builds a disjoint-set forest from the current snapshot, edge inserts
//     union it in O(α), and a deletion drops it for the next query to build
//     again.
//
// Graphs are undirected and unweighted (each logical edge is stored as two
// arcs), matching the Graph500-style workloads of the paper's evaluation.
package dyn

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/graph"
	"aamgo/internal/obs"
	"aamgo/internal/stats"
)

// Kind discriminates mutations.
type Kind uint8

const (
	// KindAddEdge inserts an undirected edge {U, V}. It fails (is
	// rejected) when the edge already exists in the pre-batch snapshot.
	KindAddEdge Kind = iota
	// KindRemoveEdge deletes an undirected edge {U, V} including every
	// parallel copy. It fails when the edge does not exist in the
	// pre-batch snapshot.
	KindRemoveEdge
	// KindAddVertex appends one isolated vertex; U and V are ignored.
	// Vertex additions always succeed and are sequenced before the edge
	// mutations of the same batch, so a batch may wire up the vertices it
	// creates.
	KindAddVertex
)

// String names the mutation kind.
func (k Kind) String() string {
	switch k {
	case KindAddEdge:
		return "add-edge"
	case KindRemoveEdge:
		return "remove-edge"
	case KindAddVertex:
		return "add-vertex"
	default:
		return "kind(?)"
	}
}

// Mutation is one element of a transactional batch.
type Mutation struct {
	Kind Kind
	U, V int32
}

// AddEdge returns an edge-insert mutation.
func AddEdge(u, v int32) Mutation { return Mutation{Kind: KindAddEdge, U: u, V: v} }

// RemoveEdge returns an edge-delete mutation.
func RemoveEdge(u, v int32) Mutation { return Mutation{Kind: KindRemoveEdge, U: u, V: v} }

// AddVertex returns a vertex-append mutation.
func AddVertex() Mutation { return Mutation{Kind: KindAddVertex} }

// Snapshot is an immutable epoch-stamped view of the graph: the base CSR
// plus per-vertex add/delete deltas. Snapshots are safe for concurrent use
// and stay valid (and unchanged) forever; they pin their backing memory.
type Snapshot struct {
	epoch uint64
	n     int
	base  *graph.Graph
	// pages[v>>pageBits] holds the delta cell of v; a nil page means none
	// of its vertices carries a delta. Always ⌈n/pageSize⌉ entries. Pages
	// are shared between epochs and never written once published.
	pages []*page

	arcs    int64 // exact arc count of the merged view
	addArcs int64 // arcs carried by adds
	delArcs int64 // base arcs suppressed by dels

	// mat is the owning graph's shared materialization state (incremental
	// freeze arena + epoch journal); nil only for zero-value snapshots.
	mat *matState

	frozen atomic.Pointer[graph.Graph]
}

// The delta table is paged so that an epoch pays for what it changes, not
// for n: clone copies one pointer per page and a batch copies a page the
// first time it writes into it. With pages of S cells an epoch that touches
// t pages copies 8n/S + 48St bytes, least at S = √(n/6t): 74 for a 16-edge
// batch (t ≤ 32) on a million vertices, where 64 makes it 128 KB of
// pointers and at most 96 KB of pages.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// cell is the delta of one vertex v: adds lists arcs v→w inserted since the
// base was built; dels lists base neighbors deleted since (each entry
// removes every parallel copy). Both are nil for an untouched vertex.
// Vertices v >= base.N have only adds.
type cell struct{ adds, dels []int32 }

type page [pageSize]cell

func newPages(n int) []*page { return make([]*page, (n+pageSize-1)>>pageBits) }

// delta returns the delta cell of v (the read accessor; own is the write
// accessor).
func (s *Snapshot) delta(v int) cell {
	if p := s.pages[v>>pageBits]; p != nil {
		return p[v&(pageSize-1)]
	}
	return cell{}
}

// Epoch returns the snapshot's epoch (one per applied batch).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// N returns the number of vertices.
func (s *Snapshot) N() int { return s.n }

// NumArcs returns the number of stored arcs (2× logical edges).
func (s *Snapshot) NumArcs() int64 { return s.arcs }

// DeltaArcs returns how many arcs live outside the base CSR (inserted plus
// deleted); compaction triggers on this.
func (s *Snapshot) DeltaArcs() int64 { return s.addArcs + s.delArcs }

// containsArc / countArc do linear scans; they serve the short per-vertex
// delta lists (adds/dels), which are unsorted and usually tiny.
func containsArc(list []int32, w int32) bool {
	for _, x := range list {
		if x == w {
			return true
		}
	}
	return false
}

func countArc(list []int32, w int32) int64 {
	var c int64
	for _, x := range list {
		if x == w {
			c++
		}
	}
	return c
}

// sortedContainsArc / sortedCountArc answer membership against the sorted
// base CSR adjacency by binary search — O(log d) instead of O(d), the
// difference that matters on high-degree (power-law hub) vertices. New and
// compact enforce the per-vertex sort invariant on every base.
func sortedContainsArc(list []int32, w int32) bool {
	_, ok := slices.BinarySearch(list, w)
	return ok
}

func sortedCountArc(list []int32, w int32) int64 {
	lo, ok := slices.BinarySearch(list, w)
	if !ok {
		return 0
	}
	hi := lo + 1
	for hi < len(list) && list[hi] == w { // parallel copies sit adjacent
		hi++
	}
	return int64(hi - lo)
}

// HasEdge reports whether the arc u→v exists in this view.
func (s *Snapshot) HasEdge(u, v int32) bool {
	if int(u) < 0 || int(u) >= s.n || int(v) < 0 || int(v) >= s.n {
		return false
	}
	d := s.delta(int(u))
	if containsArc(d.adds, v) {
		return true
	}
	if int(u) < s.base.N && !containsArc(d.dels, v) {
		return sortedContainsArc(s.base.Neighbors(int(u)), v)
	}
	return false
}

// Degree returns the merged out-degree of v.
func (s *Snapshot) Degree(v int) int {
	c := s.delta(v)
	d := int64(len(c.adds))
	if v < s.base.N {
		d += int64(s.base.Degree(v))
		for _, w := range c.dels {
			d -= sortedCountArc(s.base.Neighbors(v), w)
		}
	}
	return int(d)
}

// AppendNeighbors appends the merged adjacency of v to dst and returns the
// extended slice (allocation-free when dst has capacity).
func (s *Snapshot) AppendNeighbors(dst []int32, v int) []int32 {
	d := s.delta(v)
	if v < s.base.N {
		for _, w := range s.base.Neighbors(v) {
			if !containsArc(d.dels, w) {
				dst = append(dst, w)
			}
		}
	}
	return append(dst, d.adds...)
}

// Freeze materializes the snapshot as a static CSR graph usable with every
// algorithm in internal/algo. The result is cached on the snapshot, so
// repeated freezes of one epoch are free; when the snapshot carries no
// deltas the base is returned directly.
//
// Materialization is incremental: the owning graph keeps the last frozen
// view plus a per-epoch journal of touched vertices, and freezing a later
// epoch splices only the delta-carrying vertices into a shared append-only
// adjacency arena (copy-on-write segments — published views are never
// mutated). Freeze cost after k mutations is therefore proportional to the
// touched adjacency, not to the whole graph; periodic compaction rebuilds
// a clean flat base and resets the arena. The frozen graph may use the
// patched layout (graph.Graph with Ends); all iteration-based consumers
// handle it transparently.
func (s *Snapshot) Freeze() *graph.Graph {
	if g := s.frozen.Load(); g != nil {
		return g
	}
	var g *graph.Graph
	if s.mat != nil {
		g = s.mat.freeze(s)
	} else {
		g = s.materialize()
	}
	s.frozen.CompareAndSwap(nil, g)
	return s.frozen.Load()
}

// FullMaterialize rebuilds the snapshot as a flat CSR from scratch — the
// pre-incremental freeze path, kept as the equivalence oracle and the
// compaction builder. It bypasses the snapshot's frozen cache and the
// incremental arena.
func (s *Snapshot) FullMaterialize() *graph.Graph { return s.materialize() }

func (s *Snapshot) materialize() *graph.Graph {
	if s.DeltaArcs() == 0 && s.n == s.base.N {
		return s.base
	}
	adj := make([]int32, 0, s.arcs)
	offsets := make([]int64, s.n+1)
	for v := 0; v < s.n; v++ {
		adj = s.AppendNeighbors(adj, v)
		offsets[v+1] = int64(len(adj))
	}
	return &graph.Graph{N: s.n, Offsets: offsets, Adj: adj}
}

// Graph is the mutable dynamic graph. All mutation goes through Apply;
// readers obtain immutable Snapshots and never block writers. A Graph is
// safe for concurrent use by any number of readers and writers (writers
// serialize on an internal lock; the transactional machine inside one
// batch provides the fine-grained concurrency).
type Graph struct {
	mu  sync.Mutex // serializes writers and guards uf/cum
	cur atomic.Pointer[Snapshot]

	mat *matState // shared with every snapshot; has its own lock

	// uf is the component forest of the current snapshot, or nil when no
	// query has asked for it since the graph was made or an edge deleted.
	uf *unionFind

	// walHook, when set, is invoked under mu immediately after each batch
	// publishes — appends therefore arrive in strict epoch order. The wait
	// closure it returns runs after mu is released, so concurrent Apply
	// callers block on durability together (group commit) without
	// serializing the fsync behind the writer lock.
	walHook WALHook

	cum CumStats

	// histApply records Apply wall time (validation + transactional phase
	// + fold + publish). The freeze-latency histograms live on mat. All
	// three record from the graph's birth and surface through
	// RegisterMetrics when a server mounts the graph.
	histApply *obs.Histogram
}

// numMechs is the isolation-mechanism count (MechHTM..MechFlatCombining).
const numMechs = int(aam.MechFlatCombining) + 1

// MechStats attributes transactional outcomes to the isolation mechanism
// the batch ran under — the per-mechanism abort/retry rates of the
// paper's evaluation, as live series instead of a bench artifact.
type MechStats struct {
	Batches    uint64
	Aborts     uint64 // hardware aborts (all reasons but explicit)
	Retries    uint64
	Serialized uint64
}

// CumStats aggregates the lifetime counters of one Graph.
type CumStats struct {
	Batches     uint64
	Applied     uint64 // net mutations applied (incl. vertex adds)
	Rejected    uint64 // failed May-Fail operators (duplicate add / missing remove)
	Redundant   uint64 // committed operators that lost an intra-batch duplicate race
	Compactions uint64
	Epoch       uint64
	// Tx aggregates the machine counters of every batch: transactions,
	// aborts by reason, retries, serializations, atomics, lock
	// acquisitions, flat-combined operators.
	Tx stats.Total
	// PerMech splits abort/retry/serialization outcomes by the isolation
	// mechanism each batch ran under.
	PerMech [numMechs]MechStats
}

// CommitInfo describes one published batch to the durability hook: the
// epoch the batch produced, the post-batch vertex and arc counts (recorded
// alongside the mutations so recovery can verify each replayed step), and
// the original batch. Batch aliases the caller's slice and is only valid
// for the duration of the hook call — hooks must encode or copy it before
// returning.
type CommitInfo struct {
	Epoch uint64
	N     int
	Arcs  int64
	Batch []Mutation
}

// WALHook is the durability hook a write-ahead log installs via SetWALHook.
// It is called under the writer lock after every successful Apply (epochs
// arrive strictly ordered, one per batch, including batches that applied
// nothing — epoch continuity is what recovery verifies). The returned wait
// closure, if non-nil, is invoked by Apply after the lock is released and
// blocks until the batch is durable; its error surfaces from Apply wrapped
// in ErrDurability.
type WALHook func(ci CommitInfo) (wait func() error)

// ErrDurability marks Apply errors raised after the batch was published
// in memory but the durability hook failed to make it stable. The
// in-memory state includes the batch; a crash-recovered state will not.
var ErrDurability = errors.New("dyn: durability wait failed")

// SetWALHook installs (or, with nil, removes) the durability hook.
func (g *Graph) SetWALHook(h WALHook) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.walHook = h
}

// New wraps a static base graph. The base must be undirected and is frozen
// into the dynamic graph (callers must not mutate it afterwards); weights
// are not carried over.
func New(base *graph.Graph) (*Graph, error) { return NewWithEpoch(base, 0) }

// NewWithEpoch wraps a static base graph like New but starts the epoch
// counter at epoch instead of zero. Recovery uses it to resume from a
// checkpoint snapshot: the loaded CSR becomes the base and subsequent WAL
// records continue the epoch sequence where the snapshot left off.
func NewWithEpoch(base *graph.Graph, epoch uint64) (*Graph, error) {
	if base == nil {
		return nil, fmt.Errorf("dyn: nil base graph")
	}
	if base.Directed {
		return nil, fmt.Errorf("dyn: base graph must be undirected")
	}
	// A patched-layout base (e.g. an incrementally frozen snapshot fed
	// back in) is checked and packed flat first: the snapshot base must be
	// a plain CSR whose Offsets are the vertex bounds.
	if base.Ends != nil {
		if err := base.Validate(); err != nil {
			return nil, fmt.Errorf("dyn: invalid base: %w", err)
		}
		base = base.Flat()
	}
	sorted, ok := sweepBase(base, 0)
	if !ok {
		return nil, fmt.Errorf("dyn: invalid base: %w", base.Validate())
	}
	// Every snapshot base carries per-vertex sorted adjacency (HasEdge and
	// Degree binary-search it). RoadGrid, the generators that build with
	// Dedup (Community) and compaction emit it and are adopted as they
	// are; any other base — every Kronecker graph, a checkpoint taken with
	// deltas outstanding — is copied and the copy sorted, run by run.
	flat := &graph.Graph{N: base.N, Offsets: base.Offsets, Adj: base.Adj}
	if !sorted {
		flat.Adj = make([]int32, len(base.Adj))
		sortSegments(flat, base.Adj)
	}
	g := &Graph{histApply: obs.NewHistogram()}
	snap := &Snapshot{epoch: epoch, n: base.N, base: flat, pages: newPages(base.N), arcs: int64(len(base.Adj))}
	g.mat = newMatState(snap)
	snap.mat = g.mat
	g.cur.Store(snap)
	g.cum.Epoch = epoch
	return g, nil
}

// sweepBase walks a flat base once, on workers goroutines (0: one per 64k
// arcs and vertices, at most GOMAXPROCS): ok is false where graph.Validate
// returns an error (the caller has Validate word it), sorted says whether
// every segment is. Neither needs the vertex of an arc, so the arcs are read
// as one array, with no loop per segment to mispredict the end of: the ids
// are in range when the largest is, and the segments are sorted when every
// descent adj[i-1] > adj[i] falls where one segment ends and the next begins.
// The workers claim 8 runs each, a run an equal share of the arcs and of the
// offsets. A run bounds every index it takes from an offset itself: only the
// first run has a non-decreasing prefix of offsets behind it.
func sweepBase(base *graph.Graph, workers int) (sorted, ok bool) {
	n, off, adj := base.N, base.Offsets, base.Adj
	if n < 0 || len(off) != n+1 || off[0] != 0 || off[n] != int64(len(adj)) ||
		base.Weights != nil && len(base.Weights) != len(adj) {
		return false, false
	}
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), 1+(n+len(adj))>>16)
	}
	type tally struct {
		hi        uint32 // as unsigned: a negative id is above every n
		descents  int
		decreases bool // an offset below the one before it
	}
	runs := make([]tally, 8*workers)
	claimRuns(workers, len(runs), func(_, r int) {
		var t tally
		lo, end, prev := r*len(adj)/len(runs), (r+1)*len(adj)/len(runs), int32(0)
		if lo > 0 {
			prev = adj[lo-1]
		}
		for _, w := range adj[lo:end] {
			t.hi = max(t.hi, uint32(w))
			t.descents += int(uint32(w-prev) >> 31) // w < prev, for ids in range (any count will do otherwise)
			prev = w
		}
		for v, end := r*n/len(runs), (r+1)*n/len(runs); v < end; v++ {
			i := off[v+1]
			if off[v] > i {
				t.decreases = true
				break
			}
			if off[v] < i && 0 < i && i < int64(len(adj)) && adj[i-1] > adj[i] { // off[v] < i: a boundary not seen before
				t.descents--
			}
		}
		runs[r] = t
	})
	hi, descents := uint32(0), 0
	for _, t := range runs {
		if t.decreases {
			return false, false
		}
		hi, descents = max(hi, t.hi), descents+t.descents
	}
	if len(adj) > 0 && hi >= uint32(n) {
		return false, false
	}
	return descents == 0, true
}

// NewEmpty returns a dynamic graph of n isolated vertices.
func NewEmpty(n int) *Graph {
	n = max(n, 0)
	g, _ := New(&graph.Graph{N: n, Offsets: make([]int64, n+1)}) // an edgeless base is valid
	return g
}

// sortSegments sorts every adjacency segment of the flat graph g in place
// on GOMAXPROCS workers (one, the caller, per 64k arcs of a small graph);
// given src, a run first copies its arcs from there, and sorts them while
// they are still in cache. The workers claim runs of vertices that each hold
// about the same number of arcs, several per worker, so neither a hub's
// segment nor a worker that loses its processor for a while holds up the
// rest. The arcs must have been range-checked (sweepBase, or a base that
// passed it plus checked deltas): sortIDs indexes its buckets by the bits an
// id below g.N can have.
func sortSegments(g *graph.Graph, src []int32) {
	workers := min(runtime.GOMAXPROCS(0), 1+len(g.Adj)>>16)
	runs := 8 * workers
	bound := func(r int) int { // the first vertex at or past r/runs of the arcs
		v, _ := slices.BinarySearch(g.Offsets, int64(r)*int64(len(g.Adj))/int64(runs))
		return v
	}
	tmp := make([][]int32, workers) // each worker's scratch
	claimRuns(workers, runs, func(w, r int) {
		lo, hi := bound(r), bound(r+1)
		if src != nil {
			copy(g.Adj[g.Offsets[lo]:g.Offsets[hi]], src[g.Offsets[lo]:g.Offsets[hi]])
		}
		t := tmp[w]
		for v := lo; v < hi; v++ {
			t = sortIDs(g.Neighbors(v), g.N, t)
		}
		tmp[w] = t
	})
}

// claimRuns calls f(w, r) for every run r in [0, runs) on workers goroutines,
// the caller's among them, w being the index of the worker that claimed r
// from a shared counter: a worker that loses its processor for a while holds
// up the run it is in, not a share of the work fixed in advance.
func claimRuns(workers, runs int, f func(w, r int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(w int) {
		defer wg.Done()
		for r := int(next.Add(1)) - 1; r < runs; r = int(next.Add(1)) - 1 {
			f(w, r)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	wg.Wait()
}

// bucketCap is the most ids a bucket of sortIDs is left to the insertion pass
// with; a fuller one, of duplicates or of ids in a narrow range, is sorted by
// comparisons first, so no segment costs more than O(L log L).
const bucketCap = 32

// sortIDs sorts seg, ids in [0, n), and returns the scratch tmp, grown when
// seg needed more. A sorted segment — every one a compaction did not touch —
// costs one scan. Any other is sorted most digit first: one counting pass on
// the top bits(len(seg)) bits of an id (all of them when n is smaller) deals
// seg into more buckets than it has ids, in tmp, and an insertion pass over
// the result finishes each bucket. Ids without a pattern — a Kronecker
// graph's permuted labels — leave a bucket one id or none on average, and
// the insertion pass little to move; with half as many buckets, set-up
// measured slower.
func sortIDs(seg []int32, n int, tmp []int32) []int32 {
	if slices.IsSorted(seg) {
		return tmp
	}
	width := bits.Len(uint(n - 1))
	digit := min(width, bits.Len(uint(len(seg))))
	shift := width - digit
	if size := len(seg) + 1<<digit; len(tmp) < size {
		tmp = make([]int32, size)
	}
	out, count := tmp[:len(seg)], tmp[len(seg):len(seg)+1<<digit]
	clear(count)
	for _, w := range seg {
		count[w>>shift]++
	}
	full, sum := false, int32(0)
	for d, k := range count {
		count[d], sum, full = sum, sum+k, full || k > bucketCap
	}
	for _, w := range seg {
		d := w >> shift
		out[count[d]] = w
		count[d]++
	}
	if full {
		lo := int32(0)
		for _, hi := range count { // where the bucket ends, now
			if hi-lo > bucketCap {
				slices.Sort(out[lo:hi])
			}
			lo = hi
		}
	}
	for i := 1; i < len(out); i++ {
		w, j := out[i], i
		for ; j > 0 && out[j-1] > w; j-- {
			out[j] = out[j-1]
		}
		out[j] = w
	}
	copy(seg, out)
	return tmp
}

// Snapshot returns the current immutable view.
func (g *Graph) Snapshot() *Snapshot { return g.cur.Load() }

// Freeze materializes the current snapshot as a static CSR graph.
func (g *Graph) Freeze() *graph.Graph { return g.Snapshot().Freeze() }

// N returns the current vertex count.
func (g *Graph) N() int { return g.Snapshot().n }

// NumArcs returns the current arc count.
func (g *Graph) NumArcs() int64 { return g.Snapshot().arcs }

// Epoch returns the current epoch.
func (g *Graph) Epoch() uint64 { return g.Snapshot().epoch }

// Stats returns a copy of the lifetime counters.
func (g *Graph) Stats() CumStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cum
}

// BatchResult reports one Apply call.
type BatchResult struct {
	// Applied counts net state changes: inserted edges, deleted edges and
	// added vertices.
	Applied int
	// Rejected counts mutations that failed their May-Fail check: adding
	// an edge that already existed, or removing one that did not (as
	// observed in the pre-batch snapshot).
	Rejected int
	// Redundant counts mutations that committed but duplicated another
	// committed mutation of the same batch (e.g. the same edge added
	// twice); exactly one of the duplicates is applied.
	Redundant int
	// VerticesAdded counts KindAddVertex mutations (always applied).
	VerticesAdded int
	// Epoch is the epoch the batch produced.
	Epoch uint64
	// N is the vertex count at Epoch. A later batch may have grown the
	// graph by the time Apply returns, so read N here, not Graph.N.
	N int
	// Compacted reports whether this batch triggered a delta compaction
	// back into a fresh base CSR.
	Compacted bool
	// Elapsed is the machine time of the transactional phase: virtual
	// time on the sim runtime, wall time on native.
	Elapsed time.Duration
	// Stats carries the machine counters of the transactional phase.
	Stats stats.Total
}

// clone produces a mutable copy of s for the next epoch with room for newN
// vertices. Pages stay shared until own copies them.
func (s *Snapshot) clone(newN int) *Snapshot {
	ns := &Snapshot{
		epoch:   s.epoch + 1,
		n:       newN,
		base:    s.base,
		pages:   newPages(newN),
		arcs:    s.arcs,
		addArcs: s.addArcs,
		delArcs: s.delArcs,
		mat:     s.mat,
	}
	copy(ns.pages, s.pages)
	return ns
}

// cow records what one batch has made private to the snapshot it builds: a
// page has an entry once the batch has copied it, and the entry holds, per
// cell, which of the two lists no longer share a backing array with a
// published snapshot — so repeated mutations of one vertex append in place
// instead of re-copying. The cells with a bit set are the batch's touched
// vertices.
type cow map[int32]*[pageSize]uint8

const ownAdds, ownDels = 1, 2

// own returns v's cell in ns for writing, with the batch's ownership bits
// for it; the first write into a page copies the page.
func (ns *Snapshot) own(v int32, c cow) (*cell, *uint8) {
	p, i := v>>pageBits, v&(pageSize-1)
	bits := c[p]
	if bits == nil {
		bits = new([pageSize]uint8)
		c[p] = bits
		private := new(page)
		if shared := ns.pages[p]; shared != nil {
			*private = *shared
		}
		ns.pages[p] = private
	}
	return &ns.pages[p][i], &bits[i]
}

// insertArc adds the arc u→v to the delta of u in ns.
func (ns *Snapshot) insertArc(u, v int32, c cow) {
	d, owned := ns.own(u, c)
	if *owned&ownAdds == 0 {
		d.adds = detach(d.adds)
		*owned |= ownAdds
	}
	d.adds = append(d.adds, v)
	ns.arcs++
	ns.addArcs++
}

// deleteArc removes every copy of the arc u→v from ns and returns how many
// arcs disappeared.
func (ns *Snapshot) deleteArc(u, v int32, c cow) int64 {
	var removed int64
	cur := ns.delta(int(u))
	if n := countArc(cur.adds, v); n > 0 {
		kept := make([]int32, 0, len(cur.adds)-int(n))
		for _, w := range cur.adds {
			if w != v {
				kept = append(kept, w)
			}
		}
		d, owned := ns.own(u, c)
		d.adds = kept // fresh backing array, now private to the batch
		*owned |= ownAdds
		ns.addArcs -= n
		removed += n
	}
	if int(u) < ns.base.N && !containsArc(cur.dels, v) {
		if n := sortedCountArc(ns.base.Neighbors(int(u)), v); n > 0 {
			d, owned := ns.own(u, c)
			if *owned&ownDels == 0 {
				d.dels = detach(d.dels)
				*owned |= ownDels
			}
			d.dels = append(d.dels, v)
			ns.delArcs += n
			removed += n
		}
	}
	ns.arcs -= removed
	return removed
}

// detach returns a copy of list so appends never touch backing arrays
// shared with published snapshots.
func detach(list []int32) []int32 {
	out := make([]int32, len(list), len(list)+1)
	copy(out, list)
	return out
}
