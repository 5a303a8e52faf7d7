package shard

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"aamgo/internal/graph"
)

// SSSPResult carries the sharded single-source shortest-path distances:
// Dists[v] is the weighted distance from the source (MaxUint64 when
// unreachable).
type SSSPResult struct {
	Dists []uint64
	// Buckets counts the distinct delta-stepping buckets processed.
	Buckets int
	// Delta is the bucket width the run actually used (the auto-selected
	// value when the caller passed 0, floor-clamped so the flat bucket
	// window stays bounded — see ssspWindowCap).
	Delta uint64
	Result
}

// infDist is the unreachable marker in SSSPResult.Dists.
const infDist = ^uint64(0)

// ssspWindowCap bounds the flat bucket window maxW/delta+2: bucket widths
// below maxW/ssspWindowCap are raised to it. The clamp never changes the
// computed distances (delta is a performance knob only), it only keeps a
// pathological caller-provided delta from inflating the index-addressed
// bucket table.
const ssspWindowCap = 1 << 12

// maxWeight returns the largest edge weight.
func maxWeight(g *graph.Graph) uint64 {
	var maxW uint64
	for _, w := range g.Weights {
		if uint64(w) > maxW {
			maxW = uint64(w)
		}
	}
	return maxW
}

// bucketRing is one worker's flat, index-addressed delta-stepping bucket
// table. Delta-stepping only ever holds entries for buckets in
// [cur, cur+maxW/delta+1] — a relaxation spawned from bucket b carries a
// distance below (b+1)·delta+maxW, and settled buckets never reopen — so
// a ring of window = maxW/delta+2 slots addressed by bucket%window holds
// every live bucket collision-free. Slots are stamp-validated (stamps[s]
// = bucket+1, the coloring `used` trick applied to bucket reuse): a slot
// whose stamp disagrees is logically empty and its storage is reused in
// place, which — together with the spare-slice swap in take — makes the
// steady-state bucket path allocation-free. This replaces the PR 3
// map[uint64][]int32 structure, whose per-bucket map churn and in-loop
// sort.Slice dominated the relaxation path.
type bucketRing struct {
	window uint64
	lists  [][]int32
	stamps []uint64
	spare  []int32
}

func newBucketRing(window uint64) *bucketRing {
	return &bucketRing{
		window: window,
		lists:  make([][]int32, window),
		stamps: make([]uint64, window),
	}
}

// push appends owner-local vertex lv to bucket nb.
func (r *bucketRing) push(nb uint64, lv int32) {
	slot := nb % r.window
	if r.stamps[slot] != nb+1 {
		r.stamps[slot] = nb + 1
		r.lists[slot] = r.lists[slot][:0]
	}
	r.lists[slot] = append(r.lists[slot], lv)
}

// pending returns bucket nb's entry count.
func (r *bucketRing) pending(nb uint64) int {
	slot := nb % r.window
	if r.stamps[slot] != nb+1 {
		return 0
	}
	return len(r.lists[slot])
}

// take removes and returns bucket nb's list (nil when empty), swapping the
// ring's spare slice into the slot so refill pushes made while the caller
// iterates land in separate storage. Hand the list back through recycle.
func (r *bucketRing) take(nb uint64) []int32 {
	slot := nb % r.window
	if r.stamps[slot] != nb+1 || len(r.lists[slot]) == 0 {
		return nil
	}
	l := r.lists[slot]
	r.lists[slot] = r.spare[:0]
	r.spare = nil
	return l
}

// recycle returns a taken list's storage to the ring.
func (r *bucketRing) recycle(l []int32) { r.spare = l[:0] }

// autoDelta picks a bucket width for delta-stepping when the caller does
// not: maxWeight/avgDegree, the classic Θ(W/d̄) choice that keeps the
// expected relaxations per bucket near the frontier width.
func autoDelta(g *graph.Graph, maxW uint64) uint64 {
	d := uint64(g.AvgDegree())
	if d < 1 {
		d = 1
	}
	delta := maxW / d
	if delta < 1 {
		delta = 1
	}
	return delta
}

// SSSP runs delta-stepping single-source shortest paths from src across
// cfg.Shards shards. The relax operator is the same FF&MF min-combine as
// the single-runtime min-plus SSSP of internal/gblas (§5.4.1, §7): one
// activity improves a vertex's distance word, losers fail benignly, and
// cross-shard relaxations travel as coalesced May-Fail batches. Where the
// single-runtime version relaxes in Bellman-Ford frontier rounds, the
// sharded version layers a shared bucket-epoch barrier on Drain():
// vertices are bucketed by floor(dist/delta) in per-worker flat
// bucket rings, the coordinator advances a monotone cursor to the
// smallest non-empty bucket between barriers, and a bucket is
// re-processed until it stops refilling (its own relaxations may land
// back in it). Because every relaxation spawned from bucket b carries a
// distance >= b*delta, settled buckets are never reopened, and the fixed
// point — the true shortest distance, unique regardless of relaxation
// order — matches the sequential Dijkstra reference for every shard
// count, partition scheme, batch size, flush policy and mechanism.
// delta == 0 selects autoDelta.
func SSSP(g *graph.Graph, src int, delta uint64, cfg Config) (SSSPResult, error) {
	if g.Weights == nil {
		return SSSPResult{}, fmt.Errorf("shard: SSSP needs edge weights")
	}
	if src < 0 || src >= g.N {
		return SSSPResult{}, fmt.Errorf("shard: SSSP source %d out of range [0,%d)", src, g.N)
	}
	maxW := maxWeight(g)
	if delta == 0 {
		delta = autoDelta(g, maxW)
	}
	if min := maxW / ssspWindowCap; delta < min {
		delta = min
	}
	window := maxW/delta + 2
	ex, err := New(g, 1, cfg) // one word per vertex: dist+1, 0 = infinity
	if err != nil {
		return SSSPResult{}, err
	}
	L := ex.Part.MaxLocal()
	W := ex.Workers()

	// Per-worker bucket rings of owner-local vertex ids. OnCommit runs on
	// the applying worker, so each worker pushes only into its own ring.
	// queued[shard*L+lv] holds bucket+1 of the bucket the vertex currently
	// waits in (0 = none): a vertex improved twice within one epoch is
	// queued once, in the bucket of its best distance, which both prunes
	// redundant re-expansions and keeps the spawn traffic deterministic
	// for single-worker shards.
	rings := make([]*bucketRing, W)
	for i := range rings {
		rings[i] = newBucketRing(window)
	}
	queued := make([]uint64, ex.cfg.Shards*L)

	relax := ex.Register(&Op{
		Name: "sssp-relax",
		Addr: func(lv int, arg uint64) int { return lv },
		Mutate: func(c, arg uint64) (uint64, bool) {
			if c != 0 && c <= arg+1 {
				return 0, false // no improvement: May-Fail failure
			}
			return arg + 1, true
		},
		OnCommit: func(w *Worker, lv int, arg uint64) {
			nb := arg / delta
			q := &queued[w.S.ID*L+lv]
			for {
				cur := atomic.LoadUint64(q)
				// Improvements only lower the distance, so an already
				// queued vertex sits in bucket cur-1 >= nb; re-queue only
				// when the bucket actually moved down.
				if cur != 0 && cur-1 <= nb {
					return
				}
				if atomic.CompareAndSwapUint64(q, cur, nb+1) {
					break
				}
			}
			rings[w.Index()].push(nb, int32(lv))
		},
	})

	t0 := time.Now()
	owner := ex.Part.Owner(src)
	ls := ex.Part.Local(src)
	ex.shards[owner].Store(ls, 1) // dist 0 (every rank: replicas agree)
	if ex.Owns(owner) {
		queued[owner*L+ls] = 1 // bucket 0
		rings[owner*ex.cfg.Workers].push(0, int32(ls))
	}

	// nextBucket scans the ring window ahead of the monotone cursor; every
	// live bucket lies in [cur, cur+window) by the ring invariant.
	nextBucket := func(cur uint64) (uint64, bool) {
		for b := cur; b < cur+window; b++ {
			for _, r := range rings {
				if r.pending(b) > 0 {
					return b, true
				}
			}
		}
		return 0, false
	}

	processed := 0
	cursor := uint64(0)
	for {
		// Rings are rank-local; the cursor must advance to the smallest
		// non-empty bucket machine-wide (no-op in-process).
		cand := infDist
		if b, ok := nextBucket(cursor); ok {
			cand = b
		}
		agg := [1]uint64{cand}
		ex.AllMin(agg[:])
		if agg[0] == infDist {
			break
		}
		b := agg[0]
		processed++
		// Inner loop: re-process bucket b until its lists stop refilling
		// (zero-cost and small-weight relaxations land back in b).
		for {
			ex.Parallel(func(w *Worker) {
				r := rings[w.Index()]
				list := r.take(b)
				if list == nil {
					return
				}
				// Sort for a deterministic expansion order: entries arrive
				// in inbox-batch order, which goroutine scheduling perturbs.
				slices.Sort(list)
				s := w.S
				for _, lv := range list {
					q := &queued[s.ID*L+int(lv)]
					if atomic.LoadUint64(q) != b+1 {
						continue // moved to an earlier bucket: stale entry
					}
					atomic.StoreUint64(q, 0)
					d := s.Load(int(lv)) - 1
					if d/delta != b {
						continue
					}
					u := s.Lo + int(lv) // contiguous range: O(1) global id
					ws := g.EdgeWeights(u)
					for j, nv := range g.Neighbors(u) {
						w.Spawn(relax, int(nv), d+uint64(ws[j]))
					}
				}
				r.recycle(list)
			})
			ex.Drain()
			refilled := uint64(0)
			for _, r := range rings {
				if r.pending(b) > 0 {
					refilled = 1
					break
				}
			}
			// A bucket refilled anywhere keeps every rank in the inner loop.
			agg := [1]uint64{refilled}
			ex.AllSum(agg[:])
			if agg[0] == 0 {
				break
			}
		}
		cursor = b + 1
	}
	elapsed := time.Since(t0)

	dists := make([]uint64, g.N)
	for v := 0; v < g.N; v++ {
		raw := ex.shards[ex.Part.Owner(v)].Load(ex.Part.Local(v))
		if raw == 0 {
			dists[v] = infDist
		} else {
			dists[v] = raw - 1
		}
	}
	res := ex.Result()
	res.Elapsed = elapsed
	return SSSPResult{Dists: dists, Buckets: processed, Delta: delta, Result: res}, nil
}
