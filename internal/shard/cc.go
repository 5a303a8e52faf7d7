package shard

import (
	"time"

	"aamgo/internal/graph"
)

// CCResult carries the sharded connected-components labeling: Labels[v] is
// the smallest vertex id in v's component.
type CCResult struct {
	Labels []int32
	// Rounds counts label-propagation rounds until the global fixed point.
	Rounds int
	Result
}

// Components labels connected components by min-label propagation across
// cfg.Shards shards (the min-label fixed point the aam engine reaches in
// gblas.NewCC's min-plus frontier rounds): every round each shard pushes its
// vertices' labels to all neighbors, cross-shard pushes travel as
// coalesced batches, and the run ends when a round commits no update
// anywhere. The fixed point — the minimum vertex id flooding each
// component — is unique, so the labeling is identical to the sequential
// reference for every shard count, mechanism and flush policy.
func Components(g *graph.Graph, cfg Config) (CCResult, error) {
	if g.N == 0 {
		return CCResult{Labels: []int32{}}, nil
	}
	ex, err := New(g, 1, cfg) // one word per vertex: label+1, 0 = unset
	if err != nil {
		return CCResult{}, err
	}

	// changed is a per-worker commit counter (single-writer: OnCommit runs
	// on the applying worker); the coordinator sums it at the barrier.
	changed := make([]uint64, ex.Workers())

	min := ex.Register(&Op{
		Name: "cc-min",
		Addr: func(lv int, arg uint64) int { return lv },
		Mutate: func(c, arg uint64) (uint64, bool) {
			if c != 0 && c <= arg+1 {
				return 0, false
			}
			return arg + 1, true
		},
		OnCommit: func(w *Worker, lv int, arg uint64) {
			changed[w.Index()]++
		},
	})

	t0 := time.Now()
	ex.Parallel(func(w *Worker) {
		lo, hi := w.Range()
		for v := lo; v < hi; v++ {
			w.S.Store(v-w.S.Lo, uint64(v)+1) // contiguous range: O(1) local index
		}
	})

	rounds := 0
	for {
		for i := range changed {
			changed[i] = 0
		}
		ex.Parallel(func(w *Worker) {
			lo, hi := w.Range()
			for v := lo; v < hi; v++ {
				label := w.S.Load(v-w.S.Lo) - 1
				for _, nv := range g.Neighbors(v) {
					w.Spawn(min, int(nv), label)
				}
			}
		})
		ex.Drain()
		rounds++
		total := uint64(0)
		for _, c := range changed {
			total += c
		}
		// changed is rank-local (commit hooks run at the owner); the fixed
		// point must be global, so sum before deciding (no-op in-process).
		agg := [1]uint64{total}
		ex.AllSum(agg[:])
		if agg[0] == 0 {
			break
		}
	}
	elapsed := time.Since(t0)

	labels := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		raw := ex.shards[ex.Part.Owner(v)].Load(ex.Part.Local(v))
		labels[v] = int32(raw) - 1
	}
	res := ex.Result()
	res.Elapsed = elapsed
	return CCResult{Labels: labels, Rounds: rounds, Result: res}, nil
}
