package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/wal"
)

func init() {
	register(Experiment{
		ID:    "durability",
		Title: "Durable write path: crash recovery of a group-committed WAL",
		Paper: "Beyond the paper's in-memory batches: the durable write path. Recovery " +
			"must replay the exact acknowledged history of concurrent group-committed " +
			"writers — batch counts and the component structure gate exactly — a torn " +
			"tail must truncate cleanly (one injected partial record, zero lost " +
			"acknowledged batches), and a checkpoint must bound the replay.",
		Run: runDurability,
	})
}

// Deterministic adds-only write storm: the final graph is the base plus
// the union of the added edges, invariant under the concurrent apply
// interleaving — which makes the recovered component count an exact gate.
const (
	durBatchCount = 96
	durPerBatch   = 16
	durWriters    = 4
)

func durNewBase(o Options) func() (*dyn.Graph, error) {
	n := 1 << o.shift(9, 8)
	return func() (*dyn.Graph, error) {
		return dyn.New(graph.Community(n, 16, 4, 0.05, o.Seed))
	}
}

// durStream pre-generates the whole mutation stream so both logs see
// identical batches.
func durStream(o Options, n int) [][]dyn.Mutation {
	rng := rand.New(rand.NewSource(o.Seed * 7919))
	batches := make([][]dyn.Mutation, durBatchCount)
	for i := range batches {
		b := make([]dyn.Mutation, durPerBatch)
		for j := range b {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				v = (v + 1) % int32(n)
			}
			b[j] = dyn.AddEdge(u, v)
		}
		batches[i] = b
	}
	return batches
}

// durApply drives the stream through g with durWriters concurrent
// appliers, so the log's commit path groups and recovery replays an
// interleaved history.
func durApply(g *dyn.Graph, batches [][]dyn.Mutation) error {
	var wg sync.WaitGroup
	errs := make(chan error, durWriters)
	for w := 0; w < durWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(batches); i += durWriters {
				if _, err := g.Apply(batches[i], dyn.TxConfig{Threads: 2}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func runDurability(o Options) *Report {
	rep := &Report{}
	t := rep.NewTable(fmt.Sprintf("recovery counts (%d batches × %d adds, %d writers, group commit)",
		durBatchCount, durPerBatch, durWriters),
		"reopen", "snapshot-epoch", "replayed", "truncated", "recovered-epoch", "components")
	durRecoveryPart(rep, t, o)
	durCheckpointPart(rep, t, o)
	return rep
}

// durOpen opens (or recovers) the log in dir in the default batch mode.
func durOpen(o Options, dir string) (*dyn.Graph, *wal.Log) {
	g, l, err := wal.Open(wal.Options{Dir: dir}, durNewBase(o))
	if err != nil {
		panic(err)
	}
	return g, l
}

// durReopen recovers dir, adds the recovery counts as a table row and
// returns them with the recovered component count.
func durReopen(t *Table, label string, o Options, dir string) (wal.RecoveryStats, int) {
	g, l := durOpen(o, dir)
	rs, cc := l.Recovery(), g.ComponentCount()
	if err := l.Close(); err != nil {
		panic(err)
	}
	t.AddRow(label, utoa(rs.SnapshotEpoch), utoa(rs.ReplayedBatches), utoa(rs.TruncatedRecords),
		utoa(rs.RecoveredEpoch), itoa(cc))
	return rs, cc
}

// durRecoveryPart writes the stream with concurrent writers, then reopens
// the directory twice: intact, then with a torn record injected at the
// tail. Replay counts, the truncation count and the recovered component
// structure gate exactly.
func durRecoveryPart(rep *Report, t *Table, o Options) {
	dir, err := os.MkdirTemp("", "aam-bench-durability-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	g, l := durOpen(o, dir)
	n := g.N()
	if err := durApply(g, durStream(o, n)); err != nil {
		panic(err)
	}
	if err := l.Close(); err != nil {
		panic(err)
	}

	rs, cc := durReopen(t, "intact", o, dir)
	rep.Metricf("durability.recovered.batches", float64(rs.ReplayedBatches))
	rep.Metricf("durability.recovered.cc", float64(cc))
	rep.Checkf(rs.RecoveredEpoch == durBatchCount,
		"recovery replays every acknowledged batch",
		"recovered epoch %d, acknowledged %d", rs.RecoveredEpoch, durBatchCount)

	// Torn tail: a partial record appended to the newest segment models
	// the prefix a power cut leaves behind. Recovery must truncate exactly
	// it and land on the same state.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		panic(fmt.Sprintf("no WAL segments in %s: %v", dir, err))
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		panic(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00}); err != nil {
		panic(err)
	}
	f.Close()

	rs2, cc2 := durReopen(t, "torn tail", o, dir)
	rep.Metricf("durability.truncated.records", float64(rs2.TruncatedRecords))
	rep.Checkf(rs2.TruncatedRecords == 1 && rs2.RecoveredEpoch == durBatchCount && cc2 == cc,
		"torn tail truncates cleanly",
		"truncated %d record(s), recovered epoch %d (want %d), cc %d (want %d)",
		rs2.TruncatedRecords, rs2.RecoveredEpoch, durBatchCount, cc2, cc)

	rep.Notef("recovery workload: community graph of %d vertices, %d batches × %d adds, seed %d",
		n, durBatchCount, durPerBatch, o.Seed)
}

// durCheckpointPart takes an explicit mid-stream checkpoint and verifies
// recovery resumes from the snapshot, replaying only the tail.
func durCheckpointPart(rep *Report, t *Table, o Options) {
	const head = 64 // batches before the checkpoint; the rest replay from the log
	dir, err := os.MkdirTemp("", "aam-bench-durability-ckpt-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	g, l := durOpen(o, dir)
	for i, batch := range durStream(o, g.N()) {
		if i == head {
			if err := l.Checkpoint(); err != nil {
				panic(err)
			}
		}
		if _, err := g.Apply(batch, dyn.TxConfig{Threads: 2}); err != nil {
			panic(err)
		}
	}
	if err := l.Close(); err != nil {
		panic(err)
	}

	rs, _ := durReopen(t, "after checkpoint", o, dir)
	rep.Metricf("durability.snapshot.epoch", float64(rs.SnapshotEpoch))
	rep.Metricf("durability.replayed.after.ckpt", float64(rs.ReplayedBatches))
	rep.Checkf(rs.SnapshotEpoch == head && rs.ReplayedBatches == durBatchCount-head,
		"checkpoint bounds replay",
		"snapshot epoch %d (want %d), replayed %d (want %d)",
		rs.SnapshotEpoch, head, rs.ReplayedBatches, durBatchCount-head)
}
