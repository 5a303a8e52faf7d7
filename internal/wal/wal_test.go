package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
)

// testBase builds the deterministic base graph every recovery test (and
// its oracle) starts from.
func testBase() (*dyn.Graph, error) {
	return dyn.New(graph.Community(256, 16, 4, 0.05, 7))
}

// testBatch derives batch i of the deterministic mutation stream: a mix of
// inserts and deletes over the base's vertex range.
func testBatch(i, n, perBatch int) []dyn.Mutation {
	rng := rand.New(rand.NewSource(int64(i)*1000003 + 17))
	muts := make([]dyn.Mutation, 0, perBatch)
	for j := 0; j < perBatch; j++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			v = (v + 1) % int32(n)
		}
		if rng.Intn(4) == 0 {
			muts = append(muts, dyn.RemoveEdge(u, v))
		} else {
			muts = append(muts, dyn.AddEdge(u, v))
		}
	}
	return muts
}

var testTx = dyn.TxConfig{Threads: 2}

// canonical materializes g as a flat CSR with per-vertex sorted adjacency,
// the representation-independent form: the arc order inside a batch's
// delta lists depends on machine thread order, so equality is only
// meaningful after sorting.
func canonical(g *dyn.Graph) *graph.Graph {
	m := g.Snapshot().FullMaterialize()
	out := &graph.Graph{N: m.N, Offsets: m.Offsets, Adj: slices.Clone(m.Adj)}
	for v := 0; v < out.N; v++ {
		slices.Sort(out.Neighbors(v))
	}
	return out
}

func requireEqualGraphs(t *testing.T, want, got *dyn.Graph) {
	t.Helper()
	cw, cg := canonical(want), canonical(got)
	if cw.N != cg.N {
		t.Fatalf("vertex count: want %d, got %d", cw.N, cg.N)
	}
	if !slices.Equal(cw.Offsets, cg.Offsets) {
		t.Fatalf("offsets differ")
	}
	if !slices.Equal(cw.Adj, cg.Adj) {
		t.Fatalf("adjacency differs")
	}
	if w, g2 := want.ComponentCount(), got.ComponentCount(); w != g2 {
		t.Fatalf("component count: want %d, got %d", w, g2)
	}
}

// oracle replays the deterministic stream through batches applications on
// a fresh base — the mutation-journal oracle recovery is checked against.
func oracle(t *testing.T, batches, perBatch int) *dyn.Graph {
	t.Helper()
	g, err := testBase()
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 1; i <= batches; i++ {
		if _, err := g.Replay(testBatch(i, n, perBatch)); err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	return g
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []dyn.CommitInfo{
		{Epoch: 1, N: 10, Arcs: 4, Batch: []dyn.Mutation{dyn.AddEdge(1, 2), dyn.RemoveEdge(3, 4), dyn.AddVertex()}},
		{Epoch: 1<<63 + 5, N: 1 << 30, Arcs: 1 << 40, Batch: nil},
		{Epoch: 7, N: 3, Arcs: 0, Batch: testBatch(1, 64, 100)},
	}
	var buf []byte
	for _, ci := range cases {
		buf = appendRecord(buf, ci)
	}
	off := 0
	for i, ci := range cases {
		rec, size, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if size != recordSize(len(ci.Batch)) {
			t.Fatalf("case %d: size %d, want %d", i, size, recordSize(len(ci.Batch)))
		}
		if rec.epoch != ci.Epoch || rec.n != ci.N || rec.arcs != ci.Arcs || !slices.Equal(rec.batch, ci.Batch) {
			t.Fatalf("case %d: decoded %+v != %+v", i, rec, ci)
		}
		off += size
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestRecoverNoCheckpoint(t *testing.T) {
	const batches, perBatch = 12, 24
	dir := t.TempDir()
	opts := Options{Dir: dir, Mode: ModeBatch, GroupWindow: time.Millisecond}

	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 1; i <= batches; i++ {
		if _, err := g.Apply(testBatch(i, n, perBatch), testTx); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	g2, l2, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rs := l2.Recovery()
	if rs.ReplayedBatches != batches {
		t.Fatalf("replayed %d batches, want %d", rs.ReplayedBatches, batches)
	}
	if rs.TruncatedRecords != 0 {
		t.Fatalf("truncated %d records on a clean log", rs.TruncatedRecords)
	}
	if g2.Epoch() != batches {
		t.Fatalf("recovered epoch %d, want %d", g2.Epoch(), batches)
	}
	requireEqualGraphs(t, oracle(t, batches, perBatch), g2)
}

// TestParseModeRoundTrips: every mode's flag name parses back to the mode,
// and any other name is an error naming the accepted ones.
func TestParseModeRoundTrips(t *testing.T) {
	for _, mode := range []Mode{ModeFsync, ModeBatch, ModeOff} {
		if got, err := ParseMode(mode.String()); err != nil || got != mode {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", mode.String(), got, err, mode)
		}
	}
	if _, err := ParseMode("sync"); err == nil || !strings.Contains(err.Error(), "want fsync, batch or off") {
		t.Fatalf("ParseMode(\"sync\") error = %v, want the accepted names", err)
	}
}

func TestRecoverAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeFsync, ModeBatch, ModeOff} {
		t.Run(mode.String(), func(t *testing.T) {
			const batches, perBatch = 6, 16
			dir := t.TempDir()
			opts := Options{Dir: dir, Mode: mode, GroupWindow: time.Millisecond}
			g, l, err := Open(opts, testBase)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			for i := 1; i <= batches; i++ {
				if _, err := g.Apply(testBatch(i, n, perBatch), testTx); err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
			}
			// Close syncs in every mode, so even ModeOff recovers fully.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			g2, l2, err := Open(opts, testBase)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if g2.Epoch() != batches {
				t.Fatalf("recovered epoch %d, want %d", g2.Epoch(), batches)
			}
			requireEqualGraphs(t, oracle(t, batches, perBatch), g2)
		})
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Mode: ModeBatch, GroupWindow: 20 * time.Millisecond}
	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := g.N()

	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := g.Apply(testBatch(w*perWorker+i+1, n, 8), testTx); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != workers*perWorker {
		t.Fatalf("appends %d, want %d", st.Appends, workers*perWorker)
	}
	// The point of group commit: one fsync retires many batches. With a
	// 20 ms window and 32 batches racing, syncs must undercut appends.
	if st.Fsyncs >= st.Appends {
		t.Fatalf("no grouping: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	if l.histGroup.Count() == 0 {
		t.Fatal("group-size histogram empty")
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	const batches, perBatch = 20, 24
	dir := t.TempDir()
	// Tiny segments force rolls, so the checkpoint has something to delete.
	opts := Options{Dir: dir, Mode: ModeBatch, GroupWindow: time.Millisecond, SegmentBytes: 2048}

	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	half := batches / 2
	for i := 1; i <= half; i++ {
		if _, err := g.Apply(testBatch(i, n, perBatch), testTx); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptEpoch := l.Stats().LastCheckpoint
	if ckptEpoch != uint64(half) {
		t.Fatalf("checkpoint epoch %d, want %d", ckptEpoch, half)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	for i := half + 1; i <= batches; i++ {
		if _, err := g.Apply(testBatch(i, n, perBatch), testTx); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// newBase must not be consulted once a snapshot exists.
	g2, l2, err := Open(opts, func() (*dyn.Graph, error) {
		t.Fatal("newBase called despite checkpoint")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rs := l2.Recovery()
	if rs.SnapshotEpoch != uint64(half) {
		t.Fatalf("recovered from snapshot epoch %d, want %d", rs.SnapshotEpoch, half)
	}
	if rs.ReplayedBatches != uint64(batches-half) {
		t.Fatalf("replayed %d, want %d", rs.ReplayedBatches, batches-half)
	}
	if g2.Epoch() != batches {
		t.Fatalf("recovered epoch %d, want %d", g2.Epoch(), batches)
	}
	requireEqualGraphs(t, oracle(t, batches, perBatch), g2)
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Mode: ModeBatch, GroupWindow: time.Millisecond, CheckpointEvery: 5}
	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := g.N()
	for i := 1; i <= 12; i++ {
		if _, err := g.Apply(testBatch(i, n, 8), testTx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ck := l.Stats().LastCheckpoint; ck < 5 {
		t.Fatalf("checkpoint epoch %d, want >= 5", ck)
	}
}

func TestVertexAddsRecover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Mode: ModeFsync}
	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	batch := []dyn.Mutation{dyn.AddVertex(), dyn.AddVertex(), dyn.AddEdge(int32(n), int32(n+1)), dyn.AddEdge(0, int32(n))}
	if _, err := g.Apply(batch, testTx); err != nil {
		t.Fatal(err)
	}
	// An all-rejected batch still bumps the epoch and must be logged.
	if _, err := g.Apply([]dyn.Mutation{dyn.AddEdge(int32(n), int32(n+1))}, testTx); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	g2, l2, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if g2.N() != n+2 || g2.Epoch() != 2 {
		t.Fatalf("recovered n=%d epoch=%d, want n=%d epoch=2", g2.N(), g2.Epoch(), n+2)
	}
	requireEqualGraphs(t, g, g2)
}

// TestTornTailTruncation is the injection-point sweep of the acceptance
// criteria: the tail records of a clean log are damaged at ≥3 byte offsets
// per record (mid-header, first payload byte, last payload byte) plus a
// CRC-breaking bit flip, and every variant must recover the exact prefix
// of fully intact records — no panic, no partial batch.
func TestTornTailTruncation(t *testing.T) {
	const batches, perBatch = 8, 16
	master := t.TempDir()
	opts := Options{Dir: master, Mode: ModeFsync}
	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 1; i <= batches; i++ {
		if _, err := g.Apply(testBatch(i, n, perBatch), testTx); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	clean, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segBase := filepath.Base(segs[0])

	// Record boundaries: every record here frames perBatch mutations.
	rs := recordSize(perBatch)
	if len(clean) != segHeaderLen+batches*rs {
		t.Fatalf("segment is %d bytes, want %d", len(clean), segHeaderLen+batches*rs)
	}
	type injection struct {
		name   string
		intact int // records untouched before the damage
		mutate func(b []byte) []byte
	}
	var cases []injection
	for rec := batches - 3; rec < batches; rec++ {
		start := segHeaderLen + rec*rs
		for _, p := range []struct {
			name string
			off  int
		}{
			{"mid-header", start + 4},
			{"payload-first", start + recHeaderLen + 1},
			{"payload-last", start + rs - 1},
		} {
			cases = append(cases, injection{
				name:   p.name,
				intact: rec,
				mutate: func(off int) func([]byte) []byte {
					return func(b []byte) []byte { return b[:off] } // torn tail
				}(p.off),
			})
		}
		cases = append(cases, injection{
			name:   "crc-flip",
			intact: rec,
			mutate: func(off int) func([]byte) []byte {
				return func(b []byte) []byte {
					out := slices.Clone(b)
					out[off] ^= 0x40
					return out // bit rot inside the payload
				}
			}(start + recHeaderLen + 5),
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segBase), tc.mutate(clean), 0o644); err != nil {
				t.Fatal(err)
			}
			g2, l2, err := Open(Options{Dir: dir, Mode: ModeFsync}, testBase)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			rec := l2.Recovery()
			if rec.TruncatedRecords == 0 {
				t.Fatal("damage not detected")
			}
			if got := g2.Epoch(); got != uint64(tc.intact) {
				t.Fatalf("recovered epoch %d, want %d", got, tc.intact)
			}
			requireEqualGraphs(t, oracle(t, tc.intact, perBatch), g2)
		})
	}
}

// TestRecoverAfterTruncationContinues damages the tail, recovers, applies
// more batches through the recovered log, and recovers again — the log
// must keep a consistent history across the truncate-and-continue cycle.
func TestRecoverAfterTruncationContinues(t *testing.T) {
	const perBatch = 16
	dir := t.TempDir()
	opts := Options{Dir: dir, Mode: ModeFsync}
	g, l, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 1; i <= 5; i++ {
		if _, err := g.Apply(testBatch(i, n, perBatch), testTx); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.WriteFile(segs[0], data[:len(data)-recordSize(perBatch)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	g2, l2, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Epoch() != 4 {
		t.Fatalf("recovered epoch %d, want 4", g2.Epoch())
	}
	// History forks here: epoch 5 is re-derived from new batches.
	for i := 5; i <= 9; i++ {
		if _, err := g2.Apply(testBatch(100+i, g2.N(), perBatch), testTx); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	g3, l3, err := Open(opts, testBase)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if g3.Epoch() != 9 {
		t.Fatalf("final epoch %d, want 9", g3.Epoch())
	}
	requireEqualGraphs(t, g2, g3)
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	g, l, err := Open(Options{Dir: dir, Mode: ModeFsync}, testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close detaches the hook, so Apply succeeds in memory, non-durably.
	if _, err := g.Apply(testBatch(1, g.N(), 4), testTx); err != nil {
		t.Fatalf("post-close apply: %v", err)
	}
	if w := l.append(dyn.CommitInfo{Epoch: 99}); w == nil {
		t.Fatal("append on closed log returned nil wait")
	} else if err := w(); err == nil {
		t.Fatal("append on closed log acked")
	}
}
