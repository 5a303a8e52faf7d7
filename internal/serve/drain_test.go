package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/wal"
)

// sortedAdj returns a thread-order-independent view of the graph: the
// delta lists append arcs in worker order, so equality is checked on the
// per-vertex sorted materialization.
func sortedAdj(g *dyn.Graph) *graph.Graph {
	m := g.Snapshot().FullMaterialize()
	out := &graph.Graph{N: m.N, Offsets: m.Offsets, Adj: slices.Clone(m.Adj)}
	for v := 0; v < out.N; v++ {
		slices.Sort(out.Neighbors(v))
	}
	return out
}

// TestDrainDurableShutdown hammers a durable server with concurrent edge
// mutations while Drain fires mid-storm. Contract under test: every
// mutation is either acknowledged with 200 — and then survives a restart —
// or rejected whole with 503; after Drain plus recovery the graph matches
// the pre-shutdown state exactly, so nothing was half-applied.
func TestDrainDurableShutdown(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, Mode: wal.ModeBatch}
	newBase := func() (*dyn.Graph, error) {
		return dyn.New(graph.Community(128, 8, 4, 0.05, 3))
	}
	g, l, err := wal.Open(opts, newBase)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{WAL: l, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(rng *rand.Rand) int {
		edges := make([][2]int32, 4)
		for i := range edges {
			u := rng.Int31n(128)
			v := rng.Int31n(128)
			if u == v {
				v = (v + 1) % 128
			}
			edges[i] = [2]int32{u, v}
		}
		body, _ := json.Marshal(map[string]any{"edges": edges})
		resp, err := http.Post(ts.URL+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		switch resp.StatusCode {
		case http.StatusOK:
			return int(out["epoch"].(float64))
		case http.StatusServiceUnavailable:
			return 0 // cleanly rejected: drain beat this request to the pool
		default:
			t.Errorf("status %d: %v", resp.StatusCode, out)
			return 0
		}
	}

	const writers = 4
	var (
		wg       sync.WaitGroup
		maxAcked atomic.Int64
		acked    atomic.Int64
		rejected atomic.Int64
		stop     atomic.Bool
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for !stop.Load() {
				if epoch := post(rng); epoch > 0 {
					acked.Add(1)
					for {
						old := maxAcked.Load()
						if epoch <= int(old) || maxAcked.CompareAndSwap(old, int64(epoch)) {
							break
						}
					}
				} else {
					rejected.Add(1)
				}
			}
		}(w)
	}

	// Let the storm build, then drain mid-flight.
	for acked.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	// The pool stays closed: a straggler must be rejected whole.
	resp, err := http.Post(ts.URL+"/edges", "application/json",
		bytes.NewReader([]byte(`{"edges":[[0,1]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain mutation: status %d, want 503", resp.StatusCode)
	}

	// Drain emptied the pool, so the in-memory graph is settled; every
	// Apply that acked did so after its group fsync. Recovery must land on
	// exactly this state.
	settled := sortedAdj(g)
	settledEpoch := g.Epoch()
	if uint64(maxAcked.Load()) > settledEpoch {
		t.Fatalf("acked epoch %d beyond settled epoch %d", maxAcked.Load(), settledEpoch)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	g2, l2, err := wal.Open(opts, newBase)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	if g2.Epoch() != settledEpoch {
		t.Fatalf("recovered epoch %d, want %d (last ack %d)", g2.Epoch(), settledEpoch, maxAcked.Load())
	}
	rec := sortedAdj(g2)
	if rec.N != settled.N || !slices.Equal(rec.Offsets, settled.Offsets) || !slices.Equal(rec.Adj, settled.Adj) {
		t.Fatal("recovered graph differs from the drained graph")
	}
	t.Logf("acked %d batches (%d rejected at the drain gate), settled epoch %d",
		acked.Load(), rejected.Load(), settledEpoch)
}

// TestStatsCarriesWAL wires a durable server and checks that /stats grows
// the wal and recovery sections and /metrics exposes the WAL series.
func TestStatsCarriesWAL(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, Mode: wal.ModeFsync}
	g, l, err := wal.Open(opts, func() (*dyn.Graph, error) {
		return dyn.New(graph.Community(64, 8, 4, 0.05, 5))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := New(g, Config{WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doJSON(t, "POST", ts.URL+"/edges", map[string]any{"edges": [][2]int32{{0, 1}, {1, 2}}}, 200)

	st := doJSON(t, "GET", ts.URL+"/stats", nil, 200)
	w, ok := st["wal"].(map[string]any)
	if !ok {
		t.Fatalf("stats carries no wal section: %v", st)
	}
	if w["mode"] != "fsync" || w["appends"].(float64) < 1 || w["fsyncs"].(float64) < 1 {
		t.Fatalf("wal section = %v", w)
	}
	if _, ok := st["recovery"].(map[string]any); !ok {
		t.Fatalf("stats carries no recovery section: %v", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, series := range []string{
		"aam_wal_appends_total", "aam_wal_fsyncs_total", "aam_wal_bytes_total",
		"aam_wal_group_size", "aam_wal_commit_latency_ns",
		"aam_recovery_replayed_batches", "aam_recovery_duration_ns",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}
