package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"aamgo/internal/dyn"
)

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestMetricsEndpoint: /metrics serves valid Prometheus text with series
// spanning the serve, dyn and shard layers.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, g := newCacheServer(t, Config{})
	// Traffic across all three layers: queries (serve), a mutation (dyn),
	// and a sharded run (shard globals).
	get(t, ts.URL+"/query/bfs?src=0", nil)
	get(t, ts.URL+"/query/pagerank?iters=2&shards=4", nil)
	if _, err := g.Apply([]dyn.Mutation{dyn.AddEdge(0, 7)}, dyn.TxConfig{}); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	series := 0
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		series++
	}
	if series < 20 {
		t.Fatalf("exposition has %d series, want >= 20", series)
	}
	for _, want := range []string{
		`aam_serve_request_latency_ns{endpoint="bfs",quantile="0.99"}`,
		"aam_serve_requests_total",
		"aam_serve_pool_capacity",
		"aam_dyn_batches_total 1",
		`aam_dyn_freezes_total{kind=`,
		"aam_shard_remote_units_sent_total",
		"aam_shard_drain_latency_ns_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLogFinalStats: the shutdown summary is one Info record carrying the
// lifetime counters of what the server handled.
func TestLogFinalStats(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil)) // Info: no per-request lines
	s, ts := newRawServer(t, goldenGraph(), Config{Logger: logger})
	doJSON(t, "POST", ts.URL+"/edges", map[string]any{"edges": [][2]int32{{0, 63}}}, 200)
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0", nil, 200)
	doJSON(t, "GET", ts.URL+"/query/bfs?src=-1", nil, 400)
	s.LogFinalStats()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("want one JSON record, got %q: %v", buf.Bytes(), err)
	}
	if rec["msg"] != "final stats" {
		t.Fatalf("msg = %v, want final stats", rec["msg"])
	}
	for key, want := range map[string]float64{
		"requests": 3, "queries": 1, "mutation_batches": 1, "bad_requests": 1,
		"etag_304": 0, "epoch": 1, "tx_committed": 1,
	} {
		if got, ok := rec[key].(float64); !ok || got != want {
			t.Errorf("%s = %v, want %v", key, rec[key], want)
		}
	}
}

// TestStatsLatencyPercentiles: /stats reports per-endpoint p50/p99/p999
// and they are ordered.
func TestStatsLatencyPercentiles(t *testing.T) {
	ts, _, _ := newCacheServer(t, Config{})
	for i := 0; i < 5; i++ {
		get(t, fmt.Sprintf("%s/query/bfs?src=%d", ts.URL, i), nil)
	}
	get(t, ts.URL+"/query/cc", nil)
	_, body := get(t, ts.URL+"/stats", nil)
	var st struct {
		Latency map[string]latencySummary `json:"latency"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	bfs, ok := st.Latency["bfs"]
	if !ok {
		t.Fatalf("no bfs latency summary; have %v", st.Latency)
	}
	if bfs.Count != 5 {
		t.Errorf("bfs latency count = %d, want 5", bfs.Count)
	}
	if bfs.P50NS == 0 || bfs.P50NS > bfs.P99NS || bfs.P99NS > bfs.P999NS || bfs.P999NS > bfs.MaxNS {
		t.Errorf("percentiles not ordered: p50=%d p99=%d p999=%d max=%d", bfs.P50NS, bfs.P99NS, bfs.P999NS, bfs.MaxNS)
	}
	if _, ok := st.Latency["cc"]; !ok {
		t.Error("no cc latency summary")
	}
	if _, ok := st.Latency["mst"]; ok {
		t.Error("mst summary present without traffic")
	}
}

// TestTraceSpans: ?trace=1 embeds the span; untraced responses carry
// none; sharded traces carry messaging counters.
func TestTraceSpans(t *testing.T) {
	ts, _, _ := newCacheServer(t, Config{})
	_, plain := get(t, ts.URL+"/query/bfs?src=0", nil)
	if strings.Contains(string(plain), `"trace"`) {
		t.Fatal("untraced response contains a trace block")
	}
	var traced struct {
		Trace struct {
			Endpoint    string `json:"endpoint"`
			Epoch       uint64 `json:"epoch"`
			Outcome     string `json:"outcome"`
			FreezeNS    int64  `json:"freeze_ns"`
			ComputeNS   int64  `json:"compute_ns"`
			Shards      int    `json:"shards"`
			RemoteUnits uint64 `json:"remote_units"`
		} `json:"trace"`
	}
	_, body := get(t, ts.URL+"/query/bfs?src=0&trace=1", nil)
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace.Endpoint != "bfs" || traced.Trace.Outcome != "computed" {
		t.Fatalf("trace = %+v, want computed bfs span", traced.Trace)
	}
	if traced.Trace.ComputeNS <= 0 {
		t.Errorf("compute_ns = %d, want > 0", traced.Trace.ComputeNS)
	}
	_, body = get(t, ts.URL+"/query/bfs?src=0&shards=4&trace=1", nil)
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace.Shards != 4 {
		t.Errorf("sharded trace shards = %d, want 4", traced.Trace.Shards)
	}
	if traced.Trace.RemoteUnits == 0 {
		t.Error("sharded trace reports zero remote units on a connected graph")
	}
	// Every query endpoint must honor ?trace=1 — pagerank's handler writes
	// inline map literals, a shape that once bypassed writeQuery.
	for _, q := range []string{
		"/graph?trace=1",
		"/query/pagerank?iters=2&trace=1",
		"/query/pagerank?iters=2&shards=4&trace=1",
	} {
		_, body := get(t, ts.URL+q, nil)
		var fresh map[string]json.RawMessage
		if err := json.Unmarshal(body, &fresh); err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh["trace"]; !ok {
			t.Errorf("GET %s: no trace block in %s", q, body)
		}
	}
}

// TestXCacheHeader: the response header tracks the cache outcome even
// though the body (and its optional trace) is the leader's.
func TestXCacheHeader(t *testing.T) {
	ts, _, _ := newCacheServer(t, Config{})
	r1, _ := get(t, ts.URL+"/query/cc", nil)
	if got := r1.Header.Get("X-Cache"); got != "computed" {
		t.Fatalf("first GET X-Cache = %q, want computed", got)
	}
	r2, _ := get(t, ts.URL+"/query/cc", nil)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second GET X-Cache = %q, want hit", got)
	}
	r3, _ := get(t, ts.URL+"/query/cc", map[string]string{"If-None-Match": r1.Header.Get("ETag")})
	if r3.StatusCode != http.StatusNotModified || r3.Header.Get("X-Cache") != "304" {
		t.Fatalf("conditional GET = %d with X-Cache %q, want 304/304", r3.StatusCode, r3.Header.Get("X-Cache"))
	}
}

// TestSlowlog: /debug/slowlog retains query spans, slowest first, and each
// says where its time went although no request carried ?trace=1 — the
// first /query/cc after boot, which builds the component forest, included.
func TestSlowlog(t *testing.T) {
	ts, _, _ := newCacheServer(t, Config{SlowlogK: 4})
	slowest := func() []slowEntry {
		t.Helper()
		var out struct {
			K       int         `json:"k"`
			Slowest []slowEntry `json:"slowest"`
		}
		_, body := get(t, ts.URL+"/debug/slowlog", nil)
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.K != 4 {
			t.Fatalf("slowlog k = %d, want 4", out.K)
		}
		for i, e := range out.Slowest {
			if e.WallNS <= 0 || e.ComputeNS <= 0 || e.FreezeNS+e.ComputeNS > e.WallNS {
				t.Errorf("entry %d (%s): wall_ns %d, freeze_ns %d, compute_ns %d: want compute > 0 and freeze + compute <= wall",
					i, e.Endpoint, e.WallNS, e.FreezeNS, e.ComputeNS)
			}
		}
		return out.Slowest
	}
	get(t, ts.URL+"/query/cc", nil)
	if es := slowest(); len(es) != 1 || es[0].Endpoint != "cc" || es[0].Outcome != "computed" {
		t.Fatalf("slowlog after the first /query/cc = %+v, want its one computed span", es)
	}
	for i := 0; i < 8; i++ {
		get(t, fmt.Sprintf("%s/query/bfs?src=%d", ts.URL, i), nil)
	}
	get(t, ts.URL+"/stats", nil) // non-query: must not appear
	es := slowest()
	if len(es) != 4 {
		t.Fatalf("slowlog len = %d, want 4", len(es))
	}
	for i, e := range es {
		if e.Endpoint == "stats" || e.Endpoint == "slowlog" {
			t.Errorf("non-query endpoint %q retained", e.Endpoint)
		}
		if i > 0 && e.WallNS > es[i-1].WallNS {
			t.Errorf("slowlog not sorted desc at %d: %d > %d", i, e.WallNS, es[i-1].WallNS)
		}
	}
}

// TestPoolSaturationCounter: requests that find the pool full are
// counted.
func TestPoolSaturationCounter(t *testing.T) {
	ts, s, _ := newCacheServer(t, Config{MaxConcurrent: 1})
	done := make(chan struct{})
	// Occupy the single slot.
	s.sem <- struct{}{}
	go func() {
		defer close(done)
		get(t, ts.URL+"/query/cc", nil)
	}()
	for s.poolSaturated.Value() == 0 {
	}
	<-s.sem // free the slot; the queued request proceeds
	<-done
	if got := s.poolSaturated.Value(); got == 0 {
		t.Fatal("pool saturation not counted")
	}
}
