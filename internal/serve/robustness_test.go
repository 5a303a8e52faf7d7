package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
)

// newRawServer is newTestServer with the *Server exposed, for tests that
// poke server internals (pool slots) or call SetCluster.
func newRawServer(t *testing.T, base *graph.Graph, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, err := dyn.New(base)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

// TestAdmissionControl429: with MaxQueueWait set, a request that cannot
// get a pool slot within the budget is shed with 429 + Retry-After, the
// rejection is counted on /metrics (reachable while the pool is full —
// it bypasses the pool) and /stats, and admitted requests are untouched.
func TestAdmissionControl429(t *testing.T) {
	s, ts := newRawServer(t, graph.Community(60, 6, 4, 0.05, 3),
		Config{MaxConcurrent: 1, MaxQueueWait: 30 * time.Millisecond})

	s.sem <- struct{}{} // occupy the only pool slot
	resp, err := http.Get(ts.URL + "/graph")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool past MaxQueueWait: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if got := s.throttled.Load(); got != 1 {
		t.Fatalf("throttled counter = %d, want 1", got)
	}
	if text := scrapeMetrics(t, ts.URL); !strings.Contains(text, "aam_serve_rejected_total 1") {
		t.Fatal("aam_serve_rejected_total not exported while pool saturated")
	}

	<-s.sem // free the slot: service resumes, /stats reports the shed
	stats := doJSON(t, "GET", ts.URL+"/stats", nil, 200)
	if stats["throttled"].(float64) != 1 {
		t.Fatalf("/stats throttled = %v, want 1", stats["throttled"])
	}
}

// TestQueueWaitAdmits: a bounded wait is a wait, not an instant reject —
// a slot freeing inside the budget admits the queued request.
func TestQueueWaitAdmits(t *testing.T) {
	s, ts := newRawServer(t, graph.Community(60, 6, 4, 0.05, 3),
		Config{MaxConcurrent: 1, MaxQueueWait: 10 * time.Second})

	s.sem <- struct{}{}
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-s.sem
	}()
	doJSON(t, "GET", ts.URL+"/graph", nil, 200)
	if got := s.throttled.Load(); got != 0 {
		t.Fatalf("throttled counter = %d, want 0", got)
	}
}

// TestClusterEngineAndFallback drives ?engine=cluster end to end over a
// real one-worker cluster: distributed answers match the in-process shard
// engine bit for bit and carry a "cluster" block; once the cluster is
// gone the same query degrades gracefully — 200 from the in-process
// engine, with the fallback recorded in the body, the trace span, the
// fallback counter and /stats.
func TestClusterEngineAndFallback(t *testing.T) {
	base := graph.Community(200, 10, 4, 0.05, 9)
	// Cache off: the pre- and post-failure queries share URLs and epoch,
	// and a cache hit would mask the fallback path.
	s, ts := newRawServer(t, base, Config{Tx: dyn.TxConfig{C: 8}, CacheBytes: -1})

	// No cluster attached: engine=cluster is a config error, not a 500.
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&engine=cluster&shards=4", nil, 400)

	c, err := shard.NewClusterOpts("127.0.0.1:0", 1, shard.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- shard.JoinCluster(c.Addr()) }()
	if err := c.Accept(); err != nil {
		t.Fatal(err)
	}
	s.SetCluster(c)

	// The cluster engine keeps the shard engine's validation.
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&engine=cluster&shards=1", nil, 400)

	shd := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1&engine=shard&shards=4", nil, 200)
	dist := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1&engine=cluster&shards=4", nil, 200)
	if dist["engine"] != "cluster" {
		t.Fatalf("engine echo: %v", dist["engine"])
	}
	cl := dist["cluster"].(map[string]any)
	if cl["used"] != true || cl["ranks"].(float64) != 2 {
		t.Fatalf("cluster block: %v", cl)
	}
	if !reflect.DeepEqual(shd["parents"], dist["parents"]) {
		t.Fatal("cluster BFS diverges from in-process shard engine")
	}

	pShd := doJSON(t, "GET", ts.URL+"/query/pagerank?iters=4&top=8&engine=shard&shards=4", nil, 200)
	pCl := doJSON(t, "GET", ts.URL+"/query/pagerank?iters=4&top=8&engine=cluster&shards=4", nil, 200)
	if !reflect.DeepEqual(pShd["top"], pCl["top"]) {
		t.Fatal("cluster PageRank diverges from in-process shard engine")
	}

	// Tear the cluster down: the query path must degrade, not 500.
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	fb := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1&engine=cluster&shards=4&trace=1", nil, 200)
	cl = fb["cluster"].(map[string]any)
	if cl["used"] != false {
		t.Fatalf("degraded query claims a cluster answer: %v", cl)
	}
	if fbReason, _ := cl["fallback"].(string); fbReason == "" {
		t.Fatal("degraded query carries no fallback reason")
	}
	if !reflect.DeepEqual(shd["parents"], fb["parents"]) {
		t.Fatal("degraded BFS diverges from in-process shard engine")
	}
	if tr := fb["trace"].(map[string]any); tr["fallback"] == nil {
		t.Fatal("trace span missing the fallback")
	}
	if got := s.fallbacks.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if text := scrapeMetrics(t, ts.URL); !strings.Contains(text, "aam_serve_cluster_fallbacks_total 1") {
		t.Fatal("aam_serve_cluster_fallbacks_total not exported")
	}
	stats := doJSON(t, "GET", ts.URL+"/stats", nil, 200)
	if stats["cluster_fallbacks"].(float64) != 1 {
		t.Fatalf("/stats cluster_fallbacks = %v, want 1", stats["cluster_fallbacks"])
	}
}
