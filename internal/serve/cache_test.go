package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
)

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("bad JSON %q: %v", b, err)
	}
}

// newCacheServer builds a server plus direct access to the *Server for
// counter assertions.
func newCacheServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *dyn.Graph) {
	t.Helper()
	g, err := dyn.New(graph.Community(256, 8, 3, 0.1, 5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, g
}

func get(t *testing.T, url string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// TestCanonicalParamsEscaping: decoded values must be re-escaped so a
// value containing literal "&k=v" cannot collide with genuinely distinct
// parameters (which would alias their cache entries and ETags).
func TestCanonicalParamsEscaping(t *testing.T) {
	a := canonicalParams(url.Values{"mech": {"lock"}, "part": {"edge"}})
	b := canonicalParams(url.Values{"mech": {"lock&part=edge"}})
	if a == b {
		t.Fatalf("distinct queries collide on %q", a)
	}
	if x, y := canonicalParams(url.Values{"b": {"2"}, "a": {"1"}}), canonicalParams(url.Values{"a": {"1"}, "b": {"2"}}); x != y {
		t.Fatalf("order not canonical: %q vs %q", x, y)
	}
}

// TestCacheHitByteIdentical: a repeated identical query is answered from
// the cache — byte for byte the same body, no second computation.
func TestCacheHitByteIdentical(t *testing.T) {
	ts, s, _ := newCacheServer(t, Config{})
	url := ts.URL + "/query/pagerank?iters=5&top=3"
	_, body1 := get(t, url, nil)
	q1 := s.queries.Load()
	resp2, body2 := get(t, url, nil)
	if string(body1) != string(body2) {
		t.Fatalf("cached replay differs from original:\n%s\nvs\n%s", body1, body2)
	}
	if got := s.queries.Load(); got != q1 {
		t.Fatalf("second identical query recomputed (queries %d → %d)", q1, got)
	}
	cs := s.cache.stats()
	if cs.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1 (%+v)", cs.Hits, cs)
	}
	if resp2.Header.Get("ETag") == "" {
		t.Fatal("cached response missing ETag")
	}
	// Param order must not defeat the cache.
	_, body3 := get(t, ts.URL+"/query/pagerank?top=3&iters=5", nil)
	if string(body3) != string(body1) {
		t.Fatal("canonicalization failed: reordered params missed the cache")
	}
	if cs := s.cache.stats(); cs.Hits != 2 {
		t.Fatalf("cache hits = %d, want 2 after reordered-param hit", cs.Hits)
	}
}

// TestCacheStaleness: a mutation advances the epoch and must invalidate —
// the next query may never see the prior epoch's answer.
func TestCacheStaleness(t *testing.T) {
	ts, s, g := newCacheServer(t, Config{})
	url := ts.URL + "/graph"
	_, body1 := get(t, url, nil)
	epoch1 := g.Epoch()

	res, err := g.Apply([]dyn.Mutation{dyn.AddEdge(0, 200)}, dyn.TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch == epoch1 {
		t.Fatal("mutation did not advance the epoch")
	}
	_, body2 := get(t, url, nil)
	if string(body1) == string(body2) {
		t.Fatal("post-mutation query served the prior epoch's cached body")
	}
	var g1, g2 struct {
		Epoch uint64 `json:"epoch"`
		Arcs  int64  `json:"arcs"`
	}
	mustUnmarshal(t, body1, &g1)
	mustUnmarshal(t, body2, &g2)
	if g2.Epoch != res.Epoch || g2.Arcs != g1.Arcs+2 {
		t.Fatalf("stale answer after mutation: %+v then %+v (want epoch %d)", g1, g2, res.Epoch)
	}
	// The old entry stays in the LRU but is unreachable: hits for the new
	// epoch must come from a fresh computation.
	if cs := s.cache.stats(); cs.Misses < 2 {
		t.Fatalf("expected a second miss after invalidation, got %+v", cs)
	}
}

// TestRequestCollapsing: concurrent identical in-flight queries must
// collapse onto one computation and all receive the leader's bytes. The
// test plays leader itself by pre-registering the flight, so the followers
// are deterministically in-flight — no timing assumptions.
func TestRequestCollapsing(t *testing.T) {
	ts, s, g := newCacheServer(t, Config{})
	key := cacheKey{epoch: g.Epoch(), path: "/query/cc", params: ""}
	_, f, leader := s.cache.acquire(key)
	if !leader {
		t.Fatal("test could not claim the flight")
	}

	const followers = 6
	bodies := make([][]byte, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = get(t, ts.URL+"/query/cc", nil)
		}(i)
	}
	// Wait until every follower is collapsed onto the flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cs := s.cache.stats(); cs.Collapsed >= followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers did not collapse: %+v", s.cache.stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.queries.Load(); got != 0 {
		t.Fatalf("%d computations ran while the flight was open", got)
	}
	payload := []byte(`{"components":1,"epoch":0,"n":256,"wall_time_ns":1}`)
	f.status, f.body = http.StatusOK, payload
	f.header = http.Header{"Content-Type": []string{"application/json"}}
	f.cached = true
	s.cache.store(key, payload)
	close(f.done)
	s.cache.finish(key)
	wg.Wait()

	for i, b := range bodies {
		if string(b) != string(payload) {
			t.Fatalf("follower %d got %q, want the leader's bytes", i, b)
		}
	}
	if got := s.queries.Load(); got != 0 {
		t.Fatalf("collapsed followers still ran %d computations", got)
	}
}

// TestPanickingLeaderWakesFollowers: when the leader's computation panics
// (a simulated thread's panic reaches the handler as the engine's own), the
// follower collapsed on its key gets a 500 instead of waiting forever, the
// panic still leaves the leader's handler, and the next request for the key
// computes again.
func TestPanickingLeaderWakesFollowers(t *testing.T) {
	_, s, _ := newCacheServer(t, Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	h := s.cachedGET(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			panic("leader panicked")
		}
		w.Write([]byte(`{"components":1}`))
	})
	serveOne := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/query/cc", nil))
		return rec
	}
	leaderPanic := make(chan any)
	go func() {
		defer func() { leaderPanic <- recover() }()
		serveOne()
	}()
	<-entered
	follower := make(chan *httptest.ResponseRecorder)
	go func() { follower <- serveOne() }()
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.stats().Collapsed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not collapse: %+v", s.cache.stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-leaderPanic; r != "leader panicked" {
		t.Fatalf("leader's handler ended with %v, want its panic", r)
	}
	select {
	case rec := <-follower:
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("follower got %d, want 500", rec.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still waits on the panicked leader's flight")
	}
	if rec := serveOne(); rec.Code != http.StatusOK || rec.Body.String() != `{"components":1}` || calls.Load() != 2 {
		t.Fatalf("request after the panic got %d %q after %d computations, want a fresh 200 from the second", rec.Code, rec.Body, calls.Load())
	}
}

// TestConcurrentIdenticalQueriesComputeOnce is the -race stress version:
// unorchestrated concurrent identical queries over a fixed epoch must
// produce byte-identical answers from exactly one computation (collapsed
// or cache-hit, depending on interleaving).
func TestConcurrentIdenticalQueriesComputeOnce(t *testing.T) {
	ts, s, _ := newCacheServer(t, Config{})
	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = get(t, ts.URL+"/query/bfs?src=0", nil)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("client %d diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := s.queries.Load(); got != 1 {
		t.Fatalf("computations = %d, want exactly 1 for %d identical queries", got, clients)
	}
	cs := s.cache.stats()
	if cs.Misses != 1 || cs.Hits+cs.Collapsed != clients-1 {
		t.Fatalf("accounting off: %+v for %d clients", cs, clients)
	}
}

// TestETagConditionalGET covers the 304 path on query, graph and stats
// endpoints: hit (matching tag, no body) and miss (stale tag after a
// mutation → fresh 200).
func TestETagConditionalGET(t *testing.T) {
	ts, s, g := newCacheServer(t, Config{})
	for _, path := range []string{"/graph", "/query/cc", "/query/pagerank?iters=3"} {
		url := ts.URL + path
		resp1, _ := get(t, url, nil)
		tag := resp1.Header.Get("ETag")
		if tag == "" {
			t.Fatalf("%s: no ETag on 200", path)
		}
		resp2, body2 := get(t, url, map[string]string{"If-None-Match": tag})
		if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
			t.Fatalf("%s: conditional GET got %d with %d body bytes, want bodyless 304", path, resp2.StatusCode, len(body2))
		}
	}
	if _, err := g.Apply([]dyn.Mutation{dyn.AddEdge(3, 99)}, dyn.TxConfig{}); err != nil {
		t.Fatal(err)
	}
	// Tag miss after the epoch moved: full 200 with a new tag.
	resp1, _ := get(t, ts.URL+"/graph", nil)
	tagOld := resp1.Header.Get("ETag")
	resp3, body3 := get(t, ts.URL+"/graph", map[string]string{"If-None-Match": `"e0-deadbeef"`})
	if resp3.StatusCode != http.StatusOK || len(body3) == 0 {
		t.Fatalf("stale-tag GET got %d, want 200 with body", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") != tagOld {
		t.Fatalf("same-epoch tags differ: %q vs %q", resp3.Header.Get("ETag"), tagOld)
	}

	// If-None-Match: * must not short-circuit: a request that would fail
	// validation has no current representation to be "not modified" from.
	respStar, _ := get(t, ts.URL+"/query/bfs?src=-1", map[string]string{"If-None-Match": "*"})
	if respStar.StatusCode != http.StatusBadRequest {
		t.Fatalf("If-None-Match: * on invalid request got %d, want 400", respStar.StatusCode)
	}

	// /stats and /metrics are uncacheable live reads: no ETag, no-store,
	// and a conditional poll must get a fresh 200 with moving counters —
	// never a 304 that freezes latency/counter fields (the old
	// epoch-derived-tag bug).
	for _, path := range []string{"/stats", "/metrics"} {
		respS, bodyS := get(t, ts.URL+path, nil)
		if tag := respS.Header.Get("ETag"); tag != "" {
			t.Fatalf("%s carries ETag %q, want none", path, tag)
		}
		if cc := respS.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s Cache-Control = %q, want no-store", path, cc)
		}
		respS2, bodyS2 := get(t, ts.URL+path, map[string]string{"If-None-Match": `W/"anything"`})
		if respS2.StatusCode != http.StatusOK || len(bodyS2) == 0 {
			t.Fatalf("%s conditional poll got %d with %d body bytes, want full 200", path, respS2.StatusCode, len(bodyS2))
		}
		if len(bodyS) == 0 {
			t.Fatalf("%s returned empty body", path)
		}
	}
	// Counters keep moving between polls (requests_total counts the polls
	// themselves).
	var st1, st2 struct {
		Requests uint64 `json:"requests"`
	}
	_, b1 := get(t, ts.URL+"/stats", nil)
	_, b2 := get(t, ts.URL+"/stats", nil)
	if err := json.Unmarshal(b1, &st1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Requests <= st1.Requests {
		t.Fatalf("back-to-back /stats requests counters %d then %d, want strictly increasing", st1.Requests, st2.Requests)
	}
	if n := s.notModified.Load(); n < 3 {
		t.Fatalf("etag_304 counter = %d, want >= 3 (query-path 304s)", n)
	}
}

// TestCacheDisabled: CacheBytes < 0 turns the cache off — every identical
// query recomputes — while ETag/304 keeps working.
func TestCacheDisabled(t *testing.T) {
	ts, s, _ := newCacheServer(t, Config{CacheBytes: -1})
	if s.cache != nil {
		t.Fatal("cache should be nil when disabled")
	}
	url := ts.URL + "/query/cc"
	get(t, url, nil)
	resp, _ := get(t, url, nil)
	if got := s.queries.Load(); got != 2 {
		t.Fatalf("computations = %d, want 2 with the cache off", got)
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag with cache off")
	}
	resp304, _ := get(t, url, map[string]string{"If-None-Match": tag})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET with cache off got %d, want 304", resp304.StatusCode)
	}
	if got := s.queries.Load(); got != 2 {
		t.Fatal("304 path ran a computation")
	}
}

// TestCacheEviction: a byte-bounded cache evicts LRU entries instead of
// growing without bound.
func TestCacheEviction(t *testing.T) {
	ts, s, _ := newCacheServer(t, Config{CacheBytes: 512})
	for i := 0; i < 8; i++ {
		get(t, fmt.Sprintf("%s/query/bfs?src=%d", ts.URL, i), nil)
	}
	cs := s.cache.stats()
	if cs.Bytes > cs.MaxBytes {
		t.Fatalf("cache holds %d bytes over the %d bound", cs.Bytes, cs.MaxBytes)
	}
	if cs.Evictions == 0 && cs.Entries >= 8 {
		t.Fatalf("no evictions despite %d entries in a 512-byte cache", cs.Entries)
	}
}

// TestStatsExposesCacheCounters: the /stats body carries the cache and
// freeze sections the ops side monitors.
func TestStatsExposesCacheCounters(t *testing.T) {
	ts, _, _ := newCacheServer(t, Config{})
	get(t, ts.URL+"/query/cc", nil)
	get(t, ts.URL+"/query/cc", nil)
	_, body := get(t, ts.URL+"/stats", nil)
	var stats struct {
		Cache  *CacheStats `json:"cache"`
		Freeze struct {
			Freezes uint64 `json:"Freezes"`
		} `json:"freeze"`
		ETag304 uint64 `json:"etag_304"`
	}
	mustUnmarshal(t, body, &stats)
	if stats.Cache == nil || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache section wrong: %+v", stats.Cache)
	}
}
