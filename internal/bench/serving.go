package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/serve"
)

func init() {
	register(Experiment{
		ID:    "serving",
		Title: "High-QPS read path: incremental snapshot freeze + epoch-keyed query cache",
		Paper: "Beyond the paper's batch runs: the serving hot path. Freeze cost after k " +
			"mutations must be O(touched), not O(N+M) — the patched-CSR splice vs the " +
			"full rebuild — and a cache keyed by (epoch, endpoint, params) with request " +
			"collapsing must execute each distinct query once per epoch. Deterministic " +
			"counts (touched vertices, hits/misses/304s, collapsed computations) gate " +
			"exactly.",
		Run: runServing,
	})
}

// runServing counts the two halves of the read-path overhaul and their
// composition: vertices an incremental freeze touches after k mutations,
// and computations a cached vs an uncached server runs under a mixed
// read/write driver.
func runServing(o Options) *Report {
	rep := &Report{}
	servingFreezePart(rep, o)
	servingCachePart(rep, o)
	servingCollapsePart(rep, o)
	return rep
}

// servingFreezePart: freeze after k mutations, incremental vs full
// rebuild, with the touched-vertex counts gated exactly.
func servingFreezePart(rep *Report, o Options) {
	scale := o.shift(13, 8)
	base := graph.Kronecker(scale, 8, o.Seed)
	t := rep.NewTable("vertices touched by a freeze after k mutations", "k", "rounds", "touched/round")

	equivalent := true
	for _, k := range []int{1, 16, 256} {
		g, err := dyn.New(base)
		if err != nil {
			panic(err)
		}
		g.Freeze()
		rng := rand.New(rand.NewSource(o.Seed))
		rounds := 6
		before := g.FreezeStats()
		for r := 0; r < rounds; r++ {
			batch := make([]dyn.Mutation, 0, k)
			for i := 0; i < k; i++ {
				u := int32(rng.Intn(base.N))
				v := int32(rng.Intn(base.N))
				if u == v {
					v = (v + 1) % int32(base.N)
				}
				batch = append(batch, dyn.AddEdge(u, v))
			}
			if _, err := g.Apply(batch, dyn.TxConfig{Seed: o.Seed}); err != nil {
				panic(err)
			}
			s := g.Snapshot()
			inc := s.Freeze()
			if r == 0 { // full equivalence audit once per k
				full := s.FullMaterialize()
				for v := 0; v < inc.N; v++ {
					if !slices.Equal(inc.Neighbors(v), full.Neighbors(v)) {
						equivalent = false
					}
				}
			}
		}
		after := g.FreezeStats()
		touched := float64(after.TouchedVertices-before.TouchedVertices) / float64(rounds)
		t.AddRow(itoa(k), itoa(rounds), fmt.Sprintf("%.1f", touched))
		// Touched counts are a pure function of the seeded workload: exact.
		rep.Metricf(fmt.Sprintf("freeze.touched.k%d", k), touched)
	}
	rep.Checkf(equivalent, "incremental freeze ≡ full rebuild",
		"patched-CSR freeze and O(N+M) rebuild produce identical per-vertex adjacency")
	rep.Notef("freeze workload: Kronecker scale %d (%d vertices, %d arcs); touched counts are per freeze",
		scale, base.N, base.NumEdges())
}

// servingDriver issues the deterministic mixed read/write sequence against
// a handler: epochs × (distinct queries × repeats), one mutation between
// epochs, one conditional re-poll per epoch. It reports whether every
// repeat within an epoch returned the first answer's bytes.
func servingDriver(h http.Handler, n, epochs, repeats int) bool {
	queries := []string{
		"/graph",
		"/query/cc",
		"/query/bfs?src=0",
		"/query/bfs?src=1",
		"/query/pagerank?iters=4&top=5",
	}
	replayOK := true
	first := map[string]string{} // "epoch/path" → first body
	do := func(method, target, body string, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec, rec.Body.Bytes()
	}
	for e := 0; e < epochs; e++ {
		var lastTag string
		for rpt := 0; rpt < repeats; rpt++ {
			for _, q := range queries {
				rec, body := do(http.MethodGet, q, "", nil)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("serving: GET %s: %d %s", q, rec.Code, body))
				}
				key := fmt.Sprintf("%d/%s", e, q)
				if want, ok := first[key]; !ok {
					first[key] = string(body)
				} else if want != string(body) {
					replayOK = false
				}
				lastTag = rec.Header().Get("ETag")
			}
		}
		// Unchanged-epoch poll: answered 304 (the server counts them).
		if lastTag != "" {
			do(http.MethodGet, "/query/pagerank?iters=4&top=5", "", map[string]string{"If-None-Match": lastTag})
		}
		// Advance the epoch: one insert (deterministic in-range endpoints;
		// a rejected duplicate still advances the epoch, which is all the
		// driver needs).
		mut := fmt.Sprintf(`{"edges":[[%d,%d]]}`, e, n/2+e)
		if rec, body := do(http.MethodPost, "/edges", mut, nil); rec.Code != http.StatusOK {
			panic(fmt.Sprintf("serving: POST /edges: %d %s", rec.Code, body))
		}
	}
	return replayOK
}

type servingStats struct {
	Queries uint64 `json:"queries"`
	ETag304 uint64 `json:"etag_304"`
	Cache   *struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Collapsed uint64 `json:"collapsed"`
	} `json:"cache"`
}

func scrapeStats(h http.Handler) servingStats {
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st servingStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		panic(err)
	}
	return st
}

func servingServer(o Options, n int, cacheBytes int64) (http.Handler, *dyn.Graph) {
	g, err := dyn.New(graph.Community(n, 16, 4, 0.05, o.Seed))
	if err != nil {
		panic(err)
	}
	srv, err := serve.New(g, serve.Config{Tx: dyn.TxConfig{Seed: o.Seed}, CacheBytes: cacheBytes})
	if err != nil {
		panic(err)
	}
	return srv.Handler(), g
}

// servingCachePart: the same deterministic mixed read/write sequence
// against a cached and an uncached server. Executed-computation counts and
// hit/miss/304 totals are exact.
func servingCachePart(rep *Report, o Options) {
	n := 1 << o.shift(11, 7)
	const epochs, repeats = 4, 6
	nq := 5                            // queries per repeat (see servingDriver)
	total := epochs * (repeats*nq + 1) // + one conditional poll per epoch

	cachedH, _ := servingServer(o, n, 0) // 0 → default cache size
	replayOK := servingDriver(cachedH, n, epochs, repeats)
	cachedStats := scrapeStats(cachedH)

	uncachedH, _ := servingServer(o, n, -1)
	servingDriver(uncachedH, n, epochs, repeats)
	uncachedStats := scrapeStats(uncachedH)

	t := rep.NewTable("cached vs uncached mixed read/write serving",
		"path", "requests", "computed", "hits", "misses", "304s")
	t.AddRow("cached", itoa(total), utoa(cachedStats.Queries),
		utoa(cachedStats.Cache.Hits), utoa(cachedStats.Cache.Misses), utoa(cachedStats.ETag304))
	t.AddRow("uncached", itoa(total), utoa(uncachedStats.Queries), "-", "-", utoa(uncachedStats.ETag304))

	// Deterministic: each of the 5 distinct queries computes once per
	// epoch on the cached path, every repeat recomputes on the uncached
	// path; the conditional poll 304s on both (ETag needs no cache).
	rep.Metricf("serving.computed.cached", float64(cachedStats.Queries))
	rep.Metricf("serving.computed.uncached", float64(uncachedStats.Queries))
	rep.Metricf("serving.cache.hits", float64(cachedStats.Cache.Hits))
	rep.Metricf("serving.cache.misses", float64(cachedStats.Cache.Misses))
	rep.Metricf("serving.etag_304", float64(cachedStats.ETag304))

	// /graph is summary metadata, not an analytics computation, so the
	// computed-queries counter covers the other nq-1 endpoints.
	computedPerEpoch := nq - 1
	rep.Checkf(cachedStats.Queries == uint64(epochs*computedPerEpoch),
		"each distinct query computed once per epoch",
		"%d computations for %d epochs × %d analytics queries (uncached path: %d)",
		cachedStats.Queries, epochs, computedPerEpoch, uncachedStats.Queries)
	// Byte-identity is the cached path's guarantee; the uncached path
	// re-times every run (wall_time_ns), so only the cached driver is
	// audited.
	rep.Checkf(replayOK, "byte-identical replays",
		"every repeated query within one epoch returned the first answer's bytes")
	rep.Notef("serving workload: %d-vertex community graph; %d epochs × %d repeats × %d distinct queries + 1 conditional poll, 1-edge mutation between epochs",
		n, epochs, repeats, nq)
}

// servingCollapsePart: concurrent identical first-time queries at a fresh
// epoch must collapse onto one computation.
func servingCollapsePart(rep *Report, o Options) {
	n := 1 << o.shift(11, 7)
	h, _ := servingServer(o, n, 0)
	const clients = 8
	var start, done sync.WaitGroup
	release := make(chan struct{})
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		start.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			req := httptest.NewRequest(http.MethodGet, "/query/pagerank?iters=6&top=5", nil)
			rec := httptest.NewRecorder()
			start.Done()
			<-release
			h.ServeHTTP(rec, req)
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	start.Wait()
	close(release)
	done.Wait()

	st := scrapeStats(h)
	identical := true
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			identical = false
		}
	}
	t := rep.NewTable("request collapsing (concurrent identical queries, one epoch)",
		"clients", "computed", "collapsed", "hits")
	t.AddRow(itoa(clients), utoa(st.Queries), utoa(st.Cache.Collapsed), utoa(st.Cache.Hits))
	// Exactly one computation runs no matter how the requests interleave:
	// the flight map admits one leader and the result is stored before the
	// flight retires. Exact-gated.
	rep.Metricf("serving.collapse.computed", float64(st.Queries))
	rep.Checkf(st.Queries == 1 && identical, "concurrent identical queries collapse",
		"%d clients, %d computation(s), %d collapsed, %d cache hits, identical bytes=%t",
		clients, st.Queries, st.Cache.Collapsed, st.Cache.Hits, identical)
}
