package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/graph"
)

func newTestServer(t *testing.T, base *graph.Graph, cfg Config) (*httptest.Server, *dyn.Graph) {
	t.Helper()
	var g *dyn.Graph
	var err error
	if base == nil {
		g = dyn.NewEmpty(8)
	} else if g, err = dyn.New(base); err != nil {
		t.Fatal(err)
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	out := map[string]any{}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, url, raw, err)
		}
	}
	return out
}

func TestMutateAndQueryRoundTrip(t *testing.T) {
	ts, g := newTestServer(t, nil, Config{})

	res := doJSON(t, "POST", ts.URL+"/edges", map[string]any{
		"edges": [][2]int32{{0, 1}, {1, 2}, {3, 4}},
	}, 200)
	if res["applied"].(float64) != 3 {
		t.Fatalf("applied = %v", res["applied"])
	}

	gr := doJSON(t, "GET", ts.URL+"/graph", nil, 200)
	if gr["n"].(float64) != 8 || gr["arcs"].(float64) != 6 {
		t.Fatalf("graph summary %v", gr)
	}

	cc := doJSON(t, "GET", ts.URL+"/query/cc", nil, 200)
	if cc["components"].(float64) != 5 { // {0,1,2} {3,4} {5} {6} {7}
		t.Fatalf("components = %v", cc["components"])
	}

	bfs := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1", nil, 200)
	if bfs["reached"].(float64) != 3 {
		t.Fatalf("bfs reached = %v", bfs["reached"])
	}
	if len(bfs["parents"].([]any)) != 8 {
		t.Fatalf("full parents missing: %v", bfs["parents"])
	}

	pr := doJSON(t, "GET", ts.URL+"/query/pagerank?iters=3&top=4", nil, 200)
	if len(pr["top"].([]any)) != 4 {
		t.Fatalf("pagerank top = %v", pr["top"])
	}

	del := doJSON(t, "DELETE", ts.URL+"/edges", map[string]any{
		"edges": [][2]int32{{1, 2}},
	}, 200)
	if del["applied"].(float64) != 1 {
		t.Fatalf("delete applied = %v", del["applied"])
	}
	cc = doJSON(t, "GET", ts.URL+"/query/cc", nil, 200)
	if cc["components"].(float64) != 6 {
		t.Fatalf("components after delete = %v", cc["components"])
	}

	vres := doJSON(t, "POST", ts.URL+"/vertices", map[string]any{"count": 2}, 200)
	if vres["n"].(float64) != 10 {
		t.Fatalf("vertices response %v", vres)
	}

	st := doJSON(t, "GET", ts.URL+"/stats", nil, 200)
	if st["mutation_batches"].(float64) != 3 || st["queries"].(float64) != 4 {
		t.Fatalf("stats %v", st)
	}
	if g.Epoch() != 3 {
		t.Fatalf("epoch = %d", g.Epoch())
	}
}

// TestVerticesCountBelongsToItsEpoch: a /vertices response reports the
// vertex count at the epoch it names, even when another batch publishes
// between its Apply and its answer. The durability hook holds batch A's
// wait until batch B has published, which forces that interleaving.
func TestVerticesCountBelongsToItsEpoch(t *testing.T) {
	ts, g := newTestServer(t, nil, Config{MaxConcurrent: 2})
	aLogged, bPublished := make(chan struct{}), make(chan struct{})
	g.SetWALHook(func(ci dyn.CommitInfo) func() error {
		switch ci.Epoch {
		case 1:
			close(aLogged)
			return func() error { <-bPublished; return nil }
		case 2:
			close(bPublished)
		}
		return nil
	})
	aBody := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/vertices", "application/json", strings.NewReader(`{"count":1}`))
		if err != nil {
			aBody <- err.Error()
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		aBody <- string(raw)
	}()
	<-aLogged
	b := doJSON(t, "POST", ts.URL+"/vertices", map[string]any{"count": 2}, 200)
	if b["epoch"] != 2.0 || b["n"] != 11.0 {
		t.Fatalf("batch B answered %v, want epoch 2 and n 11", b)
	}
	if a := <-aBody; a != `{"added":1,"epoch":1,"n":9}`+"\n" {
		t.Fatalf("batch A answered %q, want epoch 1 and n 9", a)
	}
}

func TestMechanismOverridePerRequest(t *testing.T) {
	ts, g := newTestServer(t, nil, Config{Mechanism: aam.MechHTM})
	for i, mech := range []string{"atomic", "lock", "occ", "flatcomb"} {
		u, v := int32(i), int32(i+1)
		res := doJSON(t, "POST", ts.URL+"/edges?mech="+mech, map[string]any{
			"edges": [][2]int32{{u, v}},
		}, 200)
		if res["mechanism"].(string) != mech {
			t.Fatalf("mechanism echo = %v, want %s", res["mechanism"], mech)
		}
	}
	st := g.Stats()
	if st.Tx.AtomicOps == 0 || st.Tx.LockAcqs == 0 {
		t.Fatalf("per-mechanism counters missing: %+v", st.Tx)
	}
}

func TestMalformedRequests(t *testing.T) {
	ts, _ := newTestServer(t, nil, Config{})
	cases := []struct {
		name, method, path string
		body               string
		want               int
	}{
		{"bad json", "POST", "/edges", "{nope", 400},
		{"empty batch", "POST", "/edges", `{"edges":[]}`, 400},
		{"out of range", "POST", "/edges", `{"edges":[[0,99]]}`, 400},
		{"self loop", "POST", "/edges", `{"edges":[[1,1]]}`, 400},
		{"bad mechanism", "POST", "/edges?mech=tm", `{"edges":[[0,1]]}`, 400},
		{"edges wrong method", "GET", "/edges", "", 405},
		{"vertices wrong method", "GET", "/vertices", "", 405},
		{"vertices bad count", "POST", "/vertices", `{"count":0}`, 400},
		{"vertices bad json", "POST", "/vertices", `]`, 400},
		{"edges body over cap", "POST", "/edges", `{"edges":` + strings.Repeat(" ", maxMutationBody) + `[[0,1]]}`, 413},
		{"vertices body over cap", "POST", "/vertices", `{"count":` + strings.Repeat(" ", maxMutationBody) + `1}`, 413},
		{"edges batch over cap", "POST", "/edges", `{"edges":[` + strings.Repeat("[0,1],", maxMutationBatch) + `[0,1]]}`, 400},
		{"bfs no src", "GET", "/query/bfs", "", 400},
		{"bfs bad src", "GET", "/query/bfs?src=404", "", 400},
		{"bfs neg src", "GET", "/query/bfs?src=-1", "", 400},
		{"bfs wrong method", "DELETE", "/query/bfs?src=0", "", 405},
		{"cc wrong method", "POST", "/query/cc", "", 405},
		{"pr bad iters", "GET", "/query/pagerank?iters=0", "", 400},
		{"pr bad damping", "GET", "/query/pagerank?damping=2", "", 400},
		{"pr bad top", "GET", "/query/pagerank?top=x", "", 400},
		{"stats wrong method", "POST", "/stats", "", 405},
		{"graph wrong method", "POST", "/graph", "", 405},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.want, raw)
			}
			var eb map[string]any
			if err := json.Unmarshal(raw, &eb); err != nil || eb["error"] == "" {
				t.Fatalf("error body not JSON: %q", raw)
			}
		})
	}
	st := doJSON(t, "GET", ts.URL+"/stats", nil, 200)
	if st["bad_requests"].(float64) != float64(len(cases)) {
		t.Fatalf("bad_requests = %v, want %d", st["bad_requests"], len(cases))
	}
}

// TestConcurrentTraffic exercises the daemon end to end: concurrent writers
// stream edge batches (each under a different isolation mechanism) while
// readers hammer the query endpoints. Afterwards the server's component
// view must equal a from-scratch recompute over the frozen graph.
func TestConcurrentTraffic(t *testing.T) {
	base := graph.Community(128, 8, 3, 0.05, 5)
	ts, g := newTestServer(t, base, Config{MaxConcurrent: 4})

	const writers, readers, rounds = 4, 3, 6
	mechs := []string{"htm", "atomic", "lock", "occ", "flatcomb"}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				edges := make([][2]int32, 0, 8)
				for i := 0; i < 8; i++ {
					u, v := int32(rng.Intn(base.N)), int32(rng.Intn(base.N))
					if u != v {
						edges = append(edges, [2]int32{u, v})
					}
				}
				method := "POST"
				if rng.Intn(3) == 0 {
					method = "DELETE"
				}
				body, _ := json.Marshal(map[string]any{"edges": edges})
				req, _ := http.NewRequest(method, ts.URL+"/edges?mech="+mechs[(w+r)%len(mechs)], bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("writer %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{"/query/cc", "/query/bfs?src=0", "/graph", "/stats"}
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(ts.URL + paths[(r+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("reader %d: status %d", r, resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := algo.SeqComponents(g.Freeze())
	if got := g.Components(); !reflect.DeepEqual(got, want) {
		t.Fatal("server component view diverged from recompute")
	}
	if g.Stats().Batches != writers*rounds {
		t.Fatalf("batches = %d, want %d", g.Stats().Batches, writers*rounds)
	}
}

func TestShardedQueries(t *testing.T) {
	base := graph.Community(200, 10, 4, 0.05, 9)
	ts, g := newTestServer(t, base, Config{C: 8})

	// Sharded BFS must reach the same vertex set as the single-runtime
	// path and report the messaging counters.
	single := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1", nil, 200)
	sharded := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1&shards=4", nil, 200)
	if single["reached"] != sharded["reached"] {
		t.Fatalf("reached: single %v vs sharded %v", single["reached"], sharded["reached"])
	}
	sum, ok := sharded["sharded"].(map[string]any)
	if !ok || sum["shards"].(float64) != 4 {
		t.Fatalf("missing shard summary: %v", sharded["sharded"])
	}
	if sum["remote_units"].(float64) <= 0 {
		t.Fatalf("no cross-shard traffic recorded: %v", sum)
	}

	// Sharded CC agrees with the incremental component count, and the
	// sharded labels match the sequential recompute exactly.
	ccSingle := doJSON(t, "GET", ts.URL+"/query/cc", nil, 200)
	ccSharded := doJSON(t, "GET", ts.URL+"/query/cc?shards=3&full=1", nil, 200)
	if ccSingle["components"] != ccSharded["components"] {
		t.Fatalf("components: single %v vs sharded %v", ccSingle["components"], ccSharded["components"])
	}
	want := algo.SeqComponents(g.Freeze())
	labels := ccSharded["labels"].([]any)
	for v, l := range labels {
		if int32(l.(float64)) != want[v] {
			t.Fatalf("label[%d] = %v, want %d", v, l, want[v])
		}
	}

	// Sharded PageRank returns the same top list (ranks are bit-identical,
	// so ordering ties resolve the same way).
	prSingle := doJSON(t, "GET", ts.URL+"/query/pagerank?iters=3&top=5", nil, 200)
	prSharded := doJSON(t, "GET", ts.URL+"/query/pagerank?iters=3&top=5&shards=4", nil, 200)
	if !reflect.DeepEqual(prSingle["top"], prSharded["top"]) {
		t.Fatalf("top ranks diverge:\nsingle  %v\nsharded %v", prSingle["top"], prSharded["top"])
	}

	// ?mech= composes with ?shards=.
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&shards=2&mech=flatcomb", nil, 200)

	// Validation failures.
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&shards=0", nil, 400)
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&shards=bogus", nil, 400)
	doJSON(t, "GET", ts.URL+"/query/cc?shards=2&mech=nope", nil, 400)
}

// TestIrregularQueries exercises the SSSP, MST and coloring endpoints on
// both the single-runtime and sharded paths and cross-checks them against
// each other and the sequential references.
func TestIrregularQueries(t *testing.T) {
	base := graph.Community(150, 8, 4, 0.05, 9)
	ts, g := newTestServer(t, base, Config{C: 8})

	// SSSP: the sharded and single-runtime distance vectors must agree
	// (same synthesized weights: same epoch, same wseed).
	single := doJSON(t, "GET", ts.URL+"/query/sssp?src=0&full=1", nil, 200)
	sharded := doJSON(t, "GET", ts.URL+"/query/sssp?src=0&full=1&shards=4", nil, 200)
	if single["reached"] != sharded["reached"] {
		t.Fatalf("reached: single %v vs sharded %v", single["reached"], sharded["reached"])
	}
	if !reflect.DeepEqual(single["dists"], sharded["dists"]) {
		t.Fatal("sharded SSSP distances diverge from single-runtime path")
	}
	sum, ok := sharded["sharded"].(map[string]any)
	if !ok || sum["shards"].(float64) != 4 || sum["remote_units"].(float64) <= 0 {
		t.Fatalf("missing shard summary: %v", sharded["sharded"])
	}

	// MST: same forest weight on both paths, and the component count
	// matches the sequential recompute.
	mstSingle := doJSON(t, "GET", ts.URL+"/query/mst", nil, 200)
	mstSharded := doJSON(t, "GET", ts.URL+"/query/mst?shards=3&full=1", nil, 200)
	if mstSingle["weight"] != mstSharded["weight"] {
		t.Fatalf("weight: single %v vs sharded %v", mstSingle["weight"], mstSharded["weight"])
	}
	want := algo.SeqComponents(g.Freeze())
	distinct := map[int32]struct{}{}
	for _, l := range want {
		distinct[l] = struct{}{}
	}
	if mstSharded["components"].(float64) != float64(len(distinct)) {
		t.Fatalf("components = %v, want %d", mstSharded["components"], len(distinct))
	}
	labels := mstSharded["labels"].([]any)
	for v, l := range labels {
		if int32(l.(float64)) != want[v] {
			t.Fatalf("label[%d] = %v, want %d", v, l, want[v])
		}
	}

	// Coloring: both paths proper; the sharded path is deterministic, so
	// two runs agree color for color.
	colSingle := doJSON(t, "GET", ts.URL+"/query/coloring?full=1", nil, 200)
	colSharded := doJSON(t, "GET", ts.URL+"/query/coloring?shards=4&full=1", nil, 200)
	colAgain := doJSON(t, "GET", ts.URL+"/query/coloring?shards=2&full=1", nil, 200)
	f := g.Freeze()
	for name, res := range map[string]map[string]any{"single": colSingle, "sharded": colSharded} {
		colors := res["per_vertex"].([]any)
		for v := 0; v < f.N; v++ {
			for _, w := range f.Neighbors(v) {
				if int(w) != v && colors[v] == colors[w] {
					t.Fatalf("%s: edge %d-%d monochromatic", name, v, w)
				}
			}
		}
	}
	if !reflect.DeepEqual(colSharded["per_vertex"], colAgain["per_vertex"]) {
		t.Fatal("sharded coloring not deterministic across shard counts")
	}

	// ?mech= composes, and a different wseed changes the metric space.
	doJSON(t, "GET", ts.URL+"/query/sssp?src=0&shards=2&mech=flatcomb", nil, 200)
	other := doJSON(t, "GET", ts.URL+"/query/mst?wseed=99", nil, 200)
	if other["weight"] == mstSingle["weight"] {
		t.Fatal("different wseed produced identical forest weight (suspicious)")
	}
}

// TestQueryValidationRegressions pins the 400 behavior for out-of-range
// parameters on the single-runtime paths: before the hardening these
// could reach the algorithm with an out-of-range vertex (panic/500) or
// silently clamp.
func TestQueryValidationRegressions(t *testing.T) {
	base := graph.Community(60, 6, 4, 0.05, 3)
	ts, _ := newTestServer(t, base, Config{})
	cases := []struct{ name, path string }{
		{"bfs huge src single-runtime", "/query/bfs?src=10000000"},
		{"bfs huge src sharded", "/query/bfs?src=10000000&shards=4"},
		{"sssp no src", "/query/sssp"},
		{"sssp huge src single-runtime", "/query/sssp?src=10000000"},
		{"sssp huge src sharded", "/query/sssp?src=10000000&shards=4"},
		{"sssp neg src", "/query/sssp?src=-1"},
		{"sssp bad delta", "/query/sssp?src=0&delta=-3"},
		{"sssp bad wseed", "/query/sssp?src=0&wseed=zz"},
		{"sssp bad shards", "/query/sssp?src=0&shards=0"},
		{"sssp bad mech", "/query/sssp?src=0&shards=2&mech=nope"},
		{"mst bad wseed", "/query/mst?wseed=-1"},
		{"mst bad shards", "/query/mst?shards=bogus"},
		{"coloring bad seed", "/query/coloring?seed=x"},
		{"coloring seed without shards", "/query/coloring?seed=7"},
		{"coloring bad mech", "/query/coloring?shards=2&mech=tm"},
		{"pagerank huge top single-runtime", "/query/pagerank?top=10000000"},
		{"pagerank huge top sharded", "/query/pagerank?top=10000000&shards=2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := doJSON(t, "GET", ts.URL+c.path, nil, 400)
			if res["error"] == "" {
				t.Fatal("missing error message")
			}
		})
	}
	// The default top (no explicit param) still clamps instead of failing
	// on small graphs.
	doJSON(t, "GET", ts.URL+"/query/pagerank?iters=2", nil, 200)
	// Wrong methods on the new endpoints.
	doJSON(t, "POST", ts.URL+"/query/sssp?src=0", nil, 405)
	doJSON(t, "DELETE", ts.URL+"/query/mst", nil, 405)
	doJSON(t, "POST", ts.URL+"/query/coloring", nil, 405)
}

// TestPartitionParam exercises ?part= routing: both schemes answer
// identically on every sharded endpoint, the summary echoes the scheme,
// and misuse is a 400.
func TestPartitionParam(t *testing.T) {
	base := graph.Community(200, 10, 4, 0.05, 9)
	ts, _ := newTestServer(t, base, Config{C: 8})

	block := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1&shards=4&part=block", nil, 200)
	edge := doJSON(t, "GET", ts.URL+"/query/bfs?src=0&full=1&shards=4&part=edge", nil, 200)
	if block["reached"] != edge["reached"] || block["levels"] != edge["levels"] {
		t.Fatalf("bfs diverges across partitions: block %v/%v edge %v/%v",
			block["reached"], block["levels"], edge["reached"], edge["levels"])
	}
	sum := edge["sharded"].(map[string]any)
	if sum["part"] != "edge" {
		t.Fatalf("summary part = %v, want edge", sum["part"])
	}
	if sum = block["sharded"].(map[string]any); sum["part"] != "block" {
		t.Fatalf("summary part = %v, want block", sum["part"])
	}

	ccBlock := doJSON(t, "GET", ts.URL+"/query/cc?shards=3&full=1", nil, 200)
	ccEdge := doJSON(t, "GET", ts.URL+"/query/cc?shards=3&full=1&part=edge", nil, 200)
	if !reflect.DeepEqual(ccBlock["labels"], ccEdge["labels"]) {
		t.Fatal("cc labels diverge across partitions")
	}

	ssspBlock := doJSON(t, "GET", ts.URL+"/query/sssp?src=0&full=1&shards=4", nil, 200)
	ssspEdge := doJSON(t, "GET", ts.URL+"/query/sssp?src=0&full=1&shards=4&part=edge", nil, 200)
	if !reflect.DeepEqual(ssspBlock["dists"], ssspEdge["dists"]) {
		t.Fatal("sssp distances diverge across partitions")
	}

	// ?part= composes with ?mech=; bad values and partition without
	// sharding are rejected.
	doJSON(t, "GET", ts.URL+"/query/pagerank?iters=2&shards=2&part=edge&mech=lock", nil, 200)
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&shards=2&part=metis", nil, 400)
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&part=edge", nil, 400)
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&shards=1&part=edge", nil, 400)
}

// TestPprofGate pins the -pprof surface: absent by default, served when
// Config.EnablePprof is set.
func TestPprofGate(t *testing.T) {
	off, _ := newTestServer(t, nil, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	on, _ := newTestServer(t, nil, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index: status %d body %q", resp.StatusCode, body[:min(len(body), 80)])
	}
}
