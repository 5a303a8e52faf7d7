package serve

import (
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/query"
	"aamgo/internal/shard"
)

// engineParams spells how each engine is selected on the URL.
var engineParams = map[string]string{
	query.EngineAAM:     "",
	query.EngineShard:   "&engine=shard&shards=4",
	query.EngineGBLAS:   "&engine=gblas",
	query.EngineCluster: "&engine=cluster&shards=4",
}

// baseQuery is the smallest valid URL of a registry entry: the path plus
// its required parameters.
func baseQuery(d *query.Descriptor) string {
	u := "/query/" + d.Name + "?full=1"
	for _, p := range d.Params {
		if p.Required {
			u += "&" + p.Name + "=0"
		}
	}
	return u
}

func numbers[T int32 | int64](t *testing.T, v any) []T {
	t.Helper()
	list, ok := v.([]any)
	if !ok {
		t.Fatalf("want a JSON array, got %T", v)
	}
	out := make([]T, len(list))
	for i, x := range list {
		out[i] = T(x.(float64))
	}
	return out
}

// answerOf rebuilds the uniform Result from a full=1 body: the vector
// under the descriptor's key and the scalars Verify reads.
func answerOf(t *testing.T, d *query.Descriptor, body map[string]any) query.Result {
	t.Helper()
	var res query.Result
	if w, ok := body["weight"]; ok {
		res.Weight = uint64(w.(float64))
	}
	switch d.VectorKey {
	case "parents":
		res.Parents = numbers[int64](t, body[d.VectorKey])
	case "dists": // MaxUint64 (unreachable) is -1 on the wire
		for _, x := range numbers[int64](t, body[d.VectorKey]) {
			res.Dists = append(res.Dists, uint64(x))
		}
	case "labels":
		res.Labels = numbers[int32](t, body[d.VectorKey])
	case "per_vertex":
		res.Colors, res.Used = numbers[int32](t, body[d.VectorKey]), int(body["colors"].(float64))
	default:
		t.Fatalf("%s: no Result field for the vector key %q", d.Name, d.VectorKey)
	}
	return res
}

func distinct(labels []int32) int {
	slices.Sort(labels)
	return len(slices.Compact(labels))
}

// checkBody holds a full=1 body over g (weighted with wseed=1 for the
// weighted entries) to the descriptor's Verify and its derived scalars to
// the sequential reference, and returns the value every engine must agree
// on. A body that lists no vector is PageRank's: its top list is checked
// here.
func checkBody(t *testing.T, d *query.Descriptor, g *graph.Graph, body map[string]any) any {
	want := func(key string, n int) {
		t.Helper()
		if body[key].(float64) != float64(n) {
			t.Errorf("%s %v, want %d", key, body[key], n)
		}
	}
	if d.VectorKey == "" {
		ref := algo.SeqPageRank(g, 0.85, 10)
		top := body["top"].([]any)
		if len(top) != 10 {
			t.Fatalf("top lists %d vertices, want the default 10", len(top))
		}
		for _, e := range top {
			e := e.(map[string]any)
			if d := e["rank"].(float64) - ref[int(e["v"].(float64))]; d > 1e-6 || d < -1e-6 {
				t.Errorf("rank of %v is %v, sequential reference %v", e["v"], e["rank"], ref[int(e["v"].(float64))])
			}
		}
		return top // bit-identical ranks make the list identical too
	}
	agree, err := d.Verify(g, query.Args{Iters: 10, Damping: 0.85}, answerOf(t, d, body))
	if err != nil {
		t.Error(err)
	}
	switch d.Name {
	case "bfs":
		reached, depth := 0, int32(0)
		for _, d := range algo.SeqBFS(g, 0) {
			if d >= 0 {
				reached++
			}
			depth = max(depth, d)
		}
		want("reached", reached)
		// The engines that report a depth agree with the reference, and
		// gblas's push/pull split adds up to it.
		if _, ok := body["levels"]; ok {
			want("levels", int(depth))
		}
		if steps, ok := body["gblas"].(map[string]any); ok && steps["push_steps"].(float64)+steps["pull_steps"].(float64) != float64(depth)+1 {
			t.Errorf("gblas step split %v inconsistent with depth %d", steps, depth)
		}
	case "sssp":
		reached := 0
		for _, d := range algo.SeqSSSP(g, 0) {
			if d != ^uint64(0) {
				reached++
			}
		}
		want("reached", reached)
	case "cc", "mst":
		comps := distinct(algo.SeqComponents(g))
		want("components", comps)
		if d.Name == "mst" {
			want("edges", g.N-comps)
		}
	}
	return agree
}

// TestEngineParam pins the ?engine= axis end to end, driven by the
// registry: every (algorithm, engine) pair — cluster included, over a
// real one-worker cluster — either answers 200 with the effective engine
// echoed in the body and the trace span and a body that satisfies the
// sequential reference and agrees with the other engines', or answers
// 400 with the exact not-implemented error.
func TestEngineParam(t *testing.T) {
	base := graph.Community(200, 10, 4, 0.05, 9)
	weighted := graph.AttachSymmetricWeights(base, 1)
	s, ts := newRawServer(t, base, Config{Tx: dyn.TxConfig{C: 8}})
	cl, err := shard.NewClusterOpts("127.0.0.1:0", 1, shard.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- shard.JoinCluster(cl.Addr()) }()
	if err := cl.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		if err := <-workerDone; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	})
	s.SetCluster(cl)

	for _, d := range query.Registry {
		g := base
		if d.Weighted {
			g = weighted
		}
		var want any
		for _, eng := range query.Engines {
			sel, ok := engineParams[eng]
			if !ok {
				t.Fatalf("engine %q has no URL spelling in engineParams", eng)
			}
			t.Run(d.Name+"/"+eng, func(t *testing.T) {
				url := ts.URL + baseQuery(d) + sel + "&trace=1"
				if d.Engines[eng] == nil {
					res := doJSON(t, "GET", url, nil, 400)
					if wantErr := d.NotImplemented(eng, strings.ToLower(d.Title)).Error(); res["error"] != wantErr {
						t.Fatalf("error %q, want %q", res["error"], wantErr)
					}
					return
				}
				body := doJSON(t, "GET", url, nil, 200)
				if body["engine"] != eng || body["trace"].(map[string]any)["engine"] != eng {
					t.Fatalf("engine echo: body %v, trace %v, want %s", body["engine"], body["trace"], eng)
				}
				got := checkBody(t, d, g, body)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s answer diverges from the %s engine's", d.Name, query.Engines[0])
				}
			})
		}
	}

	// ?shards=N alone implies engine=shard.
	if res := doJSON(t, "GET", ts.URL+"/query/sssp?src=0&shards=4", nil, 200); res["engine"] != "shard" {
		t.Fatalf("implicit shard engine echo: %v", res["engine"])
	}
}

// TestEngineParamValidation: every rejected combination answers 400 with
// a JSON {"error": ...} body (the contract aam-serve clients rely on) —
// on every registry entry, not a hand-picked one — and each parameter's
// NotOn rule answers its exact message.
func TestEngineParamValidation(t *testing.T) {
	base := graph.Community(60, 6, 4, 0.05, 3)
	ts, _ := newTestServer(t, base, Config{})
	reject := func(t *testing.T, url, wantMsg string) {
		t.Helper()
		res := doJSON(t, "GET", ts.URL+url, nil, 400)
		msg, ok := res["error"].(string)
		if !ok || msg == "" {
			t.Fatalf("missing JSON error body: %v", res)
		}
		if wantMsg != "" && msg != wantMsg {
			t.Fatalf("error %q, want %q", msg, wantMsg)
		}
	}
	for _, d := range query.Registry {
		u := baseQuery(d)
		t.Run(d.Name, func(t *testing.T) {
			for _, bad := range []string{
				"&engine=spark",          // unknown engine
				"&mech=nope",             // unknown mechanism, unsharded
				"&shards=2&mech=nope",    // … and sharded
				"&shards=2&part=metis",   // unknown partition
				"&engine=aam&shards=4",   // aam is unsharded
				"&engine=shard",          // shard needs ?shards=
				"&engine=shard&shards=1", // … of at least 2
				"&engine=gblas&shards=4", // gblas is unsharded
				"&engine=gblas&mech=lock",
				"&engine=cluster&shards=4", // no cluster attached
			} {
				reject(t, u+bad, "")
			}
			for _, eng := range query.Engines {
				if d.Engines[eng] == nil {
					reject(t, u+engineParams[eng], d.NotImplemented(eng, strings.ToLower(d.Title)).Error())
				}
			}
			for _, p := range d.Params {
				value := "4"
				if p.Parse == nil { // decoded by the daemon itself: ?mech=
					value = "occ"
				}
				for eng, msg := range p.NotOn {
					if eng != query.EngineCluster { // needs an attached cluster
						reject(t, u+engineParams[eng]+"&"+p.Name+"="+value, msg)
					}
				}
			}
		})
	}
	// The surviving combinations still work.
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&engine=aam&mech=lock", nil, 200)
	doJSON(t, "GET", ts.URL+"/query/cc?engine=shard&shards=2&mech=occ", nil, 200)
	doJSON(t, "GET", ts.URL+"/query/mst?engine=shard&shards=2", nil, 200)
}

// TestEngineLatencyMetric: a gblas query feeds the engine-labeled serve
// histogram surfaced on /metrics.
func TestEngineLatencyMetric(t *testing.T) {
	base := graph.Community(60, 6, 4, 0.05, 3)
	ts, _ := newTestServer(t, base, Config{})
	doJSON(t, "GET", ts.URL+"/query/bfs?src=0&engine=gblas", nil, 200)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `aam_serve_query_latency_ns{engine="gblas"`) {
		t.Fatal("gblas engine latency series missing from /metrics")
	}
	// The other engines' series exist from registration even without
	// traffic (a scrape sees the full label space).
	for _, eng := range []string{"aam", "shard", "cluster"} {
		if !strings.Contains(text, `aam_serve_query_latency_ns{engine="`+eng+`"`) {
			t.Fatalf("%s engine latency series missing from /metrics", eng)
		}
	}
}
