package serve

import (
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aamgo/internal/algo"
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

// canonLabels rewrites a labeling to min-vertex-id labels: engines may
// pick different representatives, the partition is the invariant.
func canonLabels(labels []int32) []int32 {
	min := map[int32]int32{}
	for v, l := range labels {
		if _, ok := min[l]; !ok {
			min[l] = int32(v)
		}
	}
	out := make([]int32, len(labels))
	for v, l := range labels {
		out[v] = min[l]
	}
	return out
}

// bodyChecks attaches, by registry name, the sequential reference or
// validity checker a full=1 response body must satisfy on every engine;
// g is the served graph (weighted with wseed=1 for the weighted entries).
// The returned value must be identical across engines (nil: validity is
// all they share).
var bodyChecks = map[string]func(t *testing.T, g *graph.Graph, body map[string]any) any{
	"bfs": func(t *testing.T, g *graph.Graph, body map[string]any) any {
		ref := algo.SeqBFS(g, 0)
		parents := numbers[int64](t, body["parents"])
		if err := algo.ValidateBFSTree(g, 0, parents, ref); err != nil {
			t.Error(err)
		}
		reached, depth := 0, int32(0)
		for _, d := range ref {
			if d >= 0 {
				reached++
			}
			depth = max(depth, d)
		}
		if body["reached"].(float64) != float64(reached) {
			t.Errorf("reached %v, want %d", body["reached"], reached)
		}
		// The engines that report a depth agree with the reference, and
		// gblas's push/pull split adds up to it.
		if lv, ok := body["levels"]; ok && lv.(float64) != float64(depth) {
			t.Errorf("levels %v, want %d", lv, depth)
		}
		if steps, ok := body["gblas"].(map[string]any); ok && steps["push_steps"].(float64)+steps["pull_steps"].(float64) != float64(depth)+1 {
			t.Errorf("gblas step split %v inconsistent with depth %d", steps, depth)
		}
		return algo.BFSDepths(g, 0, parents)
	},
	"cc": func(t *testing.T, g *graph.Graph, body map[string]any) any {
		ref := algo.SeqComponents(g)
		labels := canonLabels(numbers[int32](t, body["labels"]))
		if !slices.Equal(labels, ref) {
			t.Error("component partition diverges from the sequential reference")
		}
		if body["components"].(float64) != float64(distinct(ref)) {
			t.Errorf("components %v, want %d", body["components"], distinct(ref))
		}
		return labels
	},
	"pagerank": func(t *testing.T, g *graph.Graph, body map[string]any) any {
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
	},
	"sssp": func(t *testing.T, g *graph.Graph, body map[string]any) any {
		dists := numbers[int64](t, body["dists"])
		reached := 0
		for v, d := range algo.SeqSSSP(g, 0) {
			if int64(d) != dists[v] { // MaxUint64 (unreachable) is -1 on the wire
				t.Fatalf("dist[%d] = %d, sequential reference %d", v, dists[v], int64(d))
			}
			if dists[v] >= 0 {
				reached++
			}
		}
		if body["reached"].(float64) != float64(reached) {
			t.Errorf("reached %v, want %d", body["reached"], reached)
		}
		return dists
	},
	"mst": func(t *testing.T, g *graph.Graph, body map[string]any) any {
		if want := algo.SeqMSTWeight(g); body["weight"].(float64) != float64(want) {
			t.Errorf("forest weight %v, sequential reference %d", body["weight"], want)
		}
		ref := algo.SeqComponents(g)
		if !slices.Equal(canonLabels(numbers[int32](t, body["labels"])), ref) {
			t.Error("forest components diverge from the sequential reference")
		}
		if comps := distinct(ref); body["components"].(float64) != float64(comps) || body["edges"].(float64) != float64(g.N-comps) {
			t.Errorf("components %v / edges %v, want %d / %d", body["components"], body["edges"], comps, g.N-comps)
		}
		return body["weight"]
	},
	"coloring": func(t *testing.T, g *graph.Graph, body map[string]any) any {
		colors := numbers[int32](t, body["per_vertex"])
		if !algo.ValidColoring(g, colors) {
			t.Error("coloring is not proper")
		}
		if body["colors"].(float64) != float64(slices.Max(colors))+1 {
			t.Errorf("%v colors reported, largest color is %d", body["colors"], slices.Max(colors))
		}
		return nil // the aam and shard heuristics color differently
	},
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
	s, ts := newRawServer(t, base, Config{C: 8})
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
		check, ok := bodyChecks[d.Name]
		if !ok {
			t.Errorf("registry entry %q has no body check attached", d.Name)
			continue
		}
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
				got := check(t, g, body)
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
