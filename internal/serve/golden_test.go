package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the server's current responses")

// goldenEntry is one recorded request/response pair.
type goldenEntry struct {
	Name    string `json:"name"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Request string `json:"request,omitempty"`
	Status  int    `json:"status"`
	Body    any    `json:"body"`
}

// goldenCase is one request of the table; afterClose cases run once the
// worker cluster has been closed (the in-process fallback path).
type goldenCase struct {
	file, name, method, path string
	afterClose               bool
	empty                    bool // run against the empty-graph, cluster-less server
	mutate                   bool // run against the server that takes the writes
	// body is the request body; shown, when set, is what the golden file
	// records in its place (a generated body too large to spell out).
	body, shown string
}

// goldenGraph is the fixed query graph: a 60-vertex community graph plus
// two isolated vertices and one detached edge, so unreachable markers
// (-1 parents and distances) and multiple components appear in the bodies.
func goldenGraph() *graph.Graph {
	c := graph.Community(60, 6, 4, 0.3, 3)
	b := graph.NewBuilder(64).Dedup()
	for u := 0; u < c.N; u++ {
		for _, v := range c.Neighbors(u) {
			if int32(u) < v {
				b.AddEdge(int32(u), v)
			}
		}
	}
	b.AddEdge(61, 62)
	return b.Build()
}

// goldenCases spells the table: every algorithm on every engine (cluster
// live and after Close) with full=0 and full=1 under trace=1, a few
// parameter variants per algorithm, every 4xx a query handler emits, and
// the mutation endpoints' responses.
func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(file, name, path string) {
		cases = append(cases, goldenCase{file: file, name: name, method: "GET", path: path})
	}
	algos := []struct{ name, params string }{
		{"bfs", "src=0"},
		{"cc", ""},
		{"pagerank", "iters=4&top=5"},
		{"sssp", "src=0"},
		{"mst", ""},
		{"coloring", ""},
	}
	engines := []struct{ name, params string }{
		{"aam", ""},
		{"shard", "engine=shard&shards=4"},
		{"gblas", "engine=gblas"},
		{"cluster", "engine=cluster&shards=4"},
	}
	join := func(parts ...string) string {
		var nz []string
		for _, p := range parts {
			if p != "" {
				nz = append(nz, p)
			}
		}
		return strings.Join(nz, "&")
	}
	for _, a := range algos {
		for _, e := range engines {
			for _, full := range []string{"0", "1"} {
				add(a.name, e.name+"/full="+full,
					"/query/"+a.name+"?"+join(a.params, e.params, "full="+full, "trace=1"))
			}
		}
		for _, full := range []string{"0", "1"} {
			cases = append(cases, goldenCase{
				file: a.name, name: "cluster-closed/full=" + full, method: "GET",
				path:       "/query/" + a.name + "?" + join(a.params, "engine=cluster&shards=4", "full="+full, "trace=1"),
				afterClose: true,
			})
		}
		cases = append(cases, goldenCase{file: a.name, name: "wrong method", method: "POST", path: "/query/" + a.name + "?" + a.params})
	}

	// Parameter variants: the knobs each handler reads beyond the defaults.
	add("bfs", "aam mech=lock", "/query/bfs?src=7&mech=lock&full=1")
	add("bfs", "implicit shard, part=edge", "/query/bfs?src=7&shards=3&part=edge&mech=atomic&trace=1")
	add("bfs", "untraced", "/query/bfs?src=61")
	add("bfs", "shards=1 is aam", "/query/bfs?src=0&shards=1")
	add("cc", "shard mech=occ", "/query/cc?shards=2&mech=occ&full=1")
	add("pagerank", "defaults", "/query/pagerank")
	add("pagerank", "damping", "/query/pagerank?iters=3&damping=0.5&top=64&engine=gblas")
	add("pagerank", "shard top=1", "/query/pagerank?iters=2&top=1&shards=2")
	add("sssp", "wseed", "/query/sssp?src=3&wseed=7&full=1")
	add("sssp", "shard delta", "/query/sssp?src=3&wseed=7&delta=8&shards=4&full=1")
	add("sssp", "cluster delta", "/query/sssp?src=3&delta=1000&engine=cluster&shards=2")
	add("sssp", "gblas wseed", "/query/sssp?src=61&wseed=9&engine=gblas&full=1")
	add("mst", "wseed", "/query/mst?wseed=5")
	add("mst", "shard wseed", "/query/mst?wseed=5&shards=2&full=1")
	add("coloring", "shard seed", "/query/coloring?shards=4&seed=5&full=1")
	add("coloring", "cluster seed", "/query/coloring?engine=cluster&shards=2&seed=9")
	add("coloring", "aam mech", "/query/coloring?mech=flatcomb")

	// Every 4xx, including which of two errors wins.
	for _, e := range []struct{ name, path string }{
		{"bfs missing src", "/query/bfs"},
		{"bfs bad src", "/query/bfs?src=abc"},
		{"bfs negative src", "/query/bfs?src=-1"},
		{"bfs src == n", "/query/bfs?src=64"},
		{"bfs bad src beats bad engine", "/query/bfs?src=abc&engine=spark"},
		{"sssp bad src", "/query/sssp?src=1.5"},
		{"sssp src out of range", "/query/sssp?src=100&engine=gblas"},
		{"sssp bad wseed", "/query/sssp?src=0&wseed=-3"},
		{"sssp bad delta", "/query/sssp?src=0&delta=x"},
		{"sssp bad delta beats gblas delta", "/query/sssp?src=0&delta=x&engine=gblas"},
		{"sssp gblas delta", "/query/sssp?src=0&delta=4&engine=gblas"},
		{"sssp aam delta", "/query/sssp?src=0&delta=4"},
		{"sssp bad wseed beats bad engine", "/query/sssp?src=0&wseed=q&engine=spark"},
		{"pagerank bad iters", "/query/pagerank?iters=abc"},
		{"pagerank zero iters", "/query/pagerank?iters=0"},
		{"pagerank iters too large", "/query/pagerank?iters=1001"},
		{"pagerank bad damping", "/query/pagerank?damping=abc"},
		{"pagerank damping 0", "/query/pagerank?damping=0"},
		{"pagerank damping 1", "/query/pagerank?damping=1"},
		{"pagerank bad top", "/query/pagerank?top=abc"},
		{"pagerank top 0", "/query/pagerank?top=0"},
		{"pagerank top > n aam", "/query/pagerank?top=65"},
		{"pagerank top > n shard", "/query/pagerank?top=65&shards=2"},
		{"pagerank top > n gblas", "/query/pagerank?top=65&engine=gblas"},
		{"pagerank top > n cluster", "/query/pagerank?top=65&engine=cluster&shards=2"},
		{"pagerank bad engine beats top > n", "/query/pagerank?top=65&engine=spark"},
		{"pagerank bad iters beats bad damping", "/query/pagerank?iters=0&damping=7"},
		{"mst bad wseed", "/query/mst?wseed=abc"},
		{"mst bad wseed beats gblas", "/query/mst?wseed=abc&engine=gblas"},
		{"coloring bad seed", "/query/coloring?seed=-1"},
		{"coloring seed unsharded", "/query/coloring?seed=3"},
		{"coloring seed with shards=1", "/query/coloring?seed=3&shards=1"},
		{"coloring gblas beats seed unsharded", "/query/coloring?seed=3&engine=gblas"},
		{"mst aam atomic", "/query/mst?mech=atomic"},
		{"coloring aam atomic", "/query/coloring?mech=atomic"},
		{"cc mech unsharded", "/query/cc?mech=occ"},
		{"cc bad mech beats gblas", "/query/cc?engine=gblas&mech=tsx"},
		{"unknown engine", "/query/bfs?src=0&engine=spark"},
		{"unknown mech", "/query/bfs?src=0&mech=tsx"},
		{"unknown mech sharded", "/query/cc?shards=2&mech=tsx"},
		{"part without shards", "/query/bfs?src=0&part=edge"},
		{"part with shards=1", "/query/bfs?src=0&shards=1&part=edge"},
		{"unknown part", "/query/bfs?src=0&shards=2&part=metis"},
		{"bad shards", "/query/bfs?src=0&shards=abc"},
		{"shards 0", "/query/bfs?src=0&shards=0"},
		{"shards too large", "/query/bfs?src=0&shards=100000"},
		{"aam with shards", "/query/bfs?src=0&engine=aam&shards=4"},
		{"shard without shards", "/query/mst?engine=shard"},
		{"shard with shards=1", "/query/coloring?engine=shard&shards=1"},
		{"gblas with shards", "/query/sssp?src=0&engine=gblas&shards=4"},
		{"gblas with mech", "/query/pagerank?engine=gblas&mech=lock"},
		{"cluster without shards", "/query/cc?engine=cluster"},
		{"cluster with shards=1", "/query/bfs?src=0&engine=cluster&shards=1"},
	} {
		add("errors", e.name, e.path)
	}

	// The empty graph (no cluster attached): mst and coloring answer
	// N == 0 without running, everything else validates against n = 0.
	for _, e := range []struct{ name, path string }{
		{"graph", "/graph?trace=1"},
		{"bfs", "/query/bfs?src=0"},
		{"sssp", "/query/sssp?src=0"},
		{"cc", "/query/cc?full=1&trace=1"},
		{"cc shard", "/query/cc?shards=2&full=1"},
		{"pagerank", "/query/pagerank"},
		{"pagerank top", "/query/pagerank?top=1"},
		{"pagerank shard", "/query/pagerank?shards=2"},
		{"pagerank gblas", "/query/pagerank?engine=gblas"},
		{"mst", "/query/mst?full=1&trace=1"},
		{"mst shard", "/query/mst?shards=2&full=1"},
		{"coloring", "/query/coloring?full=1&trace=1"},
		{"coloring shard", "/query/coloring?shards=2&full=1"},
		{"cluster not attached", "/query/cc?engine=cluster&shards=2"},
	} {
		cases = append(cases, goldenCase{file: "empty", name: e.name, method: "GET", path: e.path, empty: true})
	}
	return append(cases, mutationCases()...)
}

// mutationCases spells every /edges and /vertices response and error, in
// order, against a fresh server over goldenGraph (vertices 60 and 63 are
// isolated, so edges to them are new): applied, rejected and redundant
// rows, each ?mech=, and every 4xx. One over-cap body (a 413) keeps the
// table's -race time down; the per-endpoint caps are TestMalformedRequests'.
func mutationCases() []goldenCase {
	var cases []goldenCase
	add := func(name, method, path, body string) {
		cases = append(cases, goldenCase{file: "mutations", name: name, method: method, path: path, body: body, mutate: true})
	}
	add("add applied", "POST", "/edges", `{"edges":[[0,63],[1,63]]}`)
	add("add rejected", "POST", "/edges", `{"edges":[[0,63]]}`)
	add("add redundant", "POST", "/edges", `{"edges":[[2,63],[63,2]]}`)
	add("add applied and rejected", "POST", "/edges", `{"edges":[[0,63],[3,63]]}`)
	for i, mech := range []string{"htm", "atomic", "lock", "occ", "flatcomb"} {
		add("add mech="+mech, "POST", "/edges?mech="+mech, fmt.Sprintf(`{"edges":[[%d,60]]}`, i))
	}
	add("delete applied", "DELETE", "/edges", `{"edges":[[0,63]]}`)
	add("delete rejected", "DELETE", "/edges", `{"edges":[[0,63]]}`)
	add("delete redundant", "DELETE", "/edges", `{"edges":[[1,63],[63,1]]}`)
	add("delete mech=occ", "DELETE", "/edges?mech=occ", `{"edges":[[0,60]]}`)
	add("add unknown mech", "POST", "/edges?mech=tsx", `{"edges":[[4,60]]}`)
	add("delete unknown mech", "DELETE", "/edges?mech=tsx", `{"edges":[[1,60]]}`)
	add("add out of range", "POST", "/edges", `{"edges":[[0,64]]}`)
	add("add self loop", "POST", "/edges", `{"edges":[[5,5]]}`)
	add("delete out of range", "DELETE", "/edges", `{"edges":[[-1,2]]}`)
	add("edges wrong method", "GET", "/edges", "")
	add("edges PUT", "PUT", "/edges", `{"edges":[[0,63]]}`)
	add("add bad JSON", "POST", "/edges", `{nope`)
	add("delete bad JSON", "DELETE", "/edges", `]`)
	add("add 0 edges", "POST", "/edges", `{"edges":[]}`)
	add("add no edges key", "POST", "/edges", `{}`)
	add("delete 0 edges", "DELETE", "/edges", `{"edges":[]}`)
	cases = append(cases, goldenCase{
		file: "mutations", name: "add 2^20+1 edges", method: "POST", path: "/edges", mutate: true,
		body:  `{"edges":[` + strings.Repeat("[0,1],", maxMutationBatch) + `[0,1]]}`,
		shown: `{"edges":[[0,1] × 1048577]}`,
	})
	add("vertices applied", "POST", "/vertices", `{"count":2}`)
	add("vertices mech=lock", "POST", "/vertices?mech=lock", `{"count":1}`)
	add("vertices then edge", "POST", "/edges", `{"edges":[[64,66]]}`)
	add("vertices unknown mech", "POST", "/vertices?mech=tsx", `{"count":1}`)
	add("vertices count 0", "POST", "/vertices", `{"count":0}`)
	add("vertices no count", "POST", "/vertices", `{}`)
	add("vertices count -1", "POST", "/vertices", `{"count":-1}`)
	add("vertices count over cap", "POST", "/vertices", `{"count":1048577}`)
	add("vertices bad JSON", "POST", "/vertices", `{`)
	add("vertices wrong method", "GET", "/vertices", "")
	cases = append(cases, goldenCase{
		file: "mutations", name: "vertices body over cap", method: "POST", path: "/vertices", mutate: true,
		body:  `{"count":` + strings.Repeat(" ", maxMutationBody) + `1}`,
		shown: `{"count":<32 MiB of spaces>1}`,
	})
	return cases
}

// normalizeGolden zeroes the wall-clock fields of a decoded body: the
// top-level wall_time_ns and the trace span's *_ns stage times. Everything
// else — counters, machine (virtual) time, vectors, error text — is pinned.
func normalizeGolden(body any) {
	m, ok := body.(map[string]any)
	if !ok {
		return
	}
	if _, ok := m["wall_time_ns"]; ok {
		m["wall_time_ns"] = json.Number("0")
	}
	if tr, ok := m["trace"].(map[string]any); ok {
		for k := range tr {
			if strings.HasSuffix(k, "_ns") {
				tr[k] = json.Number("0")
			}
		}
	}
}

func goldenFetch(t *testing.T, base string, c goldenCase) goldenEntry {
	t.Helper()
	req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep every numeric literal exactly as the server wrote it
	var body any
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("%s %s: body is not JSON: %v: %q", c.method, c.path, err, raw)
	}
	normalizeGolden(body)
	shown := c.body
	if c.shown != "" {
		shown = c.shown
	}
	return goldenEntry{Name: c.name, Method: c.method, Path: c.path, Request: shown, Status: resp.StatusCode, Body: body}
}

// TestGoldenResponses pins the HTTP surface byte for byte: the recorded
// status and body of every case in goldenCases must match
// testdata/golden/<file>.json (regenerate with -update). GOMAXPROCS is
// fixed for the run because the ?shards= bound in one error message is
// derived from it.
func TestGoldenResponses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// Cache off: the cluster and cluster-closed cases share URLs and epoch.
	s, ts := newRawServer(t, goldenGraph(), Config{Tx: dyn.TxConfig{C: 8}, CacheBytes: -1})
	emptyTS, _ := newTestServer(t, graph.NewBuilder(0).Build(), Config{CacheBytes: -1})
	mutTS, _ := newTestServer(t, goldenGraph(), Config{})

	cl, err := shard.NewClusterOpts("127.0.0.1:0", 1, shard.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- shard.JoinCluster(cl.Addr()) }()
	if err := cl.Accept(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s.SetCluster(cl)

	cases := goldenCases()
	got := map[string][]goldenEntry{}
	var files []string
	run := func(afterClose bool) {
		for _, c := range cases {
			if c.afterClose != afterClose {
				continue
			}
			base := ts.URL
			switch {
			case c.empty:
				base = emptyTS.URL
			case c.mutate:
				base = mutTS.URL
			}
			if _, seen := got[c.file]; !seen {
				files = append(files, c.file)
			}
			got[c.file] = append(got[c.file], goldenFetch(t, base, c))
		}
	}
	run(false)
	cl.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	run(true)

	for _, file := range files {
		path := filepath.Join("testdata", "golden", file+".json")
		// One compact line per case keeps a diff of the file a list of the
		// cases that changed.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		for i, e := range got[file] {
			if i == 0 {
				buf.WriteString("[\n")
			} else {
				buf.WriteString(",\n")
			}
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
			buf.Truncate(buf.Len() - 1) // Encode's newline
		}
		buf.WriteString("\n]\n")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test -run TestGoldenResponses -update ./internal/serve)", err)
		}
		if bytes.Equal(want, buf.Bytes()) {
			continue
		}
		// Name the first diverging entry instead of dumping the file.
		var wantEntries []goldenEntry
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.UseNumber()
		if err := dec.Decode(&wantEntries); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(wantEntries) != len(got[file]) {
			t.Errorf("%s: %d recorded cases, table has %d", path, len(wantEntries), len(got[file]))
			continue
		}
		for i, g := range got[file] {
			gb, _ := json.Marshal(g)
			wb, _ := json.Marshal(wantEntries[i])
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: case %q (%s %s) diverges\n got: %s\nwant: %s", path, g.Name, g.Method, g.Path, gb, wb)
			}
		}
	}
}
