package query

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/run"
	"aamgo/internal/shard"
)

// TestRegistryShape pins what the registry's users rely on: unique names,
// Verify and Summary and aam and shard on every entry (NotImplemented's "use aam or shard" hint),
// one shared run func behind the shard and cluster engines, and a cluster
// column that is exactly internal/shard's wire job table.
func TestRegistryShape(t *testing.T) {
	var clustered []string
	for _, d := range Registry {
		if Lookup(d.Name) != d {
			t.Errorf("%s: Lookup does not return the entry (duplicate name?)", d.Name)
		}
		if d.Title == "" || d.Engines[EngineAAM] == nil || d.Engines[EngineShard] == nil {
			t.Errorf("%s: needs a Title and the aam and shard engines", d.Name)
		}
		if d.Verify == nil || d.Summary == nil {
			t.Errorf("%s: needs Verify and Summary", d.Name)
		}
		for eng := range d.Engines {
			if !slices.Contains(Engines, eng) {
				t.Errorf("%s: unknown engine %q", d.Name, eng)
			}
		}
		if c := d.Engines[EngineCluster]; c != nil {
			clustered = append(clustered, d.Name)
			if reflect.ValueOf(c).Pointer() != reflect.ValueOf(d.Engines[EngineShard]).Pointer() {
				t.Errorf("%s: the cluster engine must share the shard run func", d.Name)
			}
		}
	}
	slices.Sort(clustered)
	if jobs := shard.JobNames(); !slices.Equal(clustered, jobs) {
		t.Errorf("cluster engines %v, wire job table %v", clustered, jobs)
	}
	if Lookup("triangles") != nil {
		t.Error("Lookup invented an entry")
	}
}

// TestDecodeAndCheck walks the parameter rules through the registry's own
// entry points: defaults, the required source and its range, per-engine
// rejections, and the bound that waits for the engine.
func TestDecodeAndCheck(t *testing.T) {
	get := func(kv map[string]string) func(string) string {
		return func(k string) string { return kv[k] }
	}
	pr := Lookup("pagerank")
	a, err := pr.Decode(get(nil), 50)
	if err != nil || a.Iters != 10 || a.Damping != 0.85 || a.Top != 10 {
		t.Fatalf("pagerank defaults: %+v, %v", a, err)
	}
	given := get(map[string]string{"top": "60", "iters": "3"})
	if a, err = pr.Decode(given, 50); err != nil || a.Top != 60 || a.Iters != 3 {
		t.Fatalf("pagerank decode: %+v, %v", a, err)
	}
	if err := pr.Check(EngineGBLAS, given, a, 50); err == nil || err.Error() != "top 60 out of range [1,50]" {
		t.Fatalf("top bound: %v", err)
	}
	if err := pr.Check(EngineGBLAS, get(nil), a, 50); err != nil {
		t.Fatalf("a defaulted top is never out of range: %v", err)
	}

	sssp := Lookup("sssp")
	for _, c := range []struct {
		kv   map[string]string
		want string
	}{
		{nil, `bad src: strconv.Atoi: parsing "": invalid syntax`},
		{map[string]string{"src": "9"}, "src 9 out of range [0,9)"},
		{map[string]string{"src": "0", "wseed": "-1"}, `bad wseed "-1"`},
		{map[string]string{"src": "0", "delta": "1e3"}, `bad delta "1e3"`},
	} {
		if _, err := sssp.Decode(get(c.kv), 9); err == nil || err.Error() != c.want {
			t.Errorf("sssp %v: error %v, want %q", c.kv, err, c.want)
		}
	}
	given = get(map[string]string{"src": "3", "delta": "8"})
	if a, err = sssp.Decode(given, 9); err != nil || a.Src != 3 || a.Delta != 8 || a.WSeed != 1 {
		t.Fatalf("sssp decode: %+v, %v", a, err)
	}
	if err := sssp.Check(EngineGBLAS, given, a, 9); err == nil {
		t.Fatal("delta accepted on gblas")
	}
	if err := sssp.Check(EngineShard, given, a, 9); err != nil {
		t.Fatalf("delta rejected on shard: %v", err)
	}
}

// TestClusterMatchesShard runs every clustered entry over a real
// one-worker loopback cluster and in-process: the uniform Results must be
// identical field for field (engine blocks aside), which is what lets the
// daemon fall back from one to the other mid-request, and both satisfy
// the descriptor's Verify.
func TestClusterMatchesShard(t *testing.T) {
	c, err := shard.NewCluster("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- shard.JoinCluster(c.Addr()) }()
	if err := c.Accept(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		if err := <-done; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}()
	g := graph.AttachSymmetricWeights(graph.Kronecker(8, 8, 3), 5)
	args := Args{Src: 1, Iters: 5, Damping: 0.85, Seed: 7}
	env := Env{Shard: shard.Config{Shards: 4, BatchSize: 16}, Cluster: c}
	for _, d := range Registry {
		if d.Engines[EngineCluster] == nil {
			if _, err := d.Run(EngineCluster, g, args, env); err == nil || err.Error() != d.NotImplemented(EngineCluster, d.Title).Error() {
				t.Errorf("%s on cluster: error %v", d.Name, err)
			}
			continue
		}
		dist, err := d.Run(EngineCluster, g, args, env)
		if err != nil {
			t.Fatalf("%s on cluster: %v", d.Name, err)
		}
		local, err := d.Run(EngineShard, g, args, env)
		if err != nil {
			t.Fatalf("%s on shard: %v", d.Name, err)
		}
		if dist.Shard == nil || local.Shard == nil || dist.Shard.Totals().WireBatchesSent == 0 || local.Shard.Totals().WireBatchesSent != 0 {
			t.Errorf("%s: the cluster run must cross the wire and the shard run must not", d.Name)
		}
		// Parents race benignly, so they are compared as what Verify says
		// every run agrees on (the depths); the rest field for field.
		var agree [2]any
		for i, r := range []*Result{&dist, &local} {
			if agree[i], err = d.Verify(g, args, *r); err != nil {
				t.Errorf("%s: %v", d.Name, err)
			}
			r.Parents, r.Shard = nil, nil
		}
		if !reflect.DeepEqual(dist, local) || !reflect.DeepEqual(agree[0], agree[1]) {
			t.Errorf("%s: cluster and shard results differ", d.Name)
		}
	}
}

// TestRunAAMOnBothRuntimes: the shared machine stanza honours Env.Runtime.
func TestRunAAMOnBothRuntimes(t *testing.T) {
	g := graph.Kronecker(6, 4, 1)
	prof, err := exec.ProfileByName("has-c")
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for _, rt := range []string{"sim", "native"} {
		res, err := Lookup("cc").Run(EngineAAM, g, Args{}, Env{Runtime: rt, Profile: &prof, Nodes: 1, Threads: 2, Seed: 1})
		if err != nil || res.AAM == nil || res.AAM.Elapsed <= 0 {
			t.Fatalf("%s: %+v, %v", rt, res.AAM, err)
		}
		if want == nil {
			want = res.Labels
		} else if !slices.Equal(res.Labels, want) {
			t.Fatalf("%s labels diverge from sim's", rt)
		}
	}
}

// TestAAMCellsUnderEveryMechanism runs every aam cell of Registry under
// every isolation mechanism on one and two nodes and holds each answer to
// the cell's Verify. Boruvka and Boman's coloring run on one node whatever
// Env.Nodes says, and have no atomic body: atomic is an error, not a run.
func TestAAMCellsUnderEveryMechanism(t *testing.T) {
	prof := exec.HaswellC()
	for _, seed := range []int64{3, 5, 8} {
		g := graph.AttachSymmetricWeights(graph.Kronecker(9, 8, seed), uint64(seed))
		args := Args{Src: g.MaxDegreeVertex(), Iters: 2, Damping: 0.85}
		for _, d := range Registry {
			oneNode := d.Name == "mst" || d.Name == "coloring"
			for mech := aam.MechHTM; mech <= aam.MechFlatCombining; mech++ {
				for nodes := 1; nodes <= 2 && !(oneNode && nodes > 1); nodes++ {
					name := fmt.Sprintf("%s s=%d %v nodes=%d", d.Name, seed, mech, nodes)
					env := Env{Runtime: run.Sim, Profile: &prof, Nodes: nodes, Threads: 4, Seed: 7,
						AAM: aam.Config{M: 4, C: 8, Mechanism: mech}}
					res, err := d.Run(EngineAAM, g, args, env)
					if oneNode && mech == aam.MechAtomic {
						if want := errNoAtomic(d.Name); err == nil || err.Error() != want.Error() {
							t.Errorf("%s: error %v, want %v", name, err, want)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := d.Verify(g, args, res); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// fault is one planted wrong answer: plant corrupts a private copy of a
// correct Result and reports false when g offers no place to plant it.
type fault struct {
	algo, what string
	plant      func(g *graph.Graph, a Args, res *Result) bool
}

func adjacent(g *graph.Graph, u, v int) bool {
	return slices.Contains(g.Neighbors(u), int32(v))
}

// mergeLabels relabels one component with another's label.
func mergeLabels(_ *graph.Graph, _ Args, res *Result) bool {
	for _, from := range res.Labels {
		if to := res.Labels[0]; from != to {
			for i, l := range res.Labels {
				if l == from {
					res.Labels[i] = to
				}
			}
			return true
		}
	}
	return false
}

var faults = []fault{
	{"bfs", "a parent that is not a neighbour", func(g *graph.Graph, a Args, res *Result) bool {
		depth := algo.SeqBFS(g, a.Src)
		for v := range depth {
			for p := range depth {
				if depth[v] > 0 && depth[p] == depth[v]-1 && !adjacent(g, p, v) {
					res.Parents[v] = int64(p)
					return true
				}
			}
		}
		return false
	}},
	{"bfs", "a parent one level too deep", func(g *graph.Graph, a Args, res *Result) bool {
		depth := algo.SeqBFS(g, a.Src)
		for v := range depth {
			for _, w := range g.Neighbors(v) {
				if depth[v] > 0 && int(w) != v && depth[w] == depth[v] {
					res.Parents[v] = int64(w)
					return true
				}
			}
		}
		return false
	}},
	{"pagerank", "one rank off by 2^-20", func(_ *graph.Graph, _ Args, res *Result) bool {
		res.Ranks[len(res.Ranks)/2] += 1.0 / (1 << 20)
		return true
	}},
	{"sssp", "one distance +1", func(_ *graph.Graph, a Args, res *Result) bool {
		res.Dists[a.Src]++
		return true
	}},
	{"cc", "two components' labels merged", mergeLabels},
	{"mst", "two components' labels merged", mergeLabels},
	{"mst", "forest weight +1", func(_ *graph.Graph, _ Args, res *Result) bool {
		res.Weight++
		return true
	}},
	{"coloring", "a vertex given its neighbour's colour", func(g *graph.Graph, _ Args, res *Result) bool {
		for v := 0; v < g.N; v++ {
			for _, w := range g.Neighbors(v) {
				if int(w) != v {
					res.Colors[v] = res.Colors[w]
					return true
				}
			}
		}
		return false
	}},
	{"coloring", "Used off by one", func(_ *graph.Graph, _ Args, res *Result) bool {
		res.Used++
		return true
	}},
}

// TestVerifyRejectsWrongAnswers: on every engine a descriptor declares the
// correct Result passes its check and all engines agree, and every planted
// fault fails it — a checker that always passes must not pass.
func TestVerifyRejectsWrongAnswers(t *testing.T) {
	prof, err := exec.ProfileByName("has-c")
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Runtime: "sim", Profile: &prof, Nodes: 1, Threads: 2, Seed: 1,
		AAM:   aam.Config{M: 16, C: 64, HTM: prof.HTMVariant("")},
		Shard: shard.Config{Shards: 4, BatchSize: 16}}
	kron := graph.AttachSymmetricWeights(graph.Kronecker(8, 8, 3), 5)
	road := graph.AttachSymmetricWeights(graph.RoadGrid(16, 16, .1, 4), 6)
	planted := map[string]bool{}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
		src  int
	}{{"kron", kron, kron.MaxDegreeVertex()}, {"road", road, 0}} {
		args := Args{Src: gc.src, Iters: 10, Damping: 0.85, Seed: 7}
		for _, d := range Registry {
			var want any
			for _, eng := range Engines {
				if d.Engines[eng] == nil {
					continue
				}
				name := d.Name + "/" + gc.name + "/" + eng
				res, err := d.Run(eng, gc.g, args, env)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				agree, err := d.Verify(gc.g, args, res)
				if err != nil {
					t.Fatalf("%s: the correct answer is rejected: %v", name, err)
				}
				if want == nil {
					want = agree
				} else if !reflect.DeepEqual(agree, want) {
					t.Fatalf("%s: answer diverges from the %s engine's", name, Engines[0])
				}
				for _, f := range faults {
					if f.algo != d.Name {
						continue
					}
					bad := res
					bad.Parents, bad.Ranks, bad.Dists = slices.Clone(res.Parents), slices.Clone(res.Ranks), slices.Clone(res.Dists)
					bad.Labels, bad.Colors = slices.Clone(res.Labels), slices.Clone(res.Colors)
					if !f.plant(gc.g, args, &bad) {
						continue
					}
					planted[f.algo+": "+f.what] = true
					if got, err := d.Verify(gc.g, args, bad); err == nil && reflect.DeepEqual(got, agree) {
						t.Errorf("%s: %s passes", name, f.what)
					}
				}
			}
		}
	}
	for _, f := range faults {
		if !planted[f.algo+": "+f.what] {
			t.Errorf("%s: %s was planted on no graph", f.algo, f.what)
		}
	}
}

// TestRunAAMSizesForItsThreads pins the machine RunAAM builds for each aam
// program: every node holds exactly p.MemWordsFor(e.Threads) words, and
// the program runs in them under flat combining at a T whose combining
// structure (1+2T words) outgrows a node's vertex block.
func TestRunAAMSizesForItsThreads(t *testing.T) {
	g := graph.AttachSymmetricWeights(graph.Kronecker(6, 4, 1), 3)
	prof := exec.BGQ()
	e := Env{Runtime: "sim", Profile: &prof, Nodes: 2, Threads: 16, Seed: 1,
		AAM: aam.Config{M: 4, Mechanism: aam.MechFlatCombining}}
	type aamRun struct {
		nodes int
		p     aam.Sizer
		body  func(exec.Context)
	}
	// One row per aam cell of Registry, built as the cell builds it, plus
	// the two programs the aamgo façade runs through RunAAM directly.
	programs := map[string]func() aamRun{
		"bfs": func() aamRun {
			b := algo.NewBFS(g, e.Nodes, algo.BFSConfig{Mode: algo.BFSAAM, Engine: e.AAM, VisitedCheck: true})
			return aamRun{e.Nodes, b, b.Body(0)}
		},
		"cc": func() aamRun { c := gblas.NewCC(g, e.Nodes, e.AAM); return aamRun{e.Nodes, c, c.Body()} },
		"pagerank": func() aamRun {
			p := algo.NewPageRank(g, e.Nodes, algo.PRConfig{Engine: e.AAM})
			return aamRun{e.Nodes, p, p.Body()}
		},
		"sssp":     func() aamRun { s := gblas.NewSSSP(g, e.Nodes, e.AAM); return aamRun{e.Nodes, s, s.Body(0)} },
		"mst":      func() aamRun { b := algo.NewBoruvka(g); return aamRun{1, b, b.Body(e.AAM)} },
		"coloring": func() aamRun { c := algo.NewColoring(g); return aamRun{1, c, c.Body(e.AAM, 0)} },
		"maxflow":  func() aamRun { f := algo.NewMaxFlow(g); return aamRun{1, f, f.Body(0, g.N-1, e.AAM)} },
		"stconn": func() aamRun {
			s := algo.NewSTConn(g, e.Nodes)
			return aamRun{e.Nodes, s, s.Body(0, g.N-1, e.AAM)}
		},
	}
	for _, d := range Registry {
		if d.Engines[EngineAAM] != nil && programs[d.Name] == nil {
			t.Errorf("%s: an aam cell with no row here", d.Name)
		}
	}
	for name, mk := range programs {
		r := mk()
		m, _ := e.RunAAM(r.nodes, r.p, r.body)
		want := r.p.MemWordsFor(e.Threads)
		for n := range r.nodes {
			if got := len(m.Mem(n)); got != want {
				t.Errorf("%s: node %d holds %d words, MemWordsFor(%d) = %d", name, n, got, e.Threads, want)
			}
		}
	}
}
