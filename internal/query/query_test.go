package query

import (
	"reflect"
	"slices"
	"testing"

	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
)

// TestRegistryShape pins what the registry's users rely on: unique names,
// aam and shard on every entry (NotImplemented's "use aam or shard" hint),
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
// daemon fall back from one to the other mid-request. The façade's
// TestCrossEngineEquivalence holds the shard engine to the sequential
// references.
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
		if d.Name == "bfs" { // parents race benignly; the depth is the invariant
			dist.Parents, local.Parents = nil, nil
		}
		dist.Shard, local.Shard = nil, nil
		if !reflect.DeepEqual(dist, local) {
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
