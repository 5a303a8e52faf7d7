package graph_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.json from the generators' current output")

const fingerprintFile = "testdata/fingerprints.json"

// fingerprint is FNV-64a over N, Directed, Offsets, Adj and Weights of a
// flat graph, little-endian, each array preceded by its length.
func fingerprint(g *graph.Graph) string {
	g = g.Flat()
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	word(uint64(g.N))
	if g.Directed {
		word(1)
	} else {
		word(0)
	}
	word(uint64(len(g.Offsets)))
	for _, o := range g.Offsets {
		word(uint64(o))
	}
	word(uint64(len(g.Adj)))
	for _, a := range g.Adj {
		word(uint64(uint32(a)))
	}
	word(uint64(len(g.Weights)))
	for _, w := range g.Weights {
		word(uint64(w))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// frozen is the graph a daemon serves: the generator's output through
// dyn.New (which sorts every adjacency segment) and Freeze.
func frozen(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	d, err := dyn.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return d.Freeze()
}

// TestGeneratorFingerprints pins every generator's output for a seed, array
// for array. Golden responses, BENCH_baseline.json's exact counts and
// aam.sim_txs all assume it; a change to the construction path must leave
// testdata/fingerprints.json as it is.
func TestGeneratorFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, seed := range []int64{1, 42} {
		gens := map[string]func() *graph.Graph{
			"Kronecker(9,8)":          func() *graph.Graph { return graph.Kronecker(9, 8, seed) },
			"KroneckerABC(8,4,.45)":   func() *graph.Graph { return graph.KroneckerABC(8, 4, 0.45, 0.25, 0.15, seed) },
			"WebGraph(9,6)":           func() *graph.Graph { return graph.WebGraph(9, 6, seed) },
			"ErdosRenyi(400,.02)":     func() *graph.Graph { return graph.ErdosRenyi(400, 0.02, seed) },
			"RoadGrid(24,17,.1)":      func() *graph.Graph { return graph.RoadGrid(24, 17, 0.1, seed) },
			"BarabasiAlbert(500,3)":   func() *graph.Graph { return graph.BarabasiAlbert(500, 3, seed) },
			"HubSpoke(600,4,3)":       func() *graph.Graph { return graph.HubSpoke(600, 4, 3, seed) },
			"CitationDAG(500,4)":      func() *graph.Graph { return graph.CitationDAG(500, 4, seed) },
			"Community(512,32,5,.1)":  func() *graph.Graph { return graph.Community(512, 32, 5, 0.1, seed) },
			"Kronecker(8,4)+weights":  func() *graph.Graph { return graph.AttachSymmetricWeights(graph.Kronecker(8, 4, seed), 7) },
			"RoadGrid(16,16)+weights": func() *graph.Graph { return graph.AttachSymmetricWeights(graph.RoadGrid(16, 16, 0.1, seed), 7) },
		}
		for name, gen := range gens {
			got[fmt.Sprintf("%s seed=%d", name, seed)] = fingerprint(gen())
		}
		for _, s := range graph.Table1Specs {
			got[fmt.Sprintf("Table1/%s>>9 seed=%d", s.ID, seed)] = fingerprint(s.Generate(9, seed))
		}
	}
	kron, road := graph.Kronecker(14, 16, 1), graph.RoadGrid(256, 256, 0.1, 1)
	got["Kronecker(14,16) seed=1 raw"] = fingerprint(kron)
	got["Kronecker(14,16) seed=1 frozen"] = fingerprint(frozen(t, kron))
	got["RoadGrid(256,256,.1) seed=1 raw"] = fingerprint(road)
	got["RoadGrid(256,256,.1) seed=1 frozen"] = fingerprint(frozen(t, road))
	got["RoadGrid(1024,1024,.1) seed=1 raw"] = fingerprint(graph.RoadGrid(1024, 1024, 0.1, 1)) // the benchmark's road20

	if *updateFingerprints {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/graph -run TestGeneratorFingerprints -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: recorded but no longer generated", name)
		} else if g != w {
			t.Errorf("%s: fingerprint %s, recorded %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: generated but not recorded", name)
		}
	}
}
