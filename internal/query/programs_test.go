package query

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

var updatePrograms = flag.Bool("update", false, "rewrite testdata/programs.golden from the programs' current runs")

// programRun is one pinned simulator run: a program built for nodes, its
// SPMD body, and the machine shape it runs on.
type programRun struct {
	name  string
	nodes int
	build func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context))
}

// memHash is FNV-64a over every word of every node's memory, little-endian.
func memHash(m exec.Machine, nodes int) uint64 {
	h := fnv.New64a()
	var buf []byte
	for n := range nodes {
		buf = buf[:0]
		for _, w := range m.Mem(n) {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// TestProgramFingerprints pins every simulated operation of the
// AAM programs (algo.BFS in its three modes, MaxFlow, Coloring, STConn on
// a near and a far pair, PageRank, Boruvka, and gblas.System's BFS, SSSP,
// PageRank and CC): one line per run holds the virtual time, the merged
// stats.Total counters and a hash of every node's memory after the run, on
// has-c and bgq, under every mechanism the program supports, on one node
// and, for the distributed programs, on two. The simulator is
// deterministic, so a change that reorders, adds or drops one load, store,
// atomic or transactional access shows as a diff that names the run.
func TestProgramFingerprints(t *testing.T) {
	g := graph.Kronecker(8, 8, 5)
	wg := graph.AttachSymmetricWeights(g, 11)
	src := g.MaxDegreeVertex()
	dist := algo.SeqBFS(g, src)
	near, far := -1, src
	for v, d := range dist {
		if d == 2 && near < 0 {
			near = v
		}
		if d > dist[far] {
			far = v
		}
	}
	bfs := func(mode algo.BFSMode, check bool) func(int, aam.Config) (aam.Sizer, func(exec.Context)) {
		return func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			b := algo.NewBFS(g, nodes, algo.BFSConfig{Mode: mode, Engine: cfg, VisitedCheck: check})
			return b, b.Body(src)
		}
	}
	stconn := func(dst int) func(int, aam.Config) (aam.Sizer, func(exec.Context)) {
		return func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			s := algo.NewSTConn(g, nodes)
			return s, s.Body(src, dst, cfg)
		}
	}
	runs := []programRun{
		{"bfs-checked", 2, bfs(algo.BFSAAM, true)},
		{"bfs-unchecked", 2, bfs(algo.BFSAAM, false)},
		{"bfs-graph500", 1, bfs(algo.BFSGraph500, true)},
		{"maxflow", 1, func(_ int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			f := algo.NewMaxFlow(wg)
			return f, f.Body(src, far, cfg)
		}},
		{"coloring", 1, func(_ int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			c := algo.NewColoring(g)
			return c, c.Body(cfg, 0)
		}},
		{"mst", 1, func(_ int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			b := algo.NewBoruvka(wg)
			return b, b.Body(cfg)
		}},
		{"pagerank", 2, func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			p := algo.NewPageRank(g, nodes, algo.PRConfig{Damping: 0.85, Iterations: 3, Engine: cfg})
			return p, p.Body()
		}},
		{"stconn-near", 2, stconn(near)},
		{"stconn-far", 2, stconn(far)},
		{"gblas-bfs", 2, func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			b := gblas.NewBFS(g, nodes, cfg)
			return b, b.Body(src)
		}},
		{"gblas-sssp", 2, func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			s := gblas.NewSSSP(wg, nodes, cfg)
			return s, s.Body(src)
		}},
		{"gblas-pagerank", 2, func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			p := gblas.NewPageRank(g, nodes, 0.85, 3, cfg)
			return p, p.Body()
		}},
		{"gblas-cc", 2, func(nodes int, cfg aam.Config) (aam.Sizer, func(exec.Context)) {
			c := gblas.NewCC(g, nodes, cfg)
			return c, c.Body()
		}},
	}

	var out bytes.Buffer
	for _, prof := range []exec.MachineProfile{exec.HaswellC(), exec.BGQ()} {
		for _, r := range runs {
			for mech := aam.MechHTM; mech <= aam.MechFlatCombining; mech++ {
				// Boman coloring and Boruvka have no atomic body, and
				// the Graph500 baseline runs no engine at all.
				if (r.name == "coloring" || r.name == "mst") && mech == aam.MechAtomic ||
					r.name == "bfs-graph500" && mech != aam.MechHTM {
					continue
				}
				for nodes := 1; nodes <= r.nodes; nodes++ {
					env := Env{Runtime: run.Sim, Profile: &prof, Threads: 4, Seed: 7}
					p, body := r.build(nodes, aam.Config{M: 4, C: 8, Mechanism: mech})
					m, res := env.RunAAM(nodes, p, body)
					fmt.Fprintf(&out, "%s %s %s nodes=%d elapsed=%d mem=%016x %+v\n",
						prof.Name, r.name, mech, nodes, res.Elapsed, memHash(m, nodes), res.Stats.Thread)
				}
			}
		}
	}

	// The aam.Config fields the matrix above leaves zero, on the runs that
	// set them elsewhere: AutoM and LowerSingle on the checked BFS, and
	// fig7's explicit HTM variant ("short" on bgq) on PageRank.
	for _, prof := range []exec.MachineProfile{exec.HaswellC(), exec.BGQ()} {
		extras := []struct {
			run, tag string
			cfg      aam.Config
		}{
			{"bfs-checked", "autom", aam.Config{M: 4, C: 8, AutoM: true}},
			{"bfs-checked", "lower", aam.Config{M: 4, C: 8, LowerSingle: true}},
		}
		if prof.Name == "bgq" {
			extras = append(extras, struct {
				run, tag string
				cfg      aam.Config
			}{"pagerank", "short", aam.Config{M: 4, C: 8, HTM: prof.HTMVariant("short")}})
		}
		for _, x := range extras {
			for _, r := range runs {
				if r.name != x.run {
					continue
				}
				for nodes := 1; nodes <= r.nodes; nodes++ {
					env := Env{Runtime: run.Sim, Profile: &prof, Threads: 4, Seed: 7}
					p, body := r.build(nodes, x.cfg)
					m, res := env.RunAAM(nodes, p, body)
					fmt.Fprintf(&out, "%s %s+%s %s nodes=%d elapsed=%d mem=%016x %+v\n",
						prof.Name, r.name, x.tag, x.cfg.Mechanism, nodes, res.Elapsed, memHash(m, nodes), res.Stats.Thread)
				}
			}
		}
	}

	path := filepath.Join("testdata", "programs.golden")
	if *updatePrograms {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(exp)) {
		g, w := lineAt(got, i), lineAt(exp, i)
		if g != w {
			t.Errorf("line %d differs from %s (rerun with -update and read the diff)\nwant %s\ngot  %s", i+1, path, w, g)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}
