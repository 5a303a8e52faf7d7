// Command aam-run executes one graph algorithm through the AAM runtime on
// a generated or loaded graph and reports timing plus execution counters.
//
// Usage:
//
//	aam-run -algo bfs -graph kron -scale 14 -deg 8 -machine bgq -m 80
//	aam-run -algo pagerank -graph er -n 100000 -p 0.0005 -nodes 8 -c 256
//	aam-run -algo mst -load edges.txt -mech lock
//	aam-run -algo bfs -engine gblas -graph kron -scale 14
//	aam-run -algo cc -engine shard -shards 8
//	aam-run -algo bfs -runtime native -threads 4
//
// Algorithms: bfs, pagerank, sssp, mst, coloring, cc, stconn, maxflow.
// Engines: aam (default), shard (sharded executor), gblas (masked-SpMV
// engine; bfs, sssp and pagerank only). Runtimes (-runtime): sim (default;
// deterministic, virtual time), native (goroutines, wall-clock time).
// Graphs: kron (-scale, -deg), er (-n, -p), road (-n), ba (-n, -deg),
// community (-n, -deg), or -load <edge-list file>.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"aamgo"
	"aamgo/internal/aam"
)

func main() {
	var (
		algoName  = flag.String("algo", "bfs", "bfs|pagerank|sssp|mst|coloring|cc|stconn|maxflow")
		graphKind = flag.String("graph", "kron", "kron|er|road|ba|community")
		load      = flag.String("load", "", "edge-list file (overrides -graph)")
		scale     = flag.Int("scale", 12, "kron: log2 vertex count")
		deg       = flag.Int("deg", 8, "kron/ba/community: average degree")
		n         = flag.Int("n", 4096, "er/road/ba/community: vertex count")
		p         = flag.Float64("p", 0.002, "er: edge probability")
		seed      = flag.Int64("seed", 1, "generator and machine seed")

		engine   = flag.String("engine", "", "aam|shard|gblas (empty = aam, or shard when -shards > 1)")
		shards   = flag.Int("shards", 0, "shard count for the shard engine")
		rt       = flag.String("runtime", "", "sim|native machine runtime (default sim)")
		machine  = flag.String("machine", "has-c", "has-c|has-p|bgq")
		variant  = flag.String("htm", "", "HTM variant (rtm|hle|short|long)")
		nodes    = flag.Int("nodes", 1, "machine nodes")
		threads  = flag.Int("threads", 0, "threads per node (0 = machine max)")
		mech     = flag.String("mech", "htm", "htm|atomic|lock|occ|flatcomb")
		m        = flag.Int("m", 16, "coarsening factor M")
		c        = flag.Int("c", 64, "coalescing factor C")
		autoM    = flag.Bool("autom", false, "online M selection")
		predictM = flag.Bool("predictm", false, "sampling-based M prediction (§7)")
		lower    = flag.Bool("lower", false, "lower single-vertex transactions to atomics (§7)")

		src  = flag.Int("src", -1, "bfs/sssp source (-1 = max degree)")
		dst  = flag.Int("dst", 0, "stconn target")
		iter = flag.Int("iters", 10, "pagerank iterations")
		damp = flag.Float64("damping", 0.85, "pagerank damping")
	)
	flag.Parse()
	if err := checkGenFlags(*graphKind, *scale, *deg, *n); err != nil {
		fmt.Fprintln(os.Stderr, "aam-run:", err)
		os.Exit(2) // a usage error, as the flag package exits on one
	}

	g, err := buildGraph(*load, *graphKind, *scale, *deg, *n, *p, *seed, *algoName)
	if err != nil {
		fail(err)
	}

	mechanism, err := aam.MechanismByName(*mech)
	if err != nil {
		fail(err)
	}
	if *rt == "" {
		*rt = "sim"
	}
	cfg := aamgo.Config{
		Engine: *engine, Shards: *shards,
		Runtime: *rt, Machine: *machine, HTMVariant: *variant,
		Nodes: *nodes, Threads: *threads, Mechanism: mechanism,
		M: *m, C: *c, AutoM: *autoM, PredictM: *predictM,
		LowerSingle: *lower, Seed: *seed,
	}

	source := *src
	if source < 0 {
		source = maxDeg(g)
	}

	fmt.Printf("graph: %d vertices, %d directed edges, d̄=%.1f, max deg %d\n",
		g.N, g.NumEdges(), g.AvgDegree(), g.MaxDegree())

	var ri aamgo.RunInfo
	switch *algoName {
	case "bfs":
		res, err := aamgo.BFS(g, source, cfg)
		if err != nil {
			fail(err)
		}
		ri = res.RunInfo
		visited := 0
		for _, pr := range res.Parents {
			if pr >= 0 {
				visited++
			}
		}
		fmt.Printf("bfs: visited %d vertices from source %d\n", visited, source)

	case "pagerank":
		ranks, info, err := aamgo.PageRank(g, *damp, *iter, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		best, bestR := 0, 0.0
		for v, r := range ranks {
			if r > bestR {
				best, bestR = v, r
			}
		}
		fmt.Printf("pagerank: top vertex %d with rank %.6f\n", best, bestR)

	case "sssp":
		dists, info, err := aamgo.SSSP(g, source, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		reach, far := 0, uint64(0)
		for _, d := range dists {
			if d != math.MaxUint64 {
				reach++
				if d > far {
					far = d
				}
			}
		}
		fmt.Printf("sssp: %d reachable, eccentricity %d\n", reach, far)

	case "mst":
		w, comps, info, err := aamgo.MST(g, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		fmt.Printf("mst: forest weight %d, %d components\n", w, countDistinct(comps))

	case "coloring":
		colors, used, info, err := aamgo.Coloring(g, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		_ = colors
		fmt.Printf("coloring: %d colors\n", used)

	case "cc":
		labels, info, err := aamgo.Components(g, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		fmt.Printf("cc: %d components\n", countDistinct(labels))

	case "maxflow":
		flow, info, err := aamgo.MaxFlow(g, source, *dst, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		fmt.Printf("maxflow: %d -> %d carries %d\n", source, *dst, flow)

	case "stconn":
		ok, info, err := aamgo.Connected(g, source, *dst, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		fmt.Printf("stconn: %d and %d connected = %v\n", source, *dst, ok)

	default:
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	s := ri.Stats
	fmt.Printf("time: %v (%s runtime)\n", ri.Elapsed, *rt)
	fmt.Printf("ops: %d operators, %d transactions (%d attempts, %d aborts, %d serialized), %d atomics, %d messages\n",
		s.OpsExecuted, s.TxStarted, s.TxAttempts, s.TotalAborts(), s.TxSerialized, s.AtomicOps, s.MsgsSent)
}

func buildGraph(load, kind string, scale, deg, n int, p float64, seed int64, algoName string) (*aamgo.Graph, error) {
	var g *aamgo.Graph
	switch {
	case load != "":
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err = aamgo.ReadAuto(f)
		if err != nil {
			return nil, err
		}
	case kind == "kron":
		g = aamgo.Kronecker(scale, deg, seed)
	case kind == "er":
		g = aamgo.ErdosRenyi(n, p, seed)
	case kind == "road":
		side := intSqrt(n)
		g = aamgo.RoadGrid(side, side, 0.1, seed)
	case kind == "ba":
		g = aamgo.BarabasiAlbert(n, deg, seed)
	case kind == "community":
		g = aamgo.Community(n, 64, deg, 0.05, seed)
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
	// Weighted algorithms need weights; re-build with a weight function.
	if (algoName == "mst" || algoName == "sssp") && g.Weights == nil {
		b := aamgo.NewBuilder(g.N).WithWeights(aamgo.SymmetricWeight(uint64(seed) + 3))
		for u := 0; u < g.N; u++ {
			for _, w := range g.Neighbors(u) {
				if int32(u) <= w {
					b.AddEdge(int32(u), w)
				}
			}
		}
		g = b.Dedup().Build()
	}
	return g, nil
}

func maxDeg(g *aamgo.Graph) int {
	best, bd := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bd {
			best, bd = v, d
		}
	}
	return best
}

func countDistinct(labels []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// checkGenFlags rejects a -scale, -deg or -n no generator takes: the library
// words its own check of them as a panic. A road grid rounds -n up to a
// square, and 46340² is the largest that 32-bit ids number.
func checkGenFlags(kind string, scale, deg, n int) error {
	if scale < 0 || scale > 30 {
		return fmt.Errorf("-scale %d: want 0 to 30 (2^scale vertices, 32-bit ids)", scale)
	}
	if deg < 0 {
		return fmt.Errorf("-deg %d: want 0 or more", deg)
	}
	limit := math.MaxInt32
	if kind == "road" {
		limit = 46340 * 46340
	}
	if n < 0 || n > limit {
		return fmt.Errorf("-n %d: want 0 to %d (32-bit ids)", n, limit)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aam-run:", err)
	os.Exit(1)
}
