// Command aam-run executes one graph algorithm through the AAM runtime on
// a generated or loaded graph and reports the answer's summary (the
// registry's, so the keys of a /query/<algo> body), timing and execution
// counters.
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
// community (-n, -deg), or -load <edge-list file>; sssp, mst and maxflow
// attach symmetric weights to a graph that has none.
package main

import (
	"flag"
	"fmt"
	"os"

	"aamgo"
	"aamgo/internal/aam"
	"aamgo/internal/graph"
	"aamgo/internal/query"
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
	params := graph.GenParams{Scale: *scale, Deg: *deg, N: *n, P: *p, Seed: *seed}
	if err := graph.CheckGenParams(*graphKind, params); err != nil {
		fmt.Fprintln(os.Stderr, "aam-run:", err)
		os.Exit(2) // a usage error, as the flag package exits on one
	}
	// What needs no graph is checked before one is built.
	d := query.Lookup(*algoName)
	if d == nil && *algoName != "stconn" && *algoName != "maxflow" {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	mechanism, err := aam.MechanismByName(*mech)
	if err != nil {
		fail(err)
	}

	g, err := loadOrGenerate(*load, *graphKind, params)
	if err != nil {
		fail(err)
	}
	// The weighted algorithms run over the same adjacency as the others,
	// with symmetric weights attached.
	wseed := uint64(*seed) + 3
	if g.Weights == nil && (*algoName == "maxflow" || d != nil && d.Weighted) {
		g = graph.AttachSymmetricWeights(g, wseed)
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
		source = g.MaxDegreeVertex()
	}

	fmt.Printf("graph: %d vertices, %d directed edges, d̄=%.1f, max deg %d\n",
		g.N, g.NumEdges(), g.AvgDegree(), g.MaxDegree())

	var ri aamgo.RunInfo
	switch {
	case d != nil:
		args := query.Args{Src: source, Iters: *iter, Damping: *damp, Top: 1, WSeed: wseed, Seed: uint64(*seed)}
		var res query.Result
		if res, ri, err = aamgo.Run(d.Name, g, args, cfg); err != nil {
			fail(err)
		}
		fmt.Printf("%s:", d.Name)
		for _, st := range d.Summary(args, g.N, res) {
			fmt.Printf(" %s=%+v", st.Key, st.Val)
		}
		fmt.Println()
	case *algoName == "maxflow":
		flow, info, err := aamgo.MaxFlow(g, source, *dst, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		fmt.Printf("maxflow: %d -> %d carries %d\n", source, *dst, flow)
	default:
		ok, info, err := aamgo.Connected(g, source, *dst, cfg)
		if err != nil {
			fail(err)
		}
		ri = info
		fmt.Printf("stconn: %d and %d connected = %v\n", source, *dst, ok)
	}

	s := ri.Stats
	fmt.Printf("time: %v (%s runtime)\n", ri.Elapsed, *rt)
	fmt.Printf("ops: %d operators, %d transactions (%d attempts, %d aborts, %d serialized), %d atomics, %d messages\n",
		s.OpsExecuted, s.TxStarted, s.TxAttempts, s.TotalAborts(), s.TxSerialized, s.AtomicOps, s.MsgsSent)
}

func loadOrGenerate(load, kind string, p graph.GenParams) (*aamgo.Graph, error) {
	if load == "" {
		return graph.Generate(kind, p)
	}
	f, err := os.Open(load)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aamgo.ReadAuto(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aam-run:", err)
	os.Exit(1)
}
