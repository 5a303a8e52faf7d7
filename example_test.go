package aamgo_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"aamgo"
	"aamgo/internal/algo"
	"aamgo/internal/baseline"
	"aamgo/internal/exec"
	"aamgo/internal/run"
	"aamgo/internal/shard"
)

// ExampleBFS traverses a power-law graph with the AAM BFS on the simulated
// Blue Gene/Q node once per isolation mechanism, as §4.1 of the paper
// does: coarse hardware transactions, fine-grained atomics and per-vertex
// locks. Each parent array is checked against a sequential BFS.
func ExampleBFS() {
	// A Graph500-style Kronecker graph: 2^13 vertices, ~2^17 arcs.
	g := aamgo.Kronecker(13, 8, 42)
	src := g.MaxDegreeVertex()
	fmt.Printf("graph: %d vertices, %d arcs, d̄=%.1f\n", g.N, g.NumEdges(), g.AvgDegree())
	want := algo.SeqBFS(g, src)

	// 64 hardware threads; M=80 is near the optimum the paper finds for
	// the short-running HTM mode (§5.5.1).
	for _, mech := range []struct {
		name string
		m    aamgo.Mechanism
	}{
		{"hardware transactions (M=80)", aamgo.HTM},
		{"fine-grained atomics", aamgo.Atomic},
		{"per-vertex locks", aamgo.Lock},
	} {
		res, err := aamgo.BFS(g, src, aamgo.Config{Machine: "bgq", Mechanism: mech.m, M: 80, Seed: 7})
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := algo.ValidateBFSTree(g, src, res.Parents, want); err != nil {
			fmt.Printf("%s: %v\n", mech.name, err)
			continue
		}
		fmt.Printf("%-28s visited %d, a valid BFS tree\n", mech.name+":", reached(res.Parents))
	}
	// Output:
	// graph: 8192 vertices, 130806 arcs, d̄=16.0
	// hardware transactions (M=80): visited 5719, a valid BFS tree
	// fine-grained atomics:        visited 5719, a valid BFS tree
	// per-vertex locks:            visited 5719, a valid BFS tree
}

// ExampleOwnership runs the §4.3 ownership protocol as a small sharded
// ledger. Accounts are spread over four nodes, and every transfer debits
// one local account and credits one on another node. A hardware
// transaction cannot span nodes, so each transfer first migrates the
// remote account via its ownership marker, runs locally as one
// transaction, and writes the account back. Conflicts back off and retry;
// no transfer is ever torn, so the ledger total is conserved.
func ExampleOwnership() {
	const (
		nodes       = 4
		threads     = 2
		accPerNode  = 64
		perThread   = 200
		initBalance = 1000
		dataBase    = 1 << 8
	)
	o := aamgo.NewOwnership(aamgo.OwnershipLayout{MarkerBase: 0, DataBase: dataBase, MailboxBase: 1 << 9})
	prof, err := aamgo.ProfileByName("bgq")
	if err != nil {
		fmt.Println(err)
		return
	}
	m := aamgo.NewMachine("sim", aamgo.MachineConfig{
		Nodes: nodes, ThreadsPerNode: threads, MemWords: 1 << 10,
		Profile: &prof, Handlers: o.Handlers(nil), Seed: 11,
	})
	for n := 0; n < nodes; n++ {
		for a := 0; a < accPerNode; a++ {
			m.Mem(n)[dataBase+a] = initBalance
		}
	}

	// One extra element per node (index accPerNode) counts finished
	// threads: each finisher bumps it on every node through distributed
	// transactions, and every thread serves the protocol until its local
	// counter shows all threads done.
	const doneIdx = accPerNode
	committed := 0
	m.Run(func(ctx aamgo.Context) {
		rng := ctx.Rand()
		for i := 0; i < perThread; i++ {
			from := rng.Intn(accPerNode)
			toNode := rng.Intn(nodes)
			for toNode == ctx.NodeID() {
				toNode = rng.Intn(nodes)
			}
			to := aamgo.GlobalRef{Node: toNode, Index: rng.Intn(accPerNode)}
			amount := uint64(rng.Intn(20) + 1)
			res := o.RunDistTx(ctx, []int{from}, []aamgo.GlobalRef{to}, nil,
				func(tx aamgo.Tx, localData []int, remoteVals []uint64) []uint64 {
					bal := tx.Read(localData[0])
					if bal < amount {
						return remoteVals // insufficient funds: no-op
					}
					tx.Write(localData[0], bal-amount)
					return []uint64{remoteVals[0] + amount}
				})
			if res.Committed {
				committed++
			}
		}
		for n := 0; n < nodes; n++ {
			if n == ctx.NodeID() {
				o.RunDistTx(ctx, []int{doneIdx}, nil, nil,
					func(tx aamgo.Tx, localData []int, _ []uint64) []uint64 {
						tx.Write(localData[0], tx.Read(localData[0])+1)
						return nil
					})
				continue
			}
			o.RunDistTx(ctx, nil, []aamgo.GlobalRef{{Node: n, Index: doneIdx}}, nil,
				func(tx aamgo.Tx, _ []int, remoteVals []uint64) []uint64 {
					return []uint64{remoteVals[0] + 1}
				})
		}
		for ctx.Load(dataBase+doneIdx) < nodes*threads {
			if ctx.Poll() == 0 {
				ctx.Compute(200)
			}
		}
	})

	var total uint64
	held := 0
	for n := 0; n < nodes; n++ {
		for a := 0; a < accPerNode; a++ {
			total += m.Mem(n)[dataBase+a]
			if m.Mem(n)[a] != 0 {
				held++
			}
		}
	}
	fmt.Printf("%d transfers committed across %d nodes\n", committed, nodes)
	fmt.Printf("ledger total %d, expected %d\n", total, nodes*accPerNode*initBalance)
	fmt.Printf("ownership markers still held: %d\n", held)
	// Output:
	// 1600 transfers committed across 4 nodes
	// ledger total 256000, expected 256000
	// ownership markers still held: 0
}

// ExampleMaxFlow computes the capacity of a supply network: warehouses on
// the west edge of a road grid ship to a hub on the east edge, and link
// capacities are road throughputs. Each Edmonds-Karp augmenting-path
// search runs as a parallel AAM BFS over the residual network, the
// Ford-Fulkerson use the paper motivates BFS with (§6). Every mechanism
// finds the flow a sequential Edmonds-Karp finds.
func ExampleMaxFlow() {
	g := supplyNet(16, 16)
	src, dst := 0, g.N-1
	fmt.Printf("supply network: %d junctions, %d links\n", g.N, g.NumEdges())
	want := algo.SeqMaxFlow(g, src, dst)
	for _, mech := range []struct {
		name string
		m    aamgo.Mechanism
	}{
		{"hardware transactions", aamgo.HTM},
		{"atomics", aamgo.Atomic},
		{"optimistic locking", aamgo.Optimistic},
	} {
		flow, _, err := aamgo.MaxFlow(g, src, dst, aamgo.Config{
			Machine: "bgq", Threads: 16, Mechanism: mech.m, M: 16, Seed: 5,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-22s max flow %d (sequential %d)\n", mech.name+":", flow, want)
	}
	// Output:
	// supply network: 258 junctions, 1024 links
	// hardware transactions: max flow 216 (sequential 216)
	// atomics:               max flow 216 (sequential 216)
	// optimistic locking:    max flow 216 (sequential 216)
}

// supplyNet makes a w×h grid where vertex 0 is the super-source wired to
// the west edge and vertex w*h+1 the super-sink wired to the east edge,
// with deterministic pseudo-random capacities 5..24.
func supplyNet(w, h int) *aamgo.Graph {
	n := w*h + 2
	src, dst := int32(0), int32(n-1)
	grid := func(x, y int) int32 { return int32(1 + y*w + x) }
	b := aamgo.NewBuilder(n).WithWeights(func(u, v int32) uint32 {
		return (uint32(u)*2654435761^uint32(v)*40503)%20 + 5
	})
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(grid(x, y), grid(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(grid(x, y), grid(x, y+1))
			}
		}
		b.AddEdge(src, grid(0, y))
		b.AddEdge(grid(w-1, y), dst)
	}
	return b.Build()
}

// ExampleMST finds a minimum spanning forest of a road network with
// Borůvka supervertex merging, expressed as Fire-and-Return & May-Fail
// activities (§3.3.3): two activities merging overlapping components
// conflict inside a hardware transaction, exactly one commits, and the
// loser's failure handler backs off and retries. Locks and atomics cannot
// roll a multi-word merge back, so the comparison is with HLE, the
// Haswell variant that serializes after the first abort. Both forests
// weigh what a sequential Kruskal finds.
func ExampleMST() {
	// A road grid with 10% of its segments missing (rivers, parks) and
	// deterministic symmetric weights standing in for segment lengths.
	g := aamgo.AttachSymmetricWeights(aamgo.RoadGrid(100, 100, 0.1, 7), 13)
	fmt.Printf("road network: %d intersections, %d segments\n", g.N, g.NumEdges()/2)
	want := algo.SeqMSTWeight(g)
	for _, variant := range []string{"rtm", "hle"} {
		weight, comps, _, err := aamgo.MST(g, aamgo.Config{Machine: "has-c", HTMVariant: variant, M: 4, Seed: 11})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s: forest weight %d over %d components (Kruskal %d)\n",
			variant, weight, distinct(comps), want)
	}
	// Output:
	// road network: 10000 intersections, 18106 segments
	// rtm: forest weight 12776511508464 over 2 components (Kruskal 12776511508464)
	// hle: forest weight 12776511508464 over 2 components (Kruskal 12776511508464)
}

// ExamplePageRank is the paper's §6.2 scenario: an Erdős–Rényi graph
// partitioned over 16 simulated BG/Q nodes, with rank contributions that
// cross node boundaries travelling as atomic active messages. The
// coalescing factor C, the lever behind Figure 5e/f, divides the message
// count. The PBGL-style baseline runs four single-threaded processes per
// node and coalesces nothing, so it sends a message per remote
// contribution. Ranks are Q24.40 fixed point, so every run ends with the
// same vector.
func ExamplePageRank() {
	const (
		n     = 1 << 10
		nodes = 16
		iters = 5
	)
	g := aamgo.ErdosRenyi(n, 16.0/n, 99)
	fmt.Printf("ER graph: %d vertices, %d arcs over %d nodes\n", g.N, g.NumEdges(), nodes)

	var first []float64
	for _, c := range []int{1, 16, 256} {
		ranks, ri, err := aamgo.PageRank(g, 0.85, iters, aamgo.Config{
			Machine: "bgq", Nodes: nodes, Threads: 4, M: 8, C: c, Seed: 3,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		if first == nil {
			first = ranks
		}
		fmt.Printf("aam  C=%-3d messages %-6d top rank %.6f, ranks against C=1: %s\n",
			c, ri.Stats.MsgsSent, slices.Max(ranks), compare(ranks, first))
	}

	prof := exec.BGQ()
	pb := baseline.NewPBGLPageRank(g, nodes*4, baseline.PBGLConfig{Iterations: iters})
	m := run.New(run.Sim, exec.Config{
		Nodes: nodes * 4, ThreadsPerNode: 1,
		MemWords: pb.MemWords(), Profile: &prof,
		Handlers: pb.Handlers(nil), Seed: 3,
	})
	res := m.Run(pb.Body())
	fmt.Printf("pbgl        messages %-6d ranks against aam: %s\n",
		res.Stats.MsgsSent, compare(pb.Ranks(m), first))
	// Output:
	// ER graph: 1024 vertices, 16316 arcs over 16 nodes
	// aam  C=1   messages 76710  top rank 0.001666, ranks against C=1: identical
	// aam  C=16  messages 6880   top rank 0.001666, ranks against C=1: identical
	// aam  C=256 messages 4800   top rank 0.001666, ranks against C=1: identical
	// pbgl        messages 80360  ranks against aam: identical
}

// Example_socialnet runs an analyst's pipeline over a community-structured
// graph, a proxy for the paper's SNAP social networks (Table 1): connected
// components, BFS distances from the most popular member, the PageRank
// influencers, and a proper coloring that schedules members into
// conflict-free rounds.
func Example_socialnet() {
	// 2048 members in communities of 64, ~12 friends each, 5% of edges
	// crossing communities.
	g := aamgo.Community(2048, 64, 12, 0.05, 2024)
	fmt.Printf("social graph: %d members, %d friendships\n", g.N, g.NumEdges()/2)
	cfg := aamgo.Config{Machine: "has-c", M: 8, Seed: 5}

	labels, _, err := aamgo.Components(g, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	sizes := map[int32]int{}
	for _, l := range labels {
		sizes[l]++
	}
	giant := 0
	for _, s := range sizes {
		giant = max(giant, s)
	}
	fmt.Printf("components: %d, the giant one %d members\n", len(sizes), giant)

	hub := g.MaxDegreeVertex()
	bfs, err := aamgo.BFS(g, hub, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("bfs from hub %d (degree %d): reached %d members, max distance %d\n",
		hub, g.Degree(hub), reached(bfs.Parents), slices.Max(algo.BFSDepths(g, hub, bfs.Parents)))

	ranks, _, err := aamgo.PageRank(g, 0.85, 15, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	top := make([]int, g.N)
	for v := range top {
		top[v] = v
	}
	slices.SortStableFunc(top, func(a, b int) int { return cmp.Compare(ranks[b], ranks[a]) })
	fmt.Println("top influencers:")
	for _, v := range top[:3] {
		fmt.Printf("  member %4d  rank %.6f  degree %d\n", v, ranks[v], g.Degree(v))
	}

	colors, used, _, err := aamgo.Coloring(g, aamgo.Config{Machine: "has-c", M: 4, Seed: 5})
	if err != nil {
		fmt.Println(err)
		return
	}
	perRound := map[int32]int{}
	largest := 0
	for _, c := range colors {
		perRound[c]++
		largest = max(largest, perRound[c])
	}
	fmt.Printf("coloring: %d rounds, the largest %d members, proper: %v\n",
		used, largest, algo.ValidColoring(g, colors))
	// Output:
	// social graph: 2048 members, 20716 friendships
	// components: 1, the giant one 2048 members
	// bfs from hub 1372 (degree 31): reached 2048 members, max distance 5
	// top influencers:
	//   member 1372  rank 0.000702  degree 31
	//   member  778  rank 0.000686  degree 29
	//   member 1367  rank 0.000683  degree 30
	// coloring: 13 rounds, the largest 244 members, proper: true
}

// Example_sharded drives the multi-shard executor: BFS, PageRank and
// connected components across shard counts, every shard a goroutine
// worker pool with its own isolation mechanism, coupled only by coalesced
// cross-shard operator batches. The coalescing sweep collapses the batch
// count, the inter-shard analogue of the paper's Figure 5 C factor. The
// irregular trio (delta-stepping SSSP, Borůvka MST, greedy coloring)
// closes, cross-checked against the unsharded engines.
//
// The façade's way in is Config{Engine: aamgo.EngineShard}; this example
// sets what the façade does not expose (workers per shard, flush policy,
// BFS direction), so it drives internal/shard itself.
func Example_sharded() {
	g := aamgo.Kronecker(11, 8, 42)
	src := g.MaxDegreeVertex()
	fmt.Printf("graph: %d vertices, %d arcs\n", g.N, g.NumEdges())
	want := algo.SeqBFS(g, src)

	fmt.Println("shard-count sweep (BFS, batch=64):")
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := shard.BFS(g, src, shard.Config{Shards: shards, BatchSize: 64})
		if err != nil {
			fmt.Println(err)
			return
		}
		tree := "a valid BFS tree"
		if err := algo.ValidateBFSTree(g, src, res.Parents, want); err != nil {
			tree = err.Error()
		}
		fmt.Printf("  %d shard(s): %d levels, %s\n", shards, res.Levels, tree)
	}

	// BFS is direction-optimizing by default; push-only shows the levels
	// the per-level push/pull switch moves to pull on an R-MAT graph.
	// PartEdge swaps the block distribution for edge-balanced boundaries.
	fmt.Println("direction and partition (BFS, 4 shards):")
	for _, c := range []struct {
		label string
		cfg   shard.Config
	}{
		{"push-only, block", shard.Config{Shards: 4, Dir: shard.DirPush}},
		{"auto,      block", shard.Config{Shards: 4}},
		{"auto,      edge ", shard.Config{Shards: 4, Part: shard.PartEdge}},
	} {
		res, err := shard.BFS(g, src, c.cfg)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("  %s: %d push + %d pull levels\n", c.label, res.PushLevels, res.PullLevels)
	}

	// The sharded PageRank accumulates in the same fixed point as the
	// single runtime, so the rank vectors are bit-identical.
	singlePR, _, err := aamgo.PageRank(g, 0.85, 5, aamgo.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	sres, err := shard.PageRank(g, 0.85, 5, shard.Config{Shards: 4, Workers: 2, Mechanism: aamgo.Optimistic})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("pagerank (4 shards × 2 workers, occ): ranks against the single runtime: %s\n",
		compare(sres.Ranks, singlePR))

	fmt.Println("coalescing sweep (CC, 4 shards):")
	for _, p := range []struct {
		label  string
		policy shard.FlushPolicy
		batch  int
	}{
		{"eager", shard.FlushEager, 1},
		{"size=64", shard.FlushBySize, 64},
		{"epoch", shard.FlushByEpoch, 0},
	} {
		res, err := shard.Components(g, shard.Config{Shards: 4, BatchSize: p.batch, Flush: p.policy})
		if err != nil {
			fmt.Println(err)
			return
		}
		tot := res.Totals()
		fmt.Printf("  %-7s %d units in %d batches, %d components\n",
			p.label, tot.RemoteUnitsSent, tot.RemoteBatchesSent, distinct(res.Labels))
	}

	// SSSP buckets relaxations behind the bucket-epoch barrier, MST
	// proposes min edges as cross-shard min-combines, coloring ships one
	// counter decrement per edge.
	wg := aamgo.AttachSymmetricWeights(g, 42)
	cfg := shard.Config{Shards: 4, Workers: 2, BatchSize: 64}
	fmt.Println("irregular trio (4 shards × 2 workers):")
	ssp, err := shard.SSSP(wg, src, 0, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	reachedSSSP := 0
	for _, d := range ssp.Dists {
		if d != math.MaxUint64 {
			reachedSSSP++
		}
	}
	fmt.Printf("  sssp:     %d buckets, %d reached\n", ssp.Buckets, reachedSSSP)
	mst, err := shard.MST(wg, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("  mst:      weight %d over %d edges\n", mst.Weight, mst.Edges)
	col, err := shard.Coloring(wg, 0, cfg) // seed 0 = sequential greedy order
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("  coloring: %d colors, proper: %v\n", col.Used, algo.ValidColoring(wg, col.Colors))

	dists, _, err := aamgo.SSSP(wg, src, aamgo.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	weight, _, _, err := aamgo.MST(wg, aamgo.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("sssp distances against the aam engine: %s\n", compare(ssp.Dists, dists))
	fmt.Printf("mst weight %d, the single runtime's %d\n", mst.Weight, weight)
	// Output:
	// graph: 2048 vertices, 32590 arcs
	// shard-count sweep (BFS, batch=64):
	//   1 shard(s): 3 levels, a valid BFS tree
	//   2 shard(s): 3 levels, a valid BFS tree
	//   4 shard(s): 3 levels, a valid BFS tree
	//   8 shard(s): 3 levels, a valid BFS tree
	// direction and partition (BFS, 4 shards):
	//   push-only, block: 4 push + 0 pull levels
	//   auto,      block: 2 push + 2 pull levels
	//   auto,      edge : 2 push + 2 pull levels
	// pagerank (4 shards × 2 workers, occ): ranks against the single runtime: identical
	// coalescing sweep (CC, 4 shards):
	//   eager   98312 units in 98312 batches, 475 components
	//   size=64 98312 units in 1560 batches, 475 components
	//   epoch   98312 units in 48 batches, 475 components
	// irregular trio (4 shards × 2 workers):
	//   sssp:     20 buckets, 1573 reached
	//   mst:      weight 1510536288713 over 1573 edges
	//   coloring: 28 colors, proper: true
	// sssp distances against the aam engine: identical
	// mst weight 1510536288713, the single runtime's 1510536288713
}

// ExampleDynGraph streams transactional edge batches into a mutable graph,
// each batch executed as AAM operators under a rotating isolation
// mechanism. Meanwhile readers run the unchanged static BFS against
// immutable epoch-stamped snapshots, and the incrementally maintained
// component count falls as bridges merge communities.
func ExampleDynGraph() {
	// A fragmented community graph: many clusters, few bridges.
	g, err := aamgo.NewDynGraph(aamgo.Community(1<<12, 32, 4, 0.002, 7))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("base: %d vertices, %d arcs, %d components\n", g.N(), g.NumArcs(), g.ComponentCount())

	// Each reader freezes a snapshot at least once and until the writer
	// is done. Snapshots are immutable, so no coordination is needed; a
	// snapshot's BFS reaches exactly vertex 0's component in it.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				f := g.Freeze()
				res, err := aamgo.BFS(f, 0, aamgo.Config{Threads: 2})
				if err != nil {
					fmt.Println(err)
					return
				}
				if got, want := reached(res.Parents), componentSize(f, 0); got != want {
					fmt.Printf("snapshot BFS reached %d, component holds %d\n", got, want)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	mechs := []struct {
		name string
		m    aamgo.Mechanism
	}{
		{"htm", aamgo.HTM},
		{"atomic", aamgo.Atomic},
		{"lock", aamgo.Lock},
		{"occ", aamgo.Optimistic},
		{"flatcomb", aamgo.FlatCombining},
	}
	rng := rand.New(rand.NewSource(99))
	for b := 0; b < 10; b++ {
		batch := make([]aamgo.Mutation, 0, 64)
		for i := 0; i < 64; i++ {
			u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
			if u != v {
				batch = append(batch, aamgo.DynAddEdge(u, v))
			}
		}
		mech := mechs[b%len(mechs)]
		res, err := g.Apply(batch, aamgo.DynTxConfig{Mechanism: mech.m, Threads: 4})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("batch %d [%s]: +%d edges (%d dup), epoch %d, %d components\n",
			b, mech.name, res.Applied, res.Rejected+res.Redundant, res.Epoch, g.ComponentCount())
	}
	close(stop)
	readers.Wait()
	st := g.Stats()
	fmt.Printf("totals: %d batches, %d applied, %d rejected\n", st.Batches, st.Applied, st.Rejected)
	// Output:
	// base: 4096 vertices, 28704 arcs, 104 components
	// batch 0 [htm]: +64 edges (0 dup), epoch 1, 41 components
	// batch 1 [atomic]: +63 edges (1 dup), epoch 2, 10 components
	// batch 2 [lock]: +64 edges (0 dup), epoch 3, 4 components
	// batch 3 [occ]: +64 edges (0 dup), epoch 4, 2 components
	// batch 4 [flatcomb]: +64 edges (0 dup), epoch 5, 2 components
	// batch 5 [htm]: +64 edges (0 dup), epoch 6, 1 components
	// batch 6 [atomic]: +64 edges (0 dup), epoch 7, 1 components
	// batch 7 [lock]: +64 edges (0 dup), epoch 8, 1 components
	// batch 8 [occ]: +64 edges (0 dup), epoch 9, 1 components
	// batch 9 [flatcomb]: +64 edges (0 dup), epoch 10, 1 components
	// totals: 10 batches, 639 applied, 1 rejected
}

// componentSize counts the vertices of g connected to src.
func componentSize(g *aamgo.Graph, src int) int {
	n := 0
	for _, d := range algo.SeqBFS(g, src) {
		if d >= 0 {
			n++
		}
	}
	return n
}

// compare returns "identical", or where got first differs from want.
func compare[T comparable](got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values against %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("differ at %d: %v against %v", i, got[i], want[i])
		}
	}
	return "identical"
}

func reached(parents []int64) int {
	n := 0
	for _, p := range parents {
		if p >= 0 {
			n++
		}
	}
	return n
}

func distinct(labels []int32) int {
	seen := map[int32]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}
