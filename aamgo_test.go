package aamgo_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"aamgo"
	"aamgo/internal/algo"
	"aamgo/internal/shard"
)

func kron(t *testing.T) *aamgo.Graph {
	t.Helper()
	return aamgo.Kronecker(9, 8, 7)
}

func TestBFSFacade(t *testing.T) {
	g := kron(t)
	src := g.MaxDegreeVertex()
	res, err := aamgo.BFS(g, src, aamgo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parents[src] != int64(src) {
		t.Fatalf("source parent = %d", res.Parents[src])
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time reported")
	}
	visited := 0
	for _, p := range res.Parents {
		if p >= 0 {
			visited++
		}
	}
	if visited < g.N/4 {
		t.Fatalf("only %d of %d vertices visited from max-degree source", visited, g.N)
	}
}

func TestBFSFacadeRejectsBadSource(t *testing.T) {
	g := kron(t)
	if _, err := aamgo.BFS(g, -1, aamgo.Config{}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := aamgo.BFS(g, g.N, aamgo.Config{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := aamgo.BFS(g, 0, aamgo.Config{Machine: "cray"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := aamgo.BFS(g, 0, aamgo.Config{Runtime: "gpu"}); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

func TestPageRankFacadeSumsToOne(t *testing.T) {
	g := kron(t)
	ranks, ri, err := aamgo.PageRank(g, 0.85, 5, aamgo.Config{Machine: "bgq", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Push PR does not redistribute dangling mass, so the total is below
	// one on graphs with isolated vertices, but must stay in (0, 1].
	if sum <= 0.5 || sum > 1.001 {
		t.Fatalf("ranks sum to %f", sum)
	}
	if ri.Stats.OpsExecuted == 0 {
		t.Fatal("no operators executed")
	}
}

func TestMechanismsAgree(t *testing.T) {
	g := kron(t)
	src := g.MaxDegreeVertex()
	base, err := aamgo.BFS(g, src, aamgo.Config{Mechanism: aamgo.HTM, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	countVisited := func(ps []int64) int {
		n := 0
		for _, p := range ps {
			if p >= 0 {
				n++
			}
		}
		return n
	}
	for _, mech := range []aamgo.Mechanism{aamgo.Atomic, aamgo.Lock} {
		r, err := aamgo.BFS(g, src, aamgo.Config{Mechanism: mech, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if countVisited(r.Parents) != countVisited(base.Parents) {
			t.Fatalf("%v visits %d vertices, HTM visits %d",
				mech, countVisited(r.Parents), countVisited(base.Parents))
		}
	}
}

func TestMSTFacade(t *testing.T) {
	b := aamgo.NewBuilder(5).WithWeights(aamgo.SymmetricWeight(11))
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 4)
	g := b.Build()
	w, comps, _, err := aamgo.MST(g, aamgo.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w == 0 {
		t.Fatal("zero MST weight on a weighted cycle")
	}
	root := comps[0]
	for v, c := range comps {
		if c != root {
			t.Fatalf("vertex %d in component %d, want %d", v, c, root)
		}
	}
	// Boruvka's merge has no atomic body: an error, not a panic.
	if _, _, _, err := aamgo.MST(g, aamgo.Config{Threads: 2, Mechanism: aamgo.Atomic}); err == nil ||
		!strings.Contains(err.Error(), "mech atomic does not apply to the aam mst") {
		t.Fatalf("atomic MST: error %v", err)
	}
}

func TestColoringFacadeIsProper(t *testing.T) {
	g := kron(t)
	colors, used, _, err := aamgo.Coloring(g, aamgo.Config{Threads: 4, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 {
		t.Fatal("no colors used")
	}
	if _, _, _, err := aamgo.Coloring(g, aamgo.Config{Threads: 4, M: 4, Mechanism: aamgo.Atomic}); err == nil ||
		!strings.Contains(err.Error(), "mech atomic does not apply to the aam coloring") {
		t.Fatalf("atomic Coloring: error %v", err)
	}
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) != v && colors[v] == colors[w] {
				t.Fatalf("edge %d-%d monochromatic (%d)", v, w, colors[v])
			}
		}
	}
}

func TestConnectedFacade(t *testing.T) {
	b := aamgo.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4) // 3-4-5 is a separate component
	b.AddEdge(4, 5)
	g := b.Build()
	ok, _, err := aamgo.Connected(g, 0, 2, aamgo.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("0 and 2 must be connected")
	}
	ok, _, err = aamgo.Connected(g, 0, 5, aamgo.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("0 and 5 must not be connected")
	}
}

// TestConnectedFacadeChecksEndpoints: an endpoint outside the graph is a
// worded error as MaxFlow's is, on the empty graph too — not an index
// panic inside the machine, and not a nil error over zero vertices.
func TestConnectedFacadeChecksEndpoints(t *testing.T) {
	pair := aamgo.NewBuilder(2)
	pair.AddEdge(0, 1)
	g1 := pair.Build()
	for _, c := range []struct {
		g    *aamgo.Graph
		s, t int
	}{{g1, 0, 5}, {g1, 5, 0}, {g1, -1, 1}, {g1, 0, -1}, {aamgo.NewBuilder(0).Build(), 0, 0}} {
		_, _, err := aamgo.Connected(c.g, c.s, c.t, aamgo.Config{Threads: 2})
		if want := fmt.Sprintf("aamgo: Connected endpoints %d,%d invalid for %d vertices", c.s, c.t, c.g.N); err == nil || err.Error() != want {
			t.Errorf("Connected(%d vertices, %d, %d): error %v, want %q", c.g.N, c.s, c.t, err, want)
		}
	}
	if ok, _, err := aamgo.Connected(g1, 1, 1, aamgo.Config{Threads: 2}); err != nil || !ok {
		t.Errorf("a vertex is connected to itself: %v, %v", ok, err)
	}
}

func TestComponentsFacade(t *testing.T) {
	b := aamgo.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build() // components: {0,1,2}, {3,4}, {5}, {6}
	labels, _, err := aamgo.Components(g, aamgo.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component {0,1,2} split")
	}
	if labels[3] != labels[4] {
		t.Fatal("component {3,4} split")
	}
	if labels[0] == labels[3] || labels[5] == labels[6] || labels[0] == labels[5] {
		t.Fatal("separate components merged")
	}
}

func TestSSSPFacade(t *testing.T) {
	kg := kron(t)
	b := aamgo.NewBuilder(kg.N).WithWeights(aamgo.SymmetricWeight(5))
	for u := 0; u < kg.N; u++ {
		for _, w := range kg.Neighbors(u) {
			if int32(u) < w {
				b.AddEdge(int32(u), w)
			}
		}
	}
	g := b.Build()
	src := g.MaxDegreeVertex()
	dists, _, err := aamgo.SSSP(g, src, aamgo.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dists[src] != 0 {
		t.Fatalf("source distance = %d", dists[src])
	}
	for _, w := range g.Neighbors(src) {
		if dists[w] == math.MaxUint64 {
			t.Fatalf("direct neighbor %d unreachable", w)
		}
	}
	// An unweighted graph must be rejected.
	if _, _, err := aamgo.SSSP(kg, src, aamgo.Config{}); err == nil {
		t.Fatal("unweighted SSSP accepted")
	}
}

func TestNativeBackendFacade(t *testing.T) {
	g := aamgo.Kronecker(8, 6, 5)
	src := g.MaxDegreeVertex()
	res, err := aamgo.BFS(g, src, aamgo.Config{Runtime: "native", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := aamgo.BFS(g, src, aamgo.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := func(ps []int64) int {
		n := 0
		for _, p := range ps {
			if p >= 0 {
				n++
			}
		}
		return n
	}
	if count(res.Parents) != count(simRes.Parents) {
		t.Fatalf("native visits %d, sim visits %d", count(res.Parents), count(simRes.Parents))
	}
}

func TestAutoMFacade(t *testing.T) {
	g := kron(t)
	src := g.MaxDegreeVertex()
	res, err := aamgo.BFS(g, src, aamgo.Config{Machine: "bgq", AutoM: true, M: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TxStarted == 0 {
		t.Fatal("AutoM run executed no transactions")
	}
}

func TestMaxFlowFacade(t *testing.T) {
	kg := kron(t)
	b := aamgo.NewBuilder(kg.N).WithWeights(aamgo.SymmetricWeight(8))
	for u := 0; u < kg.N; u++ {
		for _, w := range kg.Neighbors(u) {
			if int32(u) < w {
				b.AddEdge(int32(u), w)
			}
		}
	}
	g := b.Build()
	s := g.MaxDegreeVertex()
	dst := (s + g.N/2) % g.N
	if dst == s {
		dst = (s + 1) % g.N
	}
	flow, ri, err := aamgo.MaxFlow(g, s, dst, aamgo.Config{Threads: 4, M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ri.Stats.OpsExecuted == 0 {
		t.Fatal("max flow executed no operators")
	}
	// Flow is bounded by the endpoint degrees' capacity sums.
	capSum := func(v int) uint64 {
		var s uint64
		for _, w := range g.EdgeWeights(v) {
			s += uint64(w)
		}
		return s
	}
	if flow > capSum(s) || flow > capSum(dst) {
		t.Fatalf("flow %d exceeds an endpoint cut (%d / %d)", flow, capSum(s), capSum(dst))
	}
	// Rejections: unweighted graph, bad endpoints.
	if _, _, err := aamgo.MaxFlow(kg, s, dst, aamgo.Config{}); err == nil {
		t.Fatal("unweighted MaxFlow accepted")
	}
	if _, _, err := aamgo.MaxFlow(g, s, s, aamgo.Config{}); err == nil {
		t.Fatal("s == t accepted")
	}
}

func TestExtensionMechanismFacades(t *testing.T) {
	g := kron(t)
	src := g.MaxDegreeVertex()
	ref, err := aamgo.BFS(g, src, aamgo.Config{Threads: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	count := func(ps []int64) int {
		n := 0
		for _, p := range ps {
			if p >= 0 {
				n++
			}
		}
		return n
	}
	for _, mech := range []aamgo.Mechanism{aamgo.Optimistic, aamgo.FlatCombining} {
		res, err := aamgo.BFS(g, src, aamgo.Config{Threads: 4, Mechanism: mech, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if count(res.Parents) != count(ref.Parents) {
			t.Fatalf("mechanism %v visits %d, HTM visits %d",
				mech, count(res.Parents), count(ref.Parents))
		}
	}
}

func TestLowerSingleFacade(t *testing.T) {
	g := kron(t)
	src := g.MaxDegreeVertex()
	res, err := aamgo.BFS(g, src, aamgo.Config{Threads: 4, M: 1, LowerSingle: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The BFS mark operator's footprint is multi-word (parent + frontier
	// push), so the pass must analyze and then decline to lower it.
	if res.Stats.LoweredOps != 0 {
		t.Fatalf("BFS mark lowered %d times; its footprint is multi-word", res.Stats.LoweredOps)
	}
}

func TestDynGraphFacade(t *testing.T) {
	g, err := aamgo.NewDynGraph(kron(t))
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumArcs()
	res, err := g.Apply([]aamgo.Mutation{
		aamgo.DynAddVertex(),
		aamgo.DynAddEdge(0, int32(g.N())), // wire the new vertex up
	}, aamgo.DynTxConfig{Mechanism: aamgo.Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.VerticesAdded != 1 {
		t.Fatalf("unexpected batch result %+v", res)
	}
	if g.NumArcs() != before+2 {
		t.Fatalf("arcs = %d, want %d", g.NumArcs(), before+2)
	}
	// The frozen snapshot runs the unchanged static algorithms.
	f := g.Freeze()
	bfs, err := aamgo.BFS(f, 0, aamgo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Parents[f.N-1] != 0 {
		t.Fatalf("new vertex's BFS parent = %d, want 0", bfs.Parents[f.N-1])
	}
	if !g.SameComponent(0, int32(f.N-1)) {
		t.Fatal("incremental CC missed the new edge")
	}
	res, err = g.Apply([]aamgo.Mutation{aamgo.DynRemoveEdge(0, int32(f.N-1))}, aamgo.DynTxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || g.NumArcs() != before {
		t.Fatalf("remove: applied %d, arcs %d; want 1 and %d", res.Applied, g.NumArcs(), before)
	}
	if g.SameComponent(0, int32(f.N-1)) {
		t.Fatal("incremental CC kept the removed edge")
	}
}

// TestOwnershipFacade drives the low-level re-exports the way
// ExampleOwnership does: a machine built by name, the §4.3 ownership
// protocol moving value between accounts on two nodes, and the run's
// virtual time as a Duration.
func TestOwnershipFacade(t *testing.T) {
	const nodes, accounts, rounds, funds = 2, 8, 20, 100
	o := aamgo.NewOwnership(aamgo.OwnershipLayout{MarkerBase: 0, DataBase: 1 << 6, MailboxBase: 1 << 7})
	prof, err := aamgo.ProfileByName("has-c")
	if err != nil {
		t.Fatal(err)
	}
	m := aamgo.NewMachine("sim", aamgo.MachineConfig{
		Nodes: nodes, ThreadsPerNode: 1, MemWords: 1 << 9,
		Profile: &prof, Handlers: o.Handlers(nil), Seed: 3,
	})
	for n := 0; n < nodes; n++ {
		for a := 0; a < accounts; a++ {
			m.Mem(n)[1<<6+a] = funds
		}
	}
	// Index `accounts` on each node counts the threads that finished.
	done := 1<<6 + accounts
	committed := make([]int, nodes)
	res := m.Run(func(ctx aamgo.Context) {
		peer := 1 - ctx.NodeID()
		for i := 0; i < rounds; i++ {
			r := o.RunDistTx(ctx, []int{i % accounts}, []aamgo.GlobalRef{{Node: peer, Index: (i + 3) % accounts}}, nil,
				func(tx aamgo.Tx, local []int, remote []uint64) []uint64 {
					tx.Write(local[0], tx.Read(local[0])-1)
					return []uint64{remote[0] + 1}
				})
			if r.Committed {
				committed[ctx.NodeID()]++
			}
		}
		o.RunDistTx(ctx, nil, []aamgo.GlobalRef{{Node: peer, Index: accounts}}, nil,
			func(tx aamgo.Tx, _ []int, remote []uint64) []uint64 { return []uint64{remote[0] + 1} })
		for ctx.Load(done) == 0 {
			if ctx.Poll() == 0 {
				ctx.Compute(200)
			}
		}
	})
	var total uint64
	for n := 0; n < nodes; n++ {
		for a := 0; a < accounts; a++ {
			total += m.Mem(n)[1<<6+a]
		}
	}
	if total != nodes*accounts*funds {
		t.Fatalf("ledger total %d, want %d", total, nodes*accounts*funds)
	}
	if committed[0] != rounds || committed[1] != rounds {
		t.Fatalf("committed transfers %v, want %d per node", committed, rounds)
	}
	if d := aamgo.Elapsed(res.Elapsed); d <= 0 || d != time.Duration(res.Elapsed) {
		t.Fatalf("Elapsed(%d) = %v", res.Elapsed, d)
	}
}

func TestShardedFacade(t *testing.T) {
	g := kron(t)
	src := g.MaxDegreeVertex()

	// Config.Shards routes through the sharded executor; the tree must
	// still be rooted, and the executor's per-shard counters ride along in
	// RunInfo.Shard.
	res, err := aamgo.BFS(g, src, aamgo.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parents[src] != int64(src) {
		t.Fatalf("source parent = %d", res.Parents[src])
	}
	if res.Shard == nil || len(res.Shard.PerShard) != 4 {
		t.Fatalf("RunInfo.Shard = %+v, want 4 shards' counters", res.Shard)
	}

	sres, err := aamgo.BFS(g, src, aamgo.Config{Engine: aamgo.EngineShard, Shards: 4, C: 16})
	if err != nil {
		t.Fatal(err)
	}
	tot := sres.Shard.Totals()
	if tot.RemoteUnitsSent == 0 || tot.RemoteUnitsSent != tot.RemoteUnitsRecv {
		t.Fatalf("remote units sent=%d recv=%d", tot.RemoteUnitsSent, tot.RemoteUnitsRecv)
	}
	if aam, err := aamgo.BFS(g, src, aamgo.Config{}); err != nil || aam.Shard != nil {
		t.Fatalf("RunInfo.Shard off the shard engine: %+v, %v", aam.Shard, err)
	}

	// Sharded PageRank is bit-identical to the single-runtime ranks.
	single, _, err := aamgo.PageRank(g, 0.85, 5, aamgo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := aamgo.PageRank(g, 0.85, 5, aamgo.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range single {
		if single[v] != sharded[v] {
			t.Fatalf("rank[%d]: sharded %g != single-runtime %g", v, sharded[v], single[v])
		}
	}

	// Sharded components agree with the single-runtime labeling.
	want, _, err := aamgo.Components(g, aamgo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := aamgo.Components(g, aamgo.Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("label[%d]: sharded %d != single-runtime %d", v, got[v], want[v])
		}
	}
}

// weightedKron is the Kronecker test graph with deterministic symmetric
// edge weights attached.
func weightedKron(t *testing.T) *aamgo.Graph {
	t.Helper()
	return aamgo.AttachSymmetricWeights(kron(t), 5)
}

func TestShardedIrregularFacade(t *testing.T) {
	g := weightedKron(t)
	src := g.MaxDegreeVertex()

	// Config.Shards routes SSSP through the sharded executor; distances
	// must equal the single runtime's min-plus frontier rounds exactly.
	single, _, err := aamgo.SSSP(g, src, aamgo.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := aamgo.SSSP(g, src, aamgo.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range single {
		if single[v] != sharded[v] {
			t.Fatalf("dist[%d]: sharded %d != single-runtime %d", v, sharded[v], single[v])
		}
	}
	_, sri, err := aamgo.SSSP(g, src, aamgo.Config{Engine: aamgo.EngineShard, Shards: 4, C: 16})
	if err != nil {
		t.Fatal(err)
	}
	tot := sri.Shard.Totals()
	if tot.RemoteUnitsSent == 0 || tot.RemoteUnitsSent != tot.RemoteUnitsRecv {
		t.Fatalf("sssp remote units sent=%d recv=%d", tot.RemoteUnitsSent, tot.RemoteUnitsRecv)
	}

	// MST: sharded forest weight matches the single-runtime Boruvka.
	w1, _, _, err := aamgo.MST(g, aamgo.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	w2, labels, _, err := aamgo.MST(g, aamgo.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatalf("sharded MST weight %d != single-runtime %d", w2, w1)
	}
	mres, err := shard.MST(g, shard.Config{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Weight != w1 {
		t.Fatalf("shard.MST weight %d != %d", mres.Weight, w1)
	}
	if len(labels) != g.N || len(mres.Labels) != g.N {
		t.Fatal("missing component labels")
	}

	// Coloring: sharded result is proper and deterministic; seed 0 is the
	// sequential greedy order.
	colors, used, _, err := aamgo.Coloring(g, aamgo.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 {
		t.Fatal("no colors used")
	}
	if _, _, _, err := aamgo.Coloring(g, aamgo.Config{Threads: 4, M: 4, Mechanism: aamgo.Atomic}); err == nil ||
		!strings.Contains(err.Error(), "mech atomic does not apply to the aam coloring") {
		t.Fatalf("atomic Coloring: error %v", err)
	}
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) != v && colors[v] == colors[w] {
				t.Fatalf("edge %d-%d monochromatic (%d)", v, w, colors[v])
			}
		}
	}
	_, used, _, err = aamgo.Coloring(g, aamgo.Config{Engine: aamgo.EngineShard, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if used > g.MaxDegree()+1 {
		t.Fatalf("coloring used %d colors, maxdeg+1 = %d", used, g.MaxDegree()+1)
	}

	// The sharded SSSP path must reject bad sources and missing weights.
	if _, _, err := aamgo.SSSP(g, g.N+7, aamgo.Config{Shards: 4}); err == nil {
		t.Fatal("out-of-range sharded SSSP source accepted")
	}
	if _, _, _, err := aamgo.MST(kron(t), aamgo.Config{Engine: aamgo.EngineShard}); err == nil {
		t.Fatal("unweighted sharded MST accepted")
	}
	if _, err := shard.MST(kron(t), shard.Config{Shards: 2}); err == nil {
		t.Fatal("unweighted shard.MST accepted")
	}
}

// TestFlatCombiningOnSmallGraphs runs every aam-engine façade call under
// FlatCombining on a graph with fewer vertices than the combining
// structure has words (1+2T at LockBase): each program's node memory must
// reserve the lock region for the machine's T, not only one word per
// vertex. Answers are held to the same call under HTM, and the coloring,
// which is only valid and not unique, to the sequential check.
func TestFlatCombiningOnSmallGraphs(t *testing.T) {
	b := aamgo.NewBuilder(6).WithWeights(func(u, v int32) uint32 { return uint32(u+v) + 1 })
	for v := int32(0); v < 5; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	calls := []struct {
		name string
		run  func(c aamgo.Config) (any, error)
	}{
		{"BFS", func(c aamgo.Config) (any, error) {
			res, err := aamgo.BFS(g, 0, c)
			return res.Parents, err
		}},
		{"PageRank", func(c aamgo.Config) (any, error) {
			ranks, _, err := aamgo.PageRank(g, 0.85, 5, c)
			return ranks, err
		}},
		{"Components", func(c aamgo.Config) (any, error) {
			labels, _, err := aamgo.Components(g, c)
			return labels, err
		}},
		{"SSSP", func(c aamgo.Config) (any, error) {
			dists, _, err := aamgo.SSSP(g, 0, c)
			return dists, err
		}},
		{"MST", func(c aamgo.Config) (any, error) {
			weight, labels, _, err := aamgo.MST(g, c)
			return fmt.Sprint(weight, labels), err
		}},
		{"Connected", func(c aamgo.Config) (any, error) {
			ok, _, err := aamgo.Connected(g, 0, 5, c)
			return ok, err
		}},
		{"MaxFlow", func(c aamgo.Config) (any, error) {
			flow, _, err := aamgo.MaxFlow(g, 0, 5, c)
			return flow, err
		}},
	}
	for _, shape := range []struct {
		machine string
		threads int
	}{{"has-c", 1}, {"has-c", 8}, {"bgq", 64}} {
		cfg := aamgo.Config{Engine: aamgo.EngineAAM, Machine: shape.machine, Threads: shape.threads, Seed: 5}
		fc := cfg
		fc.Mechanism = aamgo.FlatCombining
		for _, call := range calls {
			want, err := call.run(cfg)
			if err != nil {
				t.Fatalf("%s %s T=%d HTM: %v", call.name, shape.machine, shape.threads, err)
			}
			got, err := call.run(fc)
			if err != nil {
				t.Fatalf("%s %s T=%d: %v", call.name, shape.machine, shape.threads, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s T=%d: flat combining %v, HTM %v", call.name, shape.machine, shape.threads, got, want)
			}
		}
		colors, _, _, err := aamgo.Coloring(g, fc)
		if err != nil {
			t.Fatalf("Coloring %s T=%d: %v", shape.machine, shape.threads, err)
		}
		if !algo.ValidColoring(g, colors) {
			t.Errorf("Coloring %s T=%d: improper coloring %v", shape.machine, shape.threads, colors)
		}
	}
}
