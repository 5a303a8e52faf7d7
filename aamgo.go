// Package aamgo is an implementation and reproduction study of Atomic
// Active Messages (AAM) — Besta & Hoefler, "Accelerating Irregular
// Computations with Hardware Transactional Memory and Active Messages"
// (HPDC'15) — as a pure-Go library.
//
// AAM executes fine-grained graph operators as activities spawned by
// active messages and isolated by hardware transactional memory. The
// library provides:
//
//   - the AAM runtime (operator registry, FF/FR × AS/MF message taxonomy,
//     runtime coarsening of M operators per transaction, coalescing of C
//     operators per message, failure handlers, and the ownership protocol
//     for distributed transactions);
//   - two interchangeable machine backends: a deterministic discrete-event
//     simulator with emulated Haswell-TSX and Blue Gene/Q HTM (used to
//     reproduce the paper's evaluation — see DESIGN.md for the
//     substitution argument), and a native backend running on real
//     goroutines with a TL2-style STM;
//   - graph algorithms expressed as AAM operators (BFS, PageRank, Boruvka
//     MST, SSSP, ST-connectivity, Boman coloring, connected components,
//     Edmonds-Karp max flow) together with the baselines the paper
//     compares against (Graph500 atomics, Galois-style locking, HAMA-style
//     BSP, PBGL-style active messages, PAMI/MPI-3-RMA one-sided atomics);
//   - the paper's §7/§8 future work: optimistic-locking and flat-combining
//     isolation, the single-vertex tx→atomic lowering pass, sampling-based
//     M prediction, and a GraphBLAS layer (package aamgo/gblas);
//   - a benchmark harness that regenerates every table and figure of the
//     paper's evaluation (internal/bench, cmd/aam-bench).
//
// The quickest entry points are the algorithm façades below; distributed
// transactions on a raw machine use NewOwnership and NewMachine.
package aamgo

import (
	"fmt"
	"slices"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/query"
	"aamgo/internal/run"
	"aamgo/internal/shard"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// Graph is the CSR graph type shared by all algorithms.
type Graph = graph.Graph

// Builder constructs graphs edge by edge.
type Builder = graph.Builder

// NewBuilder returns a Builder for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Generators (see internal/graph for the full set).
var (
	// Kronecker generates a Graph500-style R-MAT power-law graph with
	// 2^scale vertices and edgeFactor·2^scale edges.
	Kronecker = graph.Kronecker
	// ErdosRenyi generates G(n, p).
	ErdosRenyi = graph.ErdosRenyi
	// RoadGrid generates a road-network-like partial grid.
	RoadGrid = graph.RoadGrid
	// BarabasiAlbert generates a preferential-attachment graph.
	BarabasiAlbert = graph.BarabasiAlbert
	// Community generates a clustered social-network-like graph.
	Community = graph.Community
	// WebGraph generates a bow-tie web-like graph.
	WebGraph = graph.WebGraph
	// CitationDAG generates a layered citation-like DAG.
	CitationDAG = graph.CitationDAG
	// ReadEdgeList parses a whitespace-separated edge list.
	ReadEdgeList = graph.ReadEdgeList
	// WriteEdgeList writes a graph as an edge list.
	WriteEdgeList = graph.WriteEdgeList
	// ReadMETIS parses the METIS .graph interchange format.
	ReadMETIS = graph.ReadMETIS
	// WriteMETIS writes the METIS .graph interchange format.
	WriteMETIS = graph.WriteMETIS
	// ReadBinary parses the compact binary CSR format.
	ReadBinary = graph.ReadBinary
	// WriteBinary writes the compact binary CSR format.
	WriteBinary = graph.WriteBinary
	// ReadAuto sniffs binary/METIS/edge-list input and parses it.
	ReadAuto = graph.ReadAuto
)

// Mechanism selects how activities are isolated (§4.1 of the paper).
type Mechanism = aam.Mechanism

// Isolation mechanisms. HTM, Atomic and Lock are the paper's §4.1
// comparison; Optimistic (Kung-Robinson optimistic locking) and
// FlatCombining (Hendler et al.) are the alternative mechanisms named in
// the paper's conclusion, implemented as extensions.
const (
	HTM           = aam.MechHTM
	Atomic        = aam.MechAtomic
	Lock          = aam.MechLock
	Optimistic    = aam.MechOptimistic
	FlatCombining = aam.MechFlatCombining
)

// Execution engines (Config.Engine): three interchangeable realizations
// of every algorithm the engine axis covers. They produce bit-identical
// results — BFS level sets, SSSP distances, PageRank Q24.40 rank bits —
// so the choice is purely a performance/observability trade.
const (
	// EngineAAM is the paper's machine: one AAM runtime (sim or native per
	// Config.Runtime), operators isolated by Config.Mechanism.
	EngineAAM = query.EngineAAM
	// EngineShard is the shard-parallel executor (internal/shard): real
	// goroutines, coalesced cross-shard batches, per-shard counters.
	EngineShard = query.EngineShard
	// EngineGBLAS is the vectorized GraphBLAS engine (internal/gblas):
	// frontiers as sparse vectors, push = SpMSpV, pull = masked SpMV over
	// the CSR, direction-optimized with the same Beamer heuristic as
	// EngineShard. Covers BFS, SSSP and PageRank.
	EngineGBLAS = query.EngineGBLAS
)

// Engines lists the valid Config.Engine values.
var Engines = []string{EngineAAM, EngineShard, EngineGBLAS}

// Config selects the engine, machine and runtime parameters for one run.
type Config struct {
	// Engine picks the execution engine: EngineAAM, EngineShard or
	// EngineGBLAS. Empty preserves the historical default — EngineShard
	// when Shards > 1, EngineAAM otherwise.
	Engine string
	// Runtime is "sim" (deterministic, virtual time — the default) or
	// "native" (real goroutines and wall-clock time). It only shapes
	// EngineAAM runs; the shard and gblas engines are always native.
	Runtime string
	// Machine is the simulated machine profile: "bgq" (Blue Gene/Q node,
	// 64 threads), "has-c" (Haswell commodity box, 8 threads), or
	// "has-p" (Haswell-EP server, 24 threads). Default "has-c".
	Machine string
	// HTMVariant selects the HTM implementation: "rtm"/"hle" on Haswell,
	// "short"/"long" on BG/Q. Empty selects the machine default.
	HTMVariant string
	// Nodes and Threads shape the machine (defaults 1 and the machine's
	// hardware thread count).
	Nodes   int
	Threads int
	// Mechanism isolates activities: HTM (default), Atomic, Lock,
	// Optimistic or FlatCombining.
	Mechanism Mechanism
	// M is the coarsening factor: operators per transaction (default 16).
	M int
	// C is the coalescing factor: operators per inter-node message
	// (default 64).
	C int
	// AutoM enables online selection of M (hill climb on throughput).
	AutoM bool
	// PredictM chooses M before the run by combining the §5.3
	// performance model with graph sampling (§7 future work); it
	// overrides M and composes with AutoM (prediction seeds the climb).
	PredictM bool
	// LowerSingle enables the §7 lowering pass: single-operator HTM
	// activities whose footprint pattern-matches an atomic run through
	// the operator's atomic implementation instead.
	LowerSingle bool
	// Seed fixes workload and simulator randomness (default 1).
	Seed int64
	// Shards shapes the EngineShard executor: one shard per vertex block
	// on real goroutines, cross-shard operators coalesced into batches of
	// C units, local application isolated by Mechanism. Shards > 1 with an
	// empty Engine selects EngineShard (the historical one-knob behavior);
	// Engine = EngineShard with Shards unset defaults to 2. Results are
	// identical to the single-runtime path (see the package shard docs;
	// for MST and Coloring they are certified-equivalent: same forest
	// weight and min-id component labels, a valid deterministic coloring);
	// RunInfo.Stats stays empty and RunInfo.Shard carries the per-shard
	// counters.
	Shards int
	// Part selects the sharded vertex distribution: PartBlock (default,
	// equal vertex counts per shard) or PartEdge (edge-balanced prefix-sum
	// boundaries, the skew-resistant choice for power-law graphs). Only
	// meaningful with Shards > 1; results are identical under both.
	Part PartScheme
}

func (c Config) resolve() (exec.MachineProfile, Config, error) {
	if c.Runtime == "" {
		c.Runtime = run.Sim
	}
	if err := run.Check(c.Runtime); err != nil {
		return exec.MachineProfile{}, c, fmt.Errorf("aamgo: %w", err)
	}
	switch c.Engine {
	case "", EngineAAM, EngineShard, EngineGBLAS:
	default:
		return exec.MachineProfile{}, c, fmt.Errorf("aamgo: unknown engine %q (valid: aam, shard, gblas)", c.Engine)
	}
	if (c.Engine == EngineAAM || c.Engine == EngineGBLAS) && c.Shards > 1 {
		return exec.MachineProfile{}, c, fmt.Errorf("aamgo: Engine=%s conflicts with Shards=%d (the %[1]s engine is unsharded)", c.Engine, c.Shards)
	}
	if c.Engine == EngineShard && c.Shards < 2 {
		c.Shards = 2
	}
	if c.Machine == "" {
		c.Machine = "has-c"
	}
	prof, err := exec.ProfileByName(c.Machine)
	if err != nil {
		return prof, c, err
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Threads <= 0 {
		c.Threads = prof.MaxThreads
	}
	if c.M <= 0 {
		c.M = 16
	}
	if c.C <= 0 {
		c.C = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return prof, c, nil
}

// predictM applies the sampling-based M prediction for graph g when
// requested.
func (c Config) predictM(g *Graph, prof *exec.MachineProfile) Config {
	if c.PredictM && c.Mechanism == aam.MechHTM {
		c.M = aam.PredictM(g, prof, c.HTMVariant, c.Threads, c.Seed)
	}
	return c
}

func (c Config) engine(prof *exec.MachineProfile) aam.Config {
	var variant *exec.HTMProfile
	if c.Mechanism == aam.MechHTM {
		variant = prof.HTMVariant(c.HTMVariant)
	}
	return aam.Config{
		M:           c.M,
		C:           c.C,
		Mechanism:   c.Mechanism,
		HTM:         variant,
		AutoM:       c.AutoM,
		LowerSingle: c.LowerSingle,
	}
}

// Stats aggregates the machine-wide execution counters of one run.
type Stats = stats.Total

// RunInfo reports one algorithm execution.
type RunInfo struct {
	// Elapsed is virtual time on the sim backend and wall time on the
	// native backend.
	Elapsed time.Duration
	Stats   Stats
	// Shard is the sharded executor's own report — epochs and per-shard
	// counters (operators, remote units and batches, aborts, retries) — and
	// nil off the shard engine.
	Shard *ShardedResult
}

func info(res *exec.Result) RunInfo {
	return RunInfo{Elapsed: time.Duration(res.Elapsed), Stats: res.Stats}
}

// Run is the one dispatch behind the registry-backed façades below, for a
// caller that has the algorithm's registry name rather than a Go call
// (aam-run): validate, resolve the engine, run the named algorithm's
// descriptor on it and report the engine's own clock (plus counters on
// the aam and shard engines). The typed façades are adapters over it.
func Run(name string, g *Graph, a query.Args, c Config) (query.Result, RunInfo, error) {
	d := query.Lookup(name)
	if d == nil {
		return query.Result{}, RunInfo{}, fmt.Errorf("aamgo: unknown algorithm %q", name)
	}
	if d.Weighted && g.Weights == nil {
		return query.Result{}, RunInfo{}, fmt.Errorf("aamgo: %s needs edge weights (use Builder.WithWeights)", d.Title)
	}
	prof, c, err := c.resolve()
	if err != nil {
		return query.Result{}, RunInfo{}, err
	}
	sourced := slices.ContainsFunc(d.Params, func(p query.Param) bool { return p.Name == "src" })
	if sourced && (a.Src < 0 || a.Src >= g.N) {
		return query.Result{}, RunInfo{}, fmt.Errorf("aamgo: %s source %d out of range [0,%d)", d.Title, a.Src, g.N)
	}
	// The explicit Engine, else the historical implicit selection: shard
	// when Shards > 1, aam otherwise.
	eng := c.Engine
	if eng == "" {
		eng = EngineAAM
		if c.Shards > 1 {
			eng = EngineShard
		}
	}
	if d.Engines[eng] == nil {
		return query.Result{}, RunInfo{}, fmt.Errorf("aamgo: %v", d.NotImplemented(eng, d.Title))
	}
	if eng == EngineAAM && d.PredictM {
		c = c.predictM(g, &prof)
	}
	res, err := d.Run(eng, g, a, c.env(&prof))
	if err != nil {
		return query.Result{}, RunInfo{}, err
	}
	switch {
	case res.AAM != nil:
		return res, info(res.AAM), nil
	case res.Shard != nil:
		return res, RunInfo{Elapsed: res.Shard.Elapsed, Shard: res.Shard}, nil
	default:
		return res, RunInfo{Elapsed: res.GBLAS.Elapsed}, nil
	}
}

// env maps the resolved Config onto what the registry's run funcs read;
// for the shard executor C becomes the coalescing batch size, Mechanism
// the per-shard isolation and Part the vertex distribution.
func (c Config) env(prof *exec.MachineProfile) query.Env {
	return query.Env{
		Runtime: c.Runtime, Profile: prof, Nodes: c.Nodes, Threads: c.Threads, Seed: c.Seed,
		AAM:   c.engine(prof),
		Shard: shard.Config{Shards: c.Shards, BatchSize: c.C, Mechanism: c.Mechanism, Part: c.Part},
	}
}

// BFSResult carries the BFS tree: Parents[v] is the parent of v (source's
// parent is itself), or -1 when v is unreachable.
type BFSResult struct {
	Parents []int64
	RunInfo
}

// BFS runs a breadth-first search from src on the engine Config.Engine
// selects. All engines return a valid BFS tree with identical level sets;
// parents may differ between engines (each picks one valid previous-level
// parent per vertex).
func BFS(g *Graph, src int, c Config) (BFSResult, error) {
	res, ri, err := Run("bfs", g, query.Args{Src: src}, c)
	return BFSResult{Parents: res.Parents, RunInfo: ri}, err
}

// PageRank runs the vertex-centric PageRank on the engine Config.Engine
// selects and returns the rank vector (summing to ≈1). Ranks accumulate in
// Q24.40 fixed point on every engine, so the vector is bit-identical
// across engines.
func PageRank(g *Graph, damping float64, iterations int, c Config) ([]float64, RunInfo, error) {
	res, ri, err := Run("pagerank", g, query.Args{Damping: damping, Iters: iterations}, c)
	return res.Ranks, ri, err
}

// SymmetricWeight returns a deterministic symmetric edge-weight function
// for Builder.WithWeights, as required by MST and SSSP.
var SymmetricWeight = graph.SymmetricWeight

// AttachSymmetricWeights returns a shallow copy of g carrying
// SymmetricWeight(seed) edge weights (adjacency shared, fresh weight
// array) — the quickest way to run MST or SSSP over an unweighted graph.
var AttachSymmetricWeights = graph.AttachSymmetricWeights

// MST runs the AAM Boruvka minimum-spanning-forest algorithm and returns
// the total forest weight and per-vertex component labels. The graph must
// carry edge weights (Builder.WithWeights).
func MST(g *Graph, c Config) (weight uint64, components []int32, ri RunInfo, err error) {
	res, ri, err := Run("mst", g, query.Args{}, c)
	return res.Weight, res.Labels, ri, err
}

// Coloring runs Boman et al.'s distributed coloring heuristic and returns
// the per-vertex colors (0-based) and the number of colors used.
func Coloring(g *Graph, c Config) ([]int32, int, RunInfo, error) {
	// Seed 0 (the Config zero value) selects the identity priority order
	// of the sharded coloring, which reproduces the sequential greedy
	// coloring exactly; any other seed is a Luby-style random order.
	res, ri, err := Run("coloring", g, query.Args{Seed: uint64(c.Seed)}, c)
	return res.Colors, res.Used, ri, err
}

// SSSP runs single-source shortest paths over the graph's edge weights on
// the engine Config.Engine selects (the GraphBLAS system's min-plus
// frontier rounds as AAM activities on aam, delta-stepping with an
// auto-selected delta on shard, the vectorized min-plus product on gblas —
// the distance vector is the unique Bellman fixed point, hence identical)
// and returns the distance vector (MaxUint64 for unreachable vertices).
func SSSP(g *Graph, src int, c Config) ([]uint64, RunInfo, error) {
	res, ri, err := Run("sssp", g, query.Args{Src: src}, c)
	return res.Dists, ri, err
}

// MaxFlow computes the maximum s→t flow over the graph's edge weights
// (capacities), running each Edmonds-Karp augmenting-path search as a
// parallel AAM BFS over the residual network — the Ford-Fulkerson family
// the paper names BFS a proxy for (§6). Single node; Config.Nodes is
// ignored.
func MaxFlow(g *Graph, s, t int, c Config) (uint64, RunInfo, error) {
	if g.Weights == nil {
		return 0, RunInfo{}, fmt.Errorf("aamgo: MaxFlow needs edge weights (use Builder.WithWeights)")
	}
	prof, c, err := c.resolve()
	if err != nil {
		return 0, RunInfo{}, err
	}
	if s < 0 || s >= g.N || t < 0 || t >= g.N || s == t {
		return 0, RunInfo{}, fmt.Errorf("aamgo: MaxFlow endpoints %d,%d invalid for %d vertices", s, t, g.N)
	}
	// Only the aam engine implements max flow; an explicitly requested
	// other engine is an error, while the historical implicit selection
	// (Shards > 1, Engine empty) keeps running here as before.
	if c.Engine == EngineShard || c.Engine == EngineGBLAS {
		return 0, RunInfo{}, fmt.Errorf("aamgo: engine %s does not implement MaxFlow (use aam)", c.Engine)
	}
	c = c.predictM(g, &prof)
	f := algo.NewMaxFlow(g)
	m, res := c.env(&prof).RunAAM(1, f, f.Body(s, t, c.engine(&prof)))
	return f.Value(m), info(res), nil
}

// Connected reports whether s and t are connected, using the paper's
// FR&AS two-color concurrent search (§3.3.4).
func Connected(g *Graph, s, t int, c Config) (bool, RunInfo, error) {
	prof, c, err := c.resolve()
	if err != nil {
		return false, RunInfo{}, err
	}
	if s < 0 || s >= g.N || t < 0 || t >= g.N {
		return false, RunInfo{}, fmt.Errorf("aamgo: Connected endpoints %d,%d invalid for %d vertices", s, t, g.N)
	}
	if c.Engine == EngineShard || c.Engine == EngineGBLAS {
		return false, RunInfo{}, fmt.Errorf("aamgo: engine %s does not implement Connected (use aam)", c.Engine)
	}
	st := algo.NewSTConn(g, c.Nodes)
	m, res := c.env(&prof).RunAAM(c.Nodes, st, st.Body(s, t, c.engine(&prof)))
	return st.Connected(m), info(res), nil
}

// Components labels connected components and returns the per-vertex label
// vector: each vertex carries the smallest vertex id of its component. On
// the aam engine it is min-label propagation in gblas.System's min-plus
// frontier rounds.
func Components(g *Graph, c Config) ([]int32, RunInfo, error) {
	res, ri, err := Run("cc", g, query.Args{}, c)
	return res.Labels, ri, err
}

// Sharded execution (internal/shard): every registry algorithm across
// multiple graph shards on real goroutines, with cross-shard active
// messages routed through per-destination coalescing buffers and applied
// as batched May-Fail operators. Config{Engine: EngineShard} is the way
// in; the executor's further knobs (workers per shard, flush policy, BFS
// direction, an explicit SSSP delta) are internal/shard's Config.
type (
	// ShardedStats is one shard's execution counters (local/remote
	// operator counts, aborts, retries, serializations, combines).
	ShardedStats = shard.Stats
	// ShardedResult carries wall time, epoch count and per-shard stats.
	ShardedResult = shard.Result
	// PartScheme selects the sharded vertex distribution (block or
	// edge-balanced).
	PartScheme = shard.PartScheme
)

// Sharded vertex distributions.
const (
	// PartBlock splits the vertex set into equal-count contiguous blocks
	// (the paper's §3.1 1-D distribution).
	PartBlock = shard.PartBlock
	// PartEdge balances outgoing-arc counts per shard instead — prefix-sum
	// boundaries over the degree array with a binary-search Owner.
	PartEdge = shard.PartEdge
)

// Dynamic-graph subsystem (internal/dyn): a mutable graph whose edge
// mutations execute as transactional AAM batches under any of the five
// isolation mechanisms, with epoch-based immutable snapshots for concurrent
// analytics readers and incrementally maintained connected components. The
// aam-serve daemon (cmd/aam-serve) exposes it over HTTP.
type (
	// DynGraph is the mutable, concurrently updatable graph.
	DynGraph = dyn.Graph
	// DynSnapshot is an immutable epoch-stamped view of a DynGraph;
	// Freeze() materializes it as a static Graph for the algorithms above.
	DynSnapshot = dyn.Snapshot
	// Mutation is one element of a transactional batch.
	Mutation = dyn.Mutation
	// DynTxConfig tunes the transactional phase of one mutation batch
	// (mechanism, backend, machine profile, M/C).
	DynTxConfig = dyn.TxConfig
	// BatchResult reports one applied batch (applied/rejected counts,
	// epoch, abort statistics).
	BatchResult = dyn.BatchResult
	// FreezeStats counts snapshot-materialization work: incremental
	// (patched-CSR) freezes vs full rebuilds, and the touched-vertex /
	// spliced-arc totals that certify freeze cost stays O(changes).
	FreezeStats = dyn.FreezeStats
)

// NewDynGraph wraps a static undirected graph for dynamic updates; the base
// must not be mutated afterwards, and NewDynGraph may reorder each adjacency
// segment of an unweighted base's Adj in place.
func NewDynGraph(base *Graph) (*DynGraph, error) { return dyn.New(base) }

// DynAddEdge returns a mutation inserting an undirected edge.
func DynAddEdge(u, v int32) Mutation { return dyn.AddEdge(u, v) }

// DynRemoveEdge returns a mutation deleting an undirected edge (and its
// parallel copies).
func DynRemoveEdge(u, v int32) Mutation { return dyn.RemoveEdge(u, v) }

// DynAddVertex returns a mutation appending one isolated vertex.
func DynAddVertex() Mutation { return dyn.AddVertex() }

// Low-level re-exports for running code on a raw machine; see
// ExampleOwnership for usage.
type (
	// Context is the per-thread machine handle.
	Context = exec.Context
	// Tx is the transactional memory view inside a transaction.
	Tx = exec.Tx
	// Machine is a constructed machine instance.
	Machine = exec.Machine
	// MachineConfig configures a raw machine.
	MachineConfig = exec.Config
	// MachineProfile is the per-architecture cost model.
	MachineProfile = exec.MachineProfile
)

// Distributed-transaction support (§4.3's ownership protocol): activities
// implemented as local hardware transactions that migrate remote graph
// elements first.
type (
	// Ownership runs the §4.3 protocol over one machine.
	Ownership = aam.Ownership
	// OwnershipLayout fixes the marker/data/mailbox memory regions.
	OwnershipLayout = aam.OwnershipLayout
	// GlobalRef names a remote element: owner node and element index.
	GlobalRef = aam.GlobalRef
	// DistTxResult reports one distributed transaction.
	DistTxResult = aam.DistTxResult
)

// NewOwnership returns a protocol instance for the given layout.
func NewOwnership(layout OwnershipLayout) *Ownership { return aam.NewOwnership(layout) }

// NewMachine constructs a machine of the given backend ("sim"/"native").
func NewMachine(backend string, cfg MachineConfig) Machine { return run.New(backend, cfg) }

// ProfileByName resolves "has-c", "has-p" or "bgq".
func ProfileByName(name string) (MachineProfile, error) { return exec.ProfileByName(name) }

// Elapsed converts the simulator's virtual time to a time.Duration.
func Elapsed(t vtime.Time) time.Duration { return time.Duration(t) }
