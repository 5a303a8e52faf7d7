package main

import (
	"time"

	"aamgo/internal/graph"
)

// workload is one row of the benchmark's workload table. Everything a run
// does is fixed here except the inputs, which come from the seed; nothing
// is derived from the host (no nproc-scaled constants).
type workload struct {
	name string
	why  string
	// gen builds the workload's graph; tiny selects the smoke profile.
	gen func(seed int64, tiny bool) *graph.Graph
	// engine answers the workload's reads: gblas, shard, cluster, or aam
	// (the daemon's default: the aam engine on the sim runtime).
	engine string
	// bfsSources is the length of the fixed kernel source list (one pass
	// over it is the unit a round repeats) and prIters the PageRank
	// iterations per call for the shard and gblas engines. They set the
	// share of per-call overhead in the kernel metrics, so they are part
	// of the metrics' definition and never calibrated at run time.
	bfsSources int
	prIters    [2]int
	// setups is how many times a plain run sets the system up; setup_s is
	// their median. More of them where one is short.
	setups int
	// Shares of -seconds given to the four timed phases (sum 1). The
	// kernels' share gives each of the four its five rounds of minRound at
	// runSeconds; the rest goes where a request costs most.
	kernels, miss, hit, mixed float64
}

func kron(scale int) func(int64, bool) *graph.Graph {
	return func(seed int64, tiny bool) *graph.Graph {
		if tiny {
			return graph.Kronecker(10, 16, seed)
		}
		return graph.Kronecker(scale, 16, seed)
	}
}

func road(seed int64, tiny bool) *graph.Graph {
	side := 1024
	if tiny {
		side = 32
	}
	return graph.RoadGrid(side, side, 0.1, seed)
}

// workloads is the table BENCHMARK.json mirrors (TestSpecMatchesJSON).
var workloads = []workload{
	{
		name: "kron18",
		why:  "Kronecker scale 18 (262k vertices, 8.4M arcs, out of cache) read via engine=gblas: low diameter, skewed degrees, kernels bound by arc throughput, the engine call is nearly all of a miss",
		gen:  kron(18), engine: "gblas",
		bfsSources: 8, prIters: [2]int{1, 8}, setups: 3,
		kernels: 0.52, miss: 0.15, hit: 0.10, mixed: 0.23,
	},
	{
		name: "road20",
		why:  "1024x1024 road grid (1.05M vertices, 3.8M arcs) read via engine=shard: ~1800 BFS levels of tiny frontiers, so barriers and flushes dominate; N is 4x kron18, so O(N)-per-operation costs show here",
		gen:  road, engine: "shard",
		bfsSources: 2, prIters: [2]int{2, 8}, setups: 3,
		kernels: 0.52, miss: 0.25, hit: 0.05, mixed: 0.18,
	},
	{
		name: "kron16-cluster",
		why:  "Kronecker scale 16 read via engine=cluster (coordinator + 2 TCP ranks on loopback): the only workload where wire codec, per-job graph shipping, state-sync and collectives do the work",
		gen:  kron(16), engine: "cluster",
		bfsSources: 16, prIters: [2]int{4, 48}, setups: 5,
		kernels: 0.52, miss: 0.33, hit: 0.05, mixed: 0.10,
	},
	{
		name: "kron14-aam",
		why:  "Kronecker scale 14 (cache resident) read via the daemon's default aam engine on the sim runtime: the paper's mechanism; fixed per-call overhead dominates, so serve-layer changes show here",
		gen:  kron(14), engine: "aam",
		bfsSources: 32, prIters: [2]int{16, 128}, setups: 9,
		kernels: 0.52, miss: 0.20, hit: 0.10, mixed: 0.18,
	},
}

// shardRoute sends a read through the in-process sharded engine.
const shardRoute = "&engine=shard&shards=2"

// route is the query string the workload's reads carry after src=…
func (w *workload) route() string {
	switch w.engine {
	case "gblas":
		return "&engine=gblas"
	case "shard":
		return shardRoute
	case "cluster":
		return "&engine=cluster&shards=2"
	}
	return "" // the daemon's default
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the gated metrics: what a user of the system sees, with
// the share of the parent's median each may worsen by before a change is a
// regression. The bounds are ISSUE.md's and are never widened: a metric
// that does not repeat within its bound on every workload (-aa, two
// interleaved sets) is moved to demoted instead.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.15},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// demoted lists the end-to-end metrics of ISSUE.md that did not repeat
// within their bound on this class of host (README.md gives each one's
// measured spread). They keep their names and definitions, are reported
// without a bound among the per-layer metrics, and a plain run measures and
// prints them too, so that -aa keeps reporting their spread and a later
// change can move one back to endToEnd on evidence.
var demoted = []metricSpec{
	lower("peak_rss_mb", "MB"),
	higher("bfs_shard_mteps", "Marc/s"),
	higher("bfs_gblas_mteps", "Marc/s"),
	higher("pagerank_shard_mteps", "Marc/s"),
	higher("pagerank_gblas_mteps", "Marc/s"),
	lower("read_miss_p50_ms", "ms"),
	lower("read_miss_p90_ms", "ms"),
	lower("read_hit_p50_us", "us"),
	lower("mixed_read_p50_ms", "ms"),
	lower("write_p50_ms", "ms"),
}

// bounds are ISSUE.md's bounds for the demoted metrics: what -aa holds
// them against, and what they would be gated with.
var bounds = map[string]float64{
	"peak_rss_mb":     0.10,
	"bfs_shard_mteps": 0.10, "bfs_gblas_mteps": 0.10, "pagerank_shard_mteps": 0.10, "pagerank_gblas_mteps": 0.10,
	"read_miss_p50_ms": 0.10, "read_miss_p90_ms": 0.15, "read_hit_p50_us": 0.10, "mixed_read_p50_ms": 0.10, "write_p50_ms": 0.15,
}

// perLayer lists the traced run's metrics: the demoted ones, then layer by
// layer from the outside in. README.md says which end-to-end metric each
// should move.
var perLayer = append(append([]metricSpec(nil), demoted...), layers...)

var layers = []metricSpec{
	lower("graph.gen_ms", "ms"),
	lower("graph.vertices", "count"),
	lower("graph.arcs", "count"),
	lower("graph.edge_partition_ms", "ms"),
	lower("graph.write_binary_ms", "ms"),
	lower("graph.binary_bytes", "B"),

	lower("dyn.new_ms", "ms"),
	lower("dyn.snapshot_us", "us"),
	lower("dyn.freeze_full_ms", "ms"),
	lower("dyn.freeze_incr_ms", "ms"),
	lower("dyn.freeze_touched", "count"),
	lower("dyn.apply_ms_p50", "ms"),
	lower("dyn.apply_aborts", "count"),
	lower("dyn.apply_retries", "count"),
	lower("dyn.compactions", "count"),

	lower("wal.commit_ms_p50", "ms"),
	lower("wal.appends", "count"),
	lower("wal.fsyncs", "count"),
	higher("wal.group_size_mean", "count"),
	lower("wal.bytes_per_mutation", "B"),
	lower("wal.checkpoints", "count"),
	lower("wal.checkpoint_ms", "ms"),
	lower("wal.recover_ms", "ms"),
	lower("wal.replayed_batches", "count"),

	lower("serve.handler_miss_ms_p50", "ms"),
	lower("serve.handler_hit_us_p50", "us"),
	lower("serve.socket_overhead_us", "us"),
	lower("serve.self_miss_us", "us"),
	lower("serve.full_encode_ms", "ms"),
	higher("serve.cache_hits", "count"),
	lower("serve.cache_misses", "count"),
	higher("serve.collapsed", "count"),
	higher("serve.mixed_hit_ratio", "ratio"),
	lower("serve.pool_saturation", "count"),
	lower("serve.read_miss_p99_ms", "ms"),
	lower("serve.write_p90_ms", "ms"),
	lower("serve.pagerank_ms_p50", "ms"),
	lower("serve.sssp_ms_p50", "ms"),
	lower("serve.cc_ms_p50", "ms"),

	lower("shard.bfs_ms_p50", "ms"),
	lower("shard.ns_per_arc", "ns/arc"),
	lower("shard.levels", "count"),
	lower("shard.us_per_level", "us/level"),
	lower("shard.remote_units", "count"),
	lower("shard.remote_batches", "count"),
	higher("shard.units_per_batch", "count"),
	lower("shard.aborts", "count"),
	lower("shard.retries", "count"),
	lower("shard.buffer_allocs", "count"),
	lower("shard.pagerank_ms_per_iter", "ms"),
	higher("shard.sssp_mteps", "Marc/s"),
	lower("shard.cc_ms", "ms"),

	lower("gblas.bfs_ms_p50", "ms"),
	lower("gblas.ns_per_arc", "ns/arc"),
	lower("gblas.bytes_per_arc", "B/arc"),
	lower("gblas.push_steps", "count"),
	lower("gblas.pull_steps", "count"),
	lower("gblas.pagerank_ms_per_iter", "ms"),
	higher("gblas.sssp_mteps", "Marc/s"),

	lower("shard-net.bfs_ms_p50", "ms"),
	lower("shard-net.pagerank_ms_per_iter", "ms"),
	lower("shard-net.wire_bytes_per_job", "B"),
	lower("shard-net.frames_per_job", "count"),
	lower("shard-net.state_sync_bytes_per_job", "B"),
	lower("shard-net.collectives_per_job", "count"),
	lower("shard-net.overhead_x", "x"),
	lower("shard-net.job_retries", "count"),
	lower("shard-net.heartbeat_rtt_us", "us"),

	lower("aam.sim_bfs_wall_ms", "ms"),
	lower("aam.sim_bfs_machine_ms", "ms"),
	lower("aam.sim_txs", "count"),
	lower("aam.sim_aborts", "count"),
	higher("aam.native_bfs_mteps", "Marc/s"),

	lower("host.calib_ms_start", "ms"),
	lower("host.calib_ms_end", "ms"),
	higher("host.nproc", "count"),
	lower("bench.trace_overhead_pct", "%"),

	lower("setup_s.iqr_pct", "%"),
	lower("bfs_shard_mteps.iqr_pct", "%"),
	lower("bfs_gblas_mteps.iqr_pct", "%"),
	lower("pagerank_shard_mteps.iqr_pct", "%"),
	lower("pagerank_gblas_mteps.iqr_pct", "%"),
	lower("read_miss_p50_ms.iqr_pct", "%"),
	lower("read_hit_p50_us.iqr_pct", "%"),
	lower("mixed_read_p50_ms.iqr_pct", "%"),
	lower("write_p50_ms.iqr_pct", "%"),
}

// The load shape: constants, stated in every output, never derived from
// the host.
const (
	procs           = 2 // GOMAXPROCS: the writer runs beside the reader, the two shards beside each other
	clients         = 2 // closed-loop keep-alive connections
	maxConcurrent   = 2 // serve.Config.MaxConcurrent
	shards          = 2 // shard.Config.Shards
	batchSize       = 64
	clusterWorkers  = 2
	checkpointEvery = 256
	hotSources      = 16
	writeBatch      = 16 // edges per POST /edges
)

// ISSUE.md's floors, below which a gated metric is under-sampled; an
// under-sampled run fails (exit 1) instead of reporting.
const (
	rounds     = 5                      // kernel metric = the median over this many rounds
	minRound   = 500 * time.Millisecond // a round's calls last at least this long
	minSamples = 120                    // requests behind a gated latency
)

// runSeconds is BENCHMARK.json's run_seconds: the sum of a run's timed
// regions. The contract allows 92 runs and two builds 3420 s, about 35 s of
// wall time a run; set-ups, references, warm-ups, verification and
// recovery take 6 to 15 of them.
const runSeconds = 20

// runLimit is when a run gives up: well past the longest run, inside the
// 180 s a caller waits.
const runLimit = 150 * time.Second
