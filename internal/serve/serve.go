// Package serve implements the aam-serve query/update daemon: a JSON/HTTP
// front end over the dynamic-graph subsystem (internal/dyn). Writers POST
// and DELETE edge batches, which execute as transactional AAM batches under
// the configured isolation mechanism; readers hit the query endpoints,
// which run the static analytics of internal/algo against epoch-stamped
// immutable snapshots, so reads and writes proceed concurrently. A bounded
// worker pool caps in-flight request work.
//
// Endpoints:
//
//	POST   /edges               {"edges":[[u,v],...]}   insert a batch
//	DELETE /edges               {"edges":[[u,v],...]}   delete a batch
//	POST   /vertices            {"count":k}             append k vertices
//	GET    /graph                                       size/epoch summary
//	GET    /query/bfs?src=V[&full=1]                    BFS from V
//	GET    /query/cc                                    incremental components
//	GET    /query/pagerank[?iters=I&damping=D&top=K]    PageRank
//	GET    /query/sssp?src=V[&delta=D&wseed=S&full=1]   delta-stepping SSSP
//	GET    /query/mst[?wseed=S&full=1]                  Borůvka spanning forest
//	GET    /query/coloring[?shards=N&seed=S&full=1]     greedy coloring
//	GET    /stats                                       lifetime counters
//	GET    /debug/pprof/...                             profiling (Config.EnablePprof)
//
// The dynamic graph is unweighted; SSSP and MST synthesize deterministic
// symmetric edge weights from ?wseed= (default 1) via graph.SymmetricWeight,
// so repeated queries over the same epoch and seed see identical weights.
//
// Mutation endpoints accept ?mech={htm,atomic,lock,occ,flatcomb} to
// override the server's default isolation mechanism per request.
//
// Query endpoints accept ?engine={aam,shard,gblas} to pick the execution
// engine explicitly; the effective engine is echoed in every response
// (and its trace span), and unknown or conflicting values are rejected
// with 400:
//
//   - aam (the default): the single AAM runtime. ?mech= selects its
//     isolation mechanism; ?shards= above 1 conflicts.
//   - shard: the sharded executor (internal/shard) over the frozen
//     snapshot — requires ?shards=N (N > 1): one shard per vertex block on
//     real goroutines, cross-shard operators coalesced into batches of C
//     units. ?mech= selects the per-shard isolation mechanism and
//     ?part={block,edge} the vertex distribution (block vertex counts vs
//     edge-balanced boundaries). ?shards=N alone implies engine=shard.
//   - gblas: the vectorized masked-SpMV engine (internal/gblas), bfs,
//     sssp and pagerank only; ?shards=, ?mech= and ?part= do not apply.
//
// Results are identical across engines (bit-identical BFS level sets,
// SSSP distances and PageRank ranks); responses gain engine-specific
// counters (shard/messaging totals, push/pull step splits).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/dyn"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/obs"
	"aamgo/internal/query"
	"aamgo/internal/run"
	"aamgo/internal/shard"
	"aamgo/internal/stats"
	"aamgo/internal/wal"
)

// Config shapes the daemon.
type Config struct {
	// Mechanism is the default isolation mechanism for mutation batches.
	Mechanism aam.Mechanism
	// Runtime runs batches and queries on "sim" (default, deterministic)
	// or "native" machines.
	Runtime string
	// Machine is the simulated machine profile (default "has-c").
	Machine string
	// Threads per machine run (default 4).
	Threads int
	// M and C are the AAM coarsening/coalescing factors (defaults 16/64).
	M, C int
	// MaxConcurrent bounds the worker pool: at most this many requests
	// execute graph work at once; further requests wait (default 8).
	MaxConcurrent int
	// MaxQueueWait bounds how long a request may wait for a pool slot.
	// Past the budget the server sheds the request with 429 and a
	// Retry-After hint instead of stacking an unbounded convoy behind the
	// pool. 0 (the default) preserves the historical behavior: wait until
	// a slot frees or the client goes away.
	MaxQueueWait time.Duration
	// Cluster, when non-nil, is the distributed worker cluster behind
	// ?engine=cluster queries. It can also be attached later (after its
	// workers have joined) via SetCluster.
	Cluster *shard.Cluster
	// CacheBytes bounds the epoch-keyed query cache (LRU by total body
	// bytes). 0 selects the 32 MiB default; negative disables the cache
	// (singleflight collapsing included — ETag/304 handling stays on).
	CacheBytes int64
	// Seed fixes machine randomness (default 1).
	Seed int64
	// EnablePprof registers the net/http/pprof handlers under
	// /debug/pprof/ (off by default: the profiling surface is opt-in via
	// aam-serve's -pprof flag). Profile handlers bypass the worker pool —
	// they must respond even when every pool slot is busy, which is
	// exactly when a profile is wanted.
	EnablePprof bool
	// SlowlogK bounds the /debug/slowlog ring: the K slowest query spans
	// are retained (default 32).
	SlowlogK int
	// Logger receives structured request and lifecycle logs (per-request
	// lines at Debug). Nil uses slog.Default().
	Logger *slog.Logger
	// WAL, when non-nil, is the write-ahead log already attached to the
	// graph (wal.Open wires the hook). The server only observes it: its
	// counters join /metrics and /stats, Drain syncs it, and a durability
	// failure on a mutation answers 503 instead of 400 — the batch is
	// applied in memory but the caller must not treat it as durable.
	WAL *wal.Log
}

func (c Config) resolve() (Config, exec.MachineProfile, error) {
	if c.Runtime == "" {
		c.Runtime = run.Sim
	}
	if c.Machine == "" {
		c.Machine = "has-c"
	}
	prof, err := exec.ProfileByName(c.Machine)
	if err != nil {
		return c, prof, err
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Threads > prof.MaxThreads {
		c.Threads = prof.MaxThreads
	}
	if c.M <= 0 {
		c.M = 16
	}
	if c.C <= 0 {
		c.C = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SlowlogK <= 0 {
		c.SlowlogK = 32
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c, prof, nil
}

// Server is the HTTP front end over one dynamic graph.
type Server struct {
	g    *dyn.Graph
	cfg  Config
	prof exec.MachineProfile
	sem  chan struct{}
	mux  *http.ServeMux
	t0   time.Time

	cache *queryCache // nil when Config.CacheBytes < 0
	boot  uint64      // per-instance ETag nonce (epochs restart every boot)

	// Telemetry: a per-instance registry (rendered by /metrics alongside
	// obs.Default), per-endpoint instruments, the slow-query log and the
	// structured logger.
	reg           *obs.Registry
	ep            map[string]*endpointMetrics
	engLat        map[string]*obs.Histogram
	poolSaturated *obs.Counter
	slow          *slowlog
	log           *slog.Logger

	requests    atomic.Uint64
	queries     atomic.Uint64 // computed queries (cache hits and 304s excluded)
	mutations   atomic.Uint64
	rejected    atomic.Uint64 // requests that failed validation (4xx)
	throttled   atomic.Uint64 // requests shed with 429 past MaxQueueWait
	fallbacks   atomic.Uint64 // cluster queries degraded to in-process
	notModified atomic.Uint64 // ETag If-None-Match hits answered 304

	// cluster is the attached distributed worker cluster (nil until
	// SetCluster); ?engine=cluster queries route through it and degrade
	// to in-process execution when it cannot answer.
	cluster atomic.Pointer[shard.Cluster]

	draining atomic.Bool // Drain called: pool admits no new work
}

// route is one row of the daemon's route table; query marks the analytics
// endpoints, whose spans feed the slowlog and whose percentiles surface in
// /stats.
type route struct {
	path, name string
	h          http.HandlerFunc
	query      bool
}

// New builds a server over g.
func New(g *dyn.Graph, cfg Config) (*Server, error) {
	cfg, prof, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	s := &Server{
		g:    g,
		cfg:  cfg,
		prof: prof,
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		mux:  http.NewServeMux(),
		t0:   time.Now(),
		boot: uint64(time.Now().UnixNano()),
	}
	if cfg.CacheBytes > 0 {
		s.cache = newQueryCache(cfg.CacheBytes)
	}
	if cfg.Cluster != nil {
		s.cluster.Store(cfg.Cluster)
	}
	s.reg = obs.NewRegistry()
	s.slow = newSlowlog(cfg.SlowlogK)
	s.log = cfg.Logger
	// GET endpoints whose body is a pure function of (epoch, params) — /graph
	// plus one route per registry entry — run behind the epoch-keyed cache:
	// ETag short-circuit, then LRU replay, then singleflight-collapsed
	// computation inside the worker pool. /stats, /metrics and
	// /debug/slowlog are uncacheable live reads (no ETag, Cache-Control:
	// no-store), so a poller can never observe counters frozen behind a
	// 304; the last two also bypass the worker pool, like pprof — they must
	// answer exactly when every pool slot is busy.
	routes := []route{
		{"/edges", "edges", s.pooled(s.handleEdges), false},
		{"/vertices", "vertices", s.pooled(s.handleVertices), false},
		{"/graph", "graph", s.cachedGET(s.pooled(s.handleGraph)), true},
	}
	for _, d := range query.Registry {
		routes = append(routes, route{"/query/" + d.Name, d.Name, s.cachedGET(s.pooled(s.handleQuery(d))), true})
	}
	routes = append(routes,
		route{"/stats", "stats", s.pooled(s.handleStats), false},
		route{"/metrics", "metrics", s.handleMetrics, false},
		route{"/debug/slowlog", "slowlog", s.handleSlowlog, false})
	s.initMetrics(routes)
	g.RegisterMetrics(s.reg)
	if cfg.WAL != nil {
		cfg.WAL.RegisterMetrics(s.reg)
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.path, s.instrumented(rt.name, rt.h))
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// SetCluster attaches (nil detaches) the distributed worker cluster
// behind ?engine=cluster. Safe to call while serving: the daemon attaches
// the cluster once its workers have joined; until then engine=cluster
// requests answer 400.
func (s *Server) SetCluster(c *shard.Cluster) { s.cluster.Store(c) }

// pooled gates h behind the bounded worker pool. A request whose client
// goes away while queued is dropped without running. Requests that find
// every slot busy are counted as pool saturation before they wait. Once
// Drain has been called, nothing new is admitted: a mutation that never
// enters the pool is cleanly rejected, never half-applied.
func (s *Server) pooled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.poolSaturated.Inc()
			if !s.awaitSlot(w, r) {
				return
			}
		}
		defer func() { <-s.sem }()
		h(w, r)
	}
}

// awaitSlot queues one request on the worker pool. With MaxQueueWait set
// the wait is bounded: admission control answers 429 with a Retry-After
// hint when the budget expires, so under sustained overload clients see
// an honest backpressure signal instead of unbounded queueing — the pool
// keeps serving the requests it already admitted at full speed.
func (s *Server) awaitSlot(w http.ResponseWriter, r *http.Request) bool {
	var expired <-chan time.Time
	if s.cfg.MaxQueueWait > 0 {
		t := time.NewTimer(s.cfg.MaxQueueWait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-expired:
		s.throttled.Add(1)
		retry := int((s.cfg.MaxQueueWait + time.Second - 1) / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "server busy: queue wait budget exhausted", http.StatusTooManyRequests)
		return false
	case <-r.Context().Done():
		http.Error(w, "canceled while queued", http.StatusServiceUnavailable)
		return false
	}
}

// Drain quiesces the write path for shutdown: new pool entrants are
// rejected with 503, then every pool slot is acquired — so any request
// already inside the pool has finished (for a mutation: Apply returned,
// meaning its WAL record is durable under the configured mode) — and
// finally the WAL tail is synced. After Drain returns, the graph holds no
// half-applied batch: every acknowledged mutation is on disk, every
// unacknowledged one was rejected whole. The pool stays closed for good;
// Drain is called once, on the way down.
func (s *Server) Drain() error {
	s.draining.Store(true)
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		s.sem <- struct{}{}
	}
	if s.cfg.WAL != nil {
		return s.cfg.WAL.Sync()
	}
	return nil
}

// mutateStatus maps an Apply error to its HTTP status: a durability
// failure is the server's fault (503 — the batch applied in memory but
// the log could not make it durable), everything else is a caller error.
func mutateStatus(err error) int {
	if errors.Is(err, dyn.ErrDurability) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// etagMatch implements the If-None-Match comparison (weak comparison is
// fine here: our tags are exact strings). "*" is deliberately not
// special-cased: it would short-circuit before request validation and
// 304 requests that have no current representation (e.g. a 400).
func etagMatch(headerVal, etag string) bool {
	for _, part := range strings.Split(headerVal, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

// cachedGET layers the read-path fast paths over a GET query handler:
//
//  1. If-None-Match against the epoch-derived ETag → 304, no body, no
//     graph work;
//  2. epoch-keyed LRU lookup → replay the cached bytes (worker pool
//     bypassed);
//  3. singleflight: one leader computes inside the worker pool, every
//     concurrent identical request waits and replays the leader's bytes.
//
// Results are stored only when the graph epoch was stable across the
// computation, so a cached body always matches its key's epoch; lookups
// always key on the current epoch, so a mutation implicitly invalidates
// every older entry.
func (s *Server) cachedGET(inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			inner(w, r)
			return
		}
		key := cacheKey{epoch: s.g.Epoch(), path: r.URL.Path, params: canonicalParams(r.URL.Query())}
		etag := key.etag(s.boot)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			s.notModified.Add(1)
			spanOf(r).Outcome = "304"
			w.Header().Set("ETag", etag)
			w.Header().Set("X-Cache", "304")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if s.cache == nil {
			spanOf(r).Outcome = "bypass"
			w.Header().Set("X-Cache", "bypass")
			rec := newBodyRecorder()
			inner(rec, r)
			// Tag only epoch-stable 200s (same rule as the caching leader):
			// a tagged 4xx would let the 304 precheck validate an error.
			tag := ""
			if rec.status == http.StatusOK && s.g.Epoch() == key.epoch {
				tag = etag
			}
			s.replay(w, rec.header, rec.status, rec.body, tag)
			return
		}
		var f *flight
		leader := false
		for !leader {
			var body []byte
			body, f, leader = s.cache.acquire(key)
			if body != nil {
				spanOf(r).Outcome = "hit"
				w.Header().Set("X-Cache", "hit")
				h := make(http.Header)
				h.Set("Content-Type", "application/json")
				s.replay(w, h, http.StatusOK, body, etag)
				return
			}
			if leader {
				break
			}
			select {
			case <-f.done:
				// A 503 here means the leader's own client vanished while
				// queued for the pool — that says nothing about this
				// request, whose connection is alive. Re-acquire: the next
				// round finds the cached entry, a new flight, or promotes
				// this request to leader.
				if f.status == http.StatusServiceUnavailable && r.Context().Err() == nil {
					continue
				}
				tag := ""
				if f.cached {
					tag = etag
				}
				spanOf(r).Outcome = "collapsed"
				w.Header().Set("X-Cache", "collapsed")
				s.replay(w, f.header, f.status, f.body, tag)
				return
			case <-r.Context().Done():
				http.Error(w, "canceled while collapsed", http.StatusServiceUnavailable)
				return
			}
		}
		rec := newBodyRecorder()
		completed := false
		defer func() {
			if !completed { // handler panicked: wake followers with a 500
				f.status, f.body = http.StatusInternalServerError, nil
				f.header = rec.header
				close(f.done)
				s.cache.finish(key)
			}
		}()
		inner(rec, r)
		f.status, f.body, f.header = rec.status, rec.body, rec.header
		// Cache (and stamp with the ETag) only epoch-stable 200s.
		if rec.status == http.StatusOK && s.g.Epoch() == key.epoch {
			f.cached = true
			s.cache.store(key, rec.body)
		}
		close(f.done)
		s.cache.finish(key)
		completed = true
		tag := ""
		if f.cached {
			tag = etag
		}
		w.Header().Set("X-Cache", "computed")
		s.replay(w, rec.header, rec.status, rec.body, tag)
	}
}

// replay writes a recorded response, optionally stamped with an ETag.
func (s *Server) replay(w http.ResponseWriter, header http.Header, status int, body []byte, etag string) {
	for k, vs := range header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.rejected.Add(1)
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// txConfig derives the per-request transaction config, honoring ?mech=.
func (s *Server) txConfig(r *http.Request) (dyn.TxConfig, error) {
	mech, err := s.queryMech(r.URL.Query())
	return dyn.TxConfig{
		Mechanism: mech,
		Runtime:   s.cfg.Runtime,
		Machine:   s.cfg.Machine,
		Threads:   s.cfg.Threads,
		M:         s.cfg.M,
		C:         s.cfg.C,
		Seed:      s.cfg.Seed,
	}, err
}

// queryMech resolves ?mech= against the server default. An unknown
// mechanism is a 400 on every path — nothing falls through silently.
func (s *Server) queryMech(q url.Values) (aam.Mechanism, error) {
	if name := q.Get("mech"); name != "" {
		return aam.MechanismByName(name)
	}
	return s.cfg.Mechanism, nil
}

// querySel resolves the engine axis of one query request — ?engine=
// against ?shards=/?mech=/?part= — into the effective engine and the
// sharded-executor config, and stamps the engine into the request's trace
// span. Unknown and conflicting combinations are errors (the handler
// answers 400); an absent ?engine= preserves the historical behavior:
// shard when ?shards=N (N > 1), aam otherwise. Shards == 0 in the config
// means the single-runtime path, where the resolved mechanism still rides
// along so the aam engine honors ?mech= too. The ?shards= upper bound
// mirrors the executor's own sanity cap (64 shards per processor), so
// every value the endpoint accepts is one the executor will run.
func (s *Server) querySel(r *http.Request, q url.Values) (string, shard.Config, error) {
	mech, err := s.queryMech(q)
	if err != nil {
		return "", shard.Config{}, err
	}
	scfg := shard.Config{Mechanism: mech}
	if v := q.Get("shards"); v == "" {
		if q.Get("part") != "" {
			return "", scfg, fmt.Errorf("part only applies to the sharded path (add ?shards=N)")
		}
	} else {
		maxShards := 64 * runtime.GOMAXPROCS(0)
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxShards {
			return "", scfg, fmt.Errorf("bad shards %q (want 1..%d on this server)", v, maxShards)
		}
		scfg.Shards, scfg.BatchSize = n, s.cfg.C
		if name := q.Get("part"); name != "" {
			var ok bool
			if scfg.Part, ok = shard.PartByName(name); !ok {
				return "", scfg, fmt.Errorf("unknown partition %q (want block or edge)", name)
			}
			// shards=1 takes the single-runtime path, where the partition
			// choice would be silently dropped — reject it like a missing
			// ?shards=.
			if n <= 1 {
				return "", scfg, fmt.Errorf("part only applies to the sharded path (want shards >= 2)")
			}
		}
	}
	eng := q.Get("engine")
	switch eng {
	case "":
		eng = query.EngineAAM
		if scfg.Shards > 1 {
			eng = query.EngineShard
		}
	case query.EngineAAM:
		if scfg.Shards > 1 {
			return "", scfg, fmt.Errorf("engine=aam conflicts with shards=%d (the aam engine is unsharded)", scfg.Shards)
		}
	case query.EngineShard:
		if scfg.Shards < 2 {
			return "", scfg, fmt.Errorf("engine=shard needs ?shards=N with N >= 2")
		}
	case query.EngineGBLAS:
		if q.Get("shards") != "" {
			return "", scfg, fmt.Errorf("engine=gblas conflicts with ?shards= (the gblas engine is unsharded)")
		}
		if q.Get("mech") != "" {
			return "", scfg, fmt.Errorf("mech does not apply to the gblas engine")
		}
	case query.EngineCluster:
		if scfg.Shards < 2 {
			return "", scfg, fmt.Errorf("engine=cluster needs ?shards=N with N >= 2")
		}
		if s.cluster.Load() == nil {
			return "", scfg, fmt.Errorf("engine=cluster needs an attached worker cluster (start the daemon with -cluster-listen)")
		}
	default:
		return "", scfg, fmt.Errorf("unknown engine %q (want aam, shard, gblas or cluster)", eng)
	}
	spanOf(r).Engine = eng
	return eng, scfg, nil
}

// clusterInfo reports how a cluster-routed query was executed; it is
// embedded in the response body under "cluster" so a caller can tell a
// distributed answer from a gracefully degraded in-process one.
type clusterInfo struct {
	Used     bool   `json:"used"`
	Ranks    int    `json:"ranks,omitempty"`
	Fallback string `json:"fallback,omitempty"`
}

// run executes one query on its engine. On the cluster engine it routes
// the job to the attached worker cluster and, when the cluster cannot
// answer — detached, closed, poisoned, or the distributed run failed even
// after its retries — it degrades gracefully: the same query runs on the
// in-process shard engine and the response body and trace span record the
// fallback instead of surfacing a 5xx to a caller whose query the server
// can still answer.
func (s *Server) run(r *http.Request, d *query.Descriptor, eng string, g *graph.Graph, a query.Args, scfg shard.Config) (query.Result, *clusterInfo, error) {
	prof := s.prof
	env := query.Env{
		Runtime: s.cfg.Runtime, Profile: &prof, Nodes: 1, Threads: s.cfg.Threads, Seed: s.cfg.Seed,
		AAM:   aam.Config{M: s.cfg.M, C: s.cfg.C, Mechanism: scfg.Mechanism},
		Shard: scfg,
	}
	if scfg.Mechanism == aam.MechHTM {
		env.AAM.HTM = s.prof.HTMVariant("")
	}
	if eng != query.EngineCluster {
		res, err := d.Run(eng, g, a, env)
		return res, nil, err
	}
	info := &clusterInfo{}
	if env.Cluster = s.cluster.Load(); env.Cluster == nil {
		info.Fallback = "no cluster attached"
	} else if res, err := d.Run(eng, g, a, env); err != nil {
		info.Fallback = err.Error()
	} else {
		info.Used = true
		info.Ranks = env.Cluster.LiveWorkers() + 1
		return res, info, nil
	}
	s.fallbacks.Add(1)
	spanOf(r).Fallback = info.Fallback
	res, err := d.Run(query.EngineShard, g, a, env)
	return res, info, err
}

// shardSummary renders the messaging counters of a sharded run and
// copies them into the request's trace span.
func (s *Server) shardSummary(r *http.Request, cfg shard.Config, res shard.Result) map[string]any {
	tot := res.Totals()
	sp := spanOf(r)
	sp.Shards = cfg.Shards
	sp.RemoteUnits = tot.RemoteUnitsSent
	sp.RemoteBatches = tot.RemoteBatchesSent
	return map[string]any{
		"shards":         cfg.Shards,
		"part":           cfg.Part.String(),
		"epochs":         res.Epochs,
		"local_ops":      tot.LocalOps,
		"remote_units":   tot.RemoteUnitsSent,
		"remote_batches": tot.RemoteBatchesSent,
	}
}

// timedFreeze materializes the snapshot, charging the materialization to
// the request's trace span (repeated freezes of a cached epoch cost ~0
// and honestly report it).
func (s *Server) timedFreeze(r *http.Request, snap *dyn.Snapshot) *graph.Graph {
	t0 := time.Now()
	f := snap.Freeze()
	sp := spanOf(r)
	sp.FreezeNS += time.Since(t0).Nanoseconds()
	sp.Epoch = snap.Epoch()
	return f
}

// writeQuery finishes a query response: under ?trace=1 the request's
// span is embedded as out["trace"]. Traced and untraced variants cache
// under different keys (trace=1 is a cache-key parameter), and a replayed
// traced body carries the span of the request that computed it — the
// X-Cache header describes the replay itself.
func (s *Server) writeQuery(w http.ResponseWriter, r *http.Request, out map[string]any) {
	if r.URL.Query().Get("trace") == "1" {
		out["trace"] = spanOf(r).traceView()
	}
	s.writeJSON(w, http.StatusOK, out)
}

type edgesRequest struct {
	Edges [][2]int32 `json:"edges"`
}

// A mutation batch holds at most maxMutationBatch edges or vertices, and
// its body at most maxMutationBody bytes: room for 2^20 edges written out
// in full ("[-2147483648,-2147483648]," is 26 bytes).
const (
	maxMutationBatch = 1 << 20
	maxMutationBody  = 32 << 20
)

// decodeMutation decodes a mutation request body into req, answering 413
// for a body over maxMutationBody and 400 for bad JSON before the graph is
// touched.
func (s *Server) decodeMutation(w http.ResponseWriter, r *http.Request, req any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutationBody)).Decode(req)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, "body over %d bytes", tooBig.Limit)
	case err != nil:
		s.fail(w, http.StatusBadRequest, "bad JSON: %v", err)
	default:
		return true
	}
	return false
}

type mutateResponse struct {
	Applied   int    `json:"applied"`
	Rejected  int    `json:"rejected"`
	Redundant int    `json:"redundant"`
	Epoch     uint64 `json:"epoch"`
	Compacted bool   `json:"compacted"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Aborts    uint64 `json:"aborts"`
	Retries   uint64 `json:"retries"`
	Mechanism string `json:"mechanism"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var kind dyn.Kind
	switch r.Method {
	case http.MethodPost:
		kind = dyn.KindAddEdge
	case http.MethodDelete:
		kind = dyn.KindRemoveEdge
	default:
		s.fail(w, http.StatusMethodNotAllowed, "use POST or DELETE")
		return
	}
	var req edgesRequest
	if !s.decodeMutation(w, r, &req) {
		return
	}
	if n := len(req.Edges); n == 0 || n > maxMutationBatch {
		s.fail(w, http.StatusBadRequest, "%d edges out of range [1, 2^20]", n)
		return
	}
	cfg, err := s.txConfig(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := make([]dyn.Mutation, len(req.Edges))
	for i, e := range req.Edges {
		batch[i] = dyn.Mutation{Kind: kind, U: e[0], V: e[1]}
	}
	res, err := s.g.Apply(batch, cfg)
	if err != nil {
		s.fail(w, mutateStatus(err), "%v", err)
		return
	}
	s.mutations.Add(1)
	s.writeJSON(w, http.StatusOK, mutateResponse{
		Applied:   res.Applied,
		Rejected:  res.Rejected,
		Redundant: res.Redundant,
		Epoch:     res.Epoch,
		Compacted: res.Compacted,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Aborts:    res.Stats.TotalAborts(),
		Retries:   res.Stats.Retries,
		Mechanism: cfg.Mechanism.String(),
	})
}

type verticesRequest struct {
	Count int `json:"count"`
}

func (s *Server) handleVertices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req verticesRequest
	if !s.decodeMutation(w, r, &req) {
		return
	}
	if req.Count <= 0 || req.Count > maxMutationBatch {
		s.fail(w, http.StatusBadRequest, "count %d out of range [1, 2^20]", req.Count)
		return
	}
	cfg, err := s.txConfig(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := make([]dyn.Mutation, req.Count)
	for i := range batch {
		batch[i] = dyn.AddVertex()
	}
	res, err := s.g.Apply(batch, cfg)
	if err != nil {
		s.fail(w, mutateStatus(err), "%v", err)
		return
	}
	s.mutations.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"added": res.VerticesAdded,
		"n":     res.N,
		"epoch": res.Epoch,
	})
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	snap := s.g.Snapshot()
	s.writeQuery(w, r, map[string]any{
		"n":          snap.N(),
		"arcs":       snap.NumArcs(),
		"delta_arcs": snap.DeltaArcs(),
		"epoch":      snap.Epoch(),
	})
}

// attachment is what the daemon adds to one registry descriptor, looked
// up by name: the two cases it answers without running an engine. What a
// Result means — the body keys — is the descriptor's own Summary.
type attachment struct {
	// live, when set, answers the aam engine from state the dynamic graph
	// maintains incrementally; it returns the snapshot that state is of.
	live func(g *dyn.Graph, out map[string]any, full bool) *dyn.Snapshot
	// skipEmpty lists the engines on which the empty graph is answered from
	// the zero Result, without running.
	skipEmpty []string
}

var attachments = map[string]attachment{
	"cc":  {live: liveCC},
	"mst": {skipEmpty: []string{query.EngineAAM, query.EngineShard, query.EngineCluster}},
	// The sharded executor colors the empty graph itself.
	"coloring": {skipEmpty: []string{query.EngineAAM}},
}

// handleQuery is the one query handler: parameter decode and engine
// selection (both before the O(V+E) freeze — invalid requests must not pay
// it), one consistent snapshot, the run, and the body keys every algorithm
// shares; the descriptor's Summary fills in the rest.
func (s *Server) handleQuery(d *query.Descriptor) http.HandlerFunc {
	att := attachments[d.Name]
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			s.fail(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		q := r.URL.Query()
		full := q.Get("full") == "1"
		snap := s.g.Snapshot() // one consistent cut; writers continue concurrently
		args, err := d.Decode(q.Get, snap.N())
		var eng string
		var scfg shard.Config
		if err == nil {
			eng, scfg, err = s.querySel(r, q)
		}
		if err == nil && d.Engines[eng] == nil {
			err = d.NotImplemented(eng, strings.ToLower(d.Title))
		}
		if err == nil {
			err = d.Check(eng, q.Get, args, snap.N())
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		out := map[string]any{"engine": eng}
		// The run's wall time goes into the body and into the span, traced
		// or not: the slowlog is read when nobody asked for a trace.
		t0 := time.Now()
		stop := func() {
			wall := time.Since(t0).Nanoseconds()
			out["wall_time_ns"], spanOf(r).ComputeNS = wall, wall
		}
		if eng == query.EngineAAM && att.live != nil {
			snap = att.live(s.g, out, full)
			out["n"] = snap.N()
			stop()
		} else {
			f := s.timedFreeze(r, snap)
			var res query.Result // as it stands, the answer over the empty graph
			if f.N > 0 || !slices.Contains(att.skipEmpty, eng) {
				if d.Weighted {
					// The dynamic graph stores no weights: the same wseed over the
					// same epoch synthesizes the same ones, so answers reproduce.
					f = graph.AttachSymmetricWeights(f, args.WSeed)
				}
				t0 = time.Now()
				var cl *clusterInfo
				if res, cl, err = s.run(r, d, eng, f, args, scfg); err != nil {
					s.fail(w, http.StatusBadRequest, "%v", err)
					return
				}
				switch {
				case res.AAM != nil:
					out["machine_time_ns"] = int64(res.AAM.Elapsed)
				case res.Shard != nil:
					out["sharded"] = s.shardSummary(r, scfg, *res.Shard)
				}
				stop()
				if cl != nil {
					out["cluster"] = cl
				}
				if full && d.VectorKey != "" {
					out[d.VectorKey] = res.Vector()
				}
			}
			for _, st := range d.Summary(args, f.N, res) {
				out[st.Key] = st.Val
			}
		}
		s.queries.Add(1)
		out["epoch"] = snap.Epoch()
		s.writeQuery(w, r, out)
	}
}

// liveCC serves the incrementally maintained component labels — no AAM
// machine runs. One atomic view: count, labels and epoch belong to the
// same state.
func liveCC(g *dyn.Graph, out map[string]any, full bool) *dyn.Snapshot {
	snap, count, labels := g.ComponentView(full)
	out["components"] = count
	if labels != nil {
		out["labels"] = labels
	}
	return snap
}

type statsResponse struct {
	UptimeNS     int64             `json:"uptime_ns"`
	Requests     uint64            `json:"requests"`
	Queries      uint64            `json:"queries"`
	Mutations    uint64            `json:"mutation_batches"`
	BadRequests  uint64            `json:"bad_requests"`
	Throttled    uint64            `json:"throttled"`
	ClusterFalls uint64            `json:"cluster_fallbacks"`
	NotModified  uint64            `json:"etag_304"`
	Cache        *CacheStats       `json:"cache,omitempty"`
	Graph        dyn.CumStats      `json:"graph"`
	Freeze       dyn.FreezeStats   `json:"freeze"`
	TxCommitted  uint64            `json:"tx_committed"`
	TxAborts     uint64            `json:"tx_aborts"`
	TxSerialized uint64            `json:"tx_serialized"`
	AbortReasons map[string]uint64 `json:"abort_reasons"`
	// Latency maps endpoint → percentile summary (endpoints with traffic
	// only). Percentiles are conservative upper bounds (≤3% over).
	Latency map[string]latencySummary `json:"latency"`
	// WAL and Recovery appear only on durable servers (Config.WAL set):
	// the live log counters and what the boot-time recovery pass did.
	WAL      *wal.Stats         `json:"wal,omitempty"`
	Recovery *wal.RecoveryStats `json:"recovery,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	// Live counters must never freeze behind a conditional GET: no ETag,
	// and no intermediary may serve a stale copy.
	w.Header().Set("Cache-Control", "no-store")
	gs := s.g.Stats()
	reasons := make(map[string]uint64, stats.NumAbortReasons)
	for reason := stats.AbortReason(0); reason < stats.NumAbortReasons; reason++ {
		reasons[reason.String()] = gs.Tx.Aborts[reason]
	}
	resp := statsResponse{
		UptimeNS:     time.Since(s.t0).Nanoseconds(),
		Requests:     s.requests.Load(),
		Queries:      s.queries.Load(),
		Mutations:    s.mutations.Load(),
		BadRequests:  s.rejected.Load(),
		Throttled:    s.throttled.Load(),
		ClusterFalls: s.fallbacks.Load(),
		NotModified:  s.notModified.Load(),
		Graph:        gs,
		Freeze:       s.g.FreezeStats(),
		TxCommitted:  gs.Tx.TxCommitted,
		TxAborts:     gs.Tx.TotalAborts(),
		TxSerialized: gs.Tx.TxSerialized,
		AbortReasons: reasons,
		Latency:      s.latencySummaries(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		resp.Cache = &cs
	}
	if s.cfg.WAL != nil {
		ws := s.cfg.WAL.Stats()
		rs := s.cfg.WAL.Recovery()
		resp.WAL = &ws
		resp.Recovery = &rs
	}
	s.writeJSON(w, http.StatusOK, resp)
}
