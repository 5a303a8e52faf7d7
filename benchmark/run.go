package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/shard"
	"aamgo/internal/wal"
)

// options are one run's arguments.
type options struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	scratch string // directory for WAL data, inside the checkout
	spans   string // traced run: file the spans are written to
}

// run is the state of one workload run.
type run struct {
	options
	tr *tracer // nil on a plain run

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	metrics  map[string]float64
	counts   map[string]int     // samples and rounds behind each metric
	phases   map[string]float64 // seconds spent per phase
	shortest map[string]float64 // each kernel metric's shortest round, seconds
	host     map[string]float64 // calibration passes: the host's speed, not the code's
	notes    []string           // the traced run's ladders, one line each

	*system
	dir string

	// References, computed after set-up from the frozen graph.
	f         *graph.Graph
	pool      []int // the largest component, shuffled by the seed
	compArcs  int64
	kernelSrc []int
	hot       []int
	hotBody   [][]byte
	missNext  atomic.Int64
	refLevels map[int]int
	epoch0    uint64
	acked     atomic.Uint64 // epoch of the last acknowledged write
	writes    atomic.Int64  // writes acknowledged

	shardAcc, gblasAcc kernelAcc // what the engines' results said
}

var shardCfg = shard.Config{Shards: shards, BatchSize: batchSize}

func (r *run) failf(format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// share is the part of -seconds a phase is given.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// warmUp is the untimed lead-in of a timed region.
func warmUp(region time.Duration) time.Duration {
	return min(750*time.Millisecond, region/8)
}

// release returns freed memory to the system, so that peak_rss_mb is the
// largest of the run's stages and not their sum.
func release() { debug.FreeOSMemory() } // it collects first

// execute runs the workload and fills r.metrics.
func (r *run) execute() error {
	r.metrics = map[string]float64{}
	r.counts = map[string]int{}
	r.phases = map[string]float64{}
	r.shortest = map[string]float64{}
	r.host = map[string]float64{"calib_ms_start": calibrate(r.tiny)}
	if r.trace {
		r.tr = newTracer()
	}
	if err := r.phaseSetUp(); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	if err := r.prepare(); err != nil {
		r.system.shutDown()
		return err
	}
	r.phase("kernels", r.phaseKernels)
	r.phase("read-miss", r.phaseMiss)
	if r.trace {
		r.phase("read-ladder", r.phaseReadLadder)
	}
	r.phase("read-hit", r.phaseHit)
	r.phase("mixed", r.phaseMixed)
	if r.trace {
		r.phase("write-ladder", r.phaseWriteLadder)
		r.phase("layers", r.phaseLayers)
	}
	r.phase("recover", r.phaseRecover)
	r.metrics["peak_rss_mb"] = peakRSSMB()
	r.host["calib_ms_end"] = calibrate(r.tiny)
	if r.trace {
		r.metrics["host.calib_ms_start"], r.metrics["host.calib_ms_end"] = r.host["calib_ms_start"], r.host["calib_ms_end"]
		r.metrics["host.nproc"] = float64(runtime.NumCPU())
		return r.tr.finish(r)
	}
	return nil
}

func (r *run) phase(name string, fn func()) {
	runtime.GC()
	id := r.tr.beginPhase(name)
	t0 := time.Now()
	fn()
	r.phases[name] += time.Since(t0).Seconds()
	r.tr.end(id)
}

// phaseSetUp sets the system up w.setups times, keeps the last and reports
// the median. A traced run sets up once: its set-up spans are per-layer
// metrics, and setup_s is not among them.
func (r *run) phaseSetUp() error {
	reps := r.w.setups
	if r.trace {
		reps = 1
	}
	var wrap = r.tr.wrapHandler()
	var times []float64
	for i := 0; i < reps; i++ {
		if r.system != nil {
			if err := r.system.shutDown(); err != nil {
				return fmt.Errorf("shutting down set-up %d: %w", i, err)
			}
			os.RemoveAll(r.dir)
			r.system = nil
			release()
		}
		dir, err := scratchDir(r.scratch, r.w.name+"-*")
		if err != nil {
			return err
		}
		r.dir = dir
		id := r.tr.beginPhase("setup")
		t0 := time.Now()
		s, err := setUp(r.w, r.seed, r.tiny, dir, wrap)
		d := time.Since(t0)
		r.tr.end(id)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		r.system = s
		times = append(times, d.Seconds())
		r.metrics["graph.gen_ms"], r.metrics["dyn.new_ms"] = s.stepMS["graph.gen_ms"], s.stepMS["dyn.new_ms"]
	}
	r.phases["setup"] = 0
	for _, t := range times {
		r.phases["setup"] += t
	}
	r.metrics["setup_s"] = median(times)
	r.metrics["setup_s.iqr_pct"] = iqrPct(times)
	r.counts["setup_s"] = len(times)
	return nil
}

// prepare computes, outside every timed region, what requests are drawn
// from and what answers are checked against: the largest component, the
// source lists and the reference depths.
func (r *run) prepare() error {
	r.f = r.g.Freeze()
	r.epoch0 = r.g.Epoch()
	r.acked.Store(r.epoch0)
	labels := algo.SeqComponents(r.f)
	size := map[int32]int{}
	for _, l := range labels {
		size[l]++
	}
	best, bestSize := int32(-1), 0
	for l, n := range size {
		if n > bestSize || n == bestSize && l < best {
			best, bestSize = l, n
		}
	}
	for v, l := range labels {
		if l == best {
			r.pool = append(r.pool, v)
			r.compArcs += int64(r.f.Degree(v))
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(r.pool), func(i, j int) { r.pool[i], r.pool[j] = r.pool[j], r.pool[i] })
	need := r.w.bfsSources + hotSources
	if len(r.pool) < 2*need {
		return fmt.Errorf("largest component has %d vertices, need %d", len(r.pool), 2*need)
	}
	r.kernelSrc = r.pool[:r.w.bfsSources]
	r.hot = r.pool[r.w.bfsSources:need]
	r.missNext.Store(int64(need))
	r.refLevels = map[int]int{}
	return nil
}

// nextMiss returns the query of a read no earlier read has asked: the pool
// is walked in its shuffled order, and once it has been used up a lap
// counter joins the query, so the key is new though the source is not.
func (r *run) nextMiss() string {
	i := r.missNext.Add(1) - 1
	n := int64(len(r.pool))
	q := "src=" + strconv.Itoa(r.pool[i%n]) + r.w.route()
	if lap := i / n; lap > 0 {
		q += "&lap=" + strconv.FormatInt(lap, 10)
	}
	return q
}

// refDepths returns the sequential reference for src and records its
// depth, which the shard and gblas engines report as "levels".
func (r *run) refDepths(src int) []int32 {
	ref := algo.SeqBFS(r.f, src)
	deepest := int32(0)
	for _, d := range ref {
		deepest = max(deepest, d)
	}
	r.refLevels[src] = int(deepest)
	return ref
}

// checkTree verifies a parent vector against the reference depths: the
// same vertices reached, every parent one level up and adjacent. It is
// algo.ValidateBFSTree with the adjacency test turned around: that one
// scans the parent's neighbours, which on a Kronecker hub with tens of
// thousands of children is quadratic; this scans the child's.
func checkTree(g *graph.Graph, src int, parents []int64, ref []int32) error {
	if parents[src] != int64(src) {
		return fmt.Errorf("source %d has parent %d", src, parents[src])
	}
	for v, p := range parents {
		switch {
		case (p >= 0) != (ref[v] >= 0):
			return fmt.Errorf("vertex %d: parent %d but reference depth %d", v, p, ref[v])
		case p < 0 || v == src:
		case ref[p] != ref[v]-1:
			return fmt.Errorf("vertex %d at depth %d has parent %d at depth %d", v, ref[v], p, ref[p])
		default:
			adjacent := false
			for _, w := range g.Neighbors(v) {
				if int64(w) == p {
					adjacent = true
					break
				}
			}
			if !adjacent {
				return fmt.Errorf("tree edge %d-%d is not in the graph", p, v)
			}
		}
	}
	return nil
}

func countReached(parents []int64) int {
	n := 0
	for _, p := range parents {
		if p >= 0 {
			n++
		}
	}
	return n
}

// kernel is one directly called engine entry point. pass makes the calls
// of one unit of work (the source list once, or one PageRank call) and
// returns the arcs traversed and the time inside the calls; with verify it
// also checks the answers in full.
type kernel struct {
	metric string
	pass   func(verify bool, parent int) (arcs float64, d time.Duration)
}

// timeKernels gives every kernel one untimed pass with full verification
// and then runs the rounds, taking the kernels in turn within each round so
// that a slow spell of the host meets all four alike. A round repeats pass
// until its calls have run for a fifth of the kernel's budget (at least
// minRound in the full profile); its value is its work over its time, and
// the metric is the median over rounds.
func (r *run) timeKernels(kernels []kernel, budget time.Duration) {
	for _, k := range kernels {
		k.pass(true, 0)
		runtime.GC()
	}
	target := budget / rounds
	if !r.tiny {
		target = max(target, minRound)
	}
	vals := make([][]float64, len(kernels))
	for round := 0; round < rounds; round++ {
		for i, k := range kernels {
			id := r.tr.begin(k.metric+" round", 0, 0)
			var arcs float64
			var d time.Duration
			for d < target {
				a, t := k.pass(false, id)
				arcs, d = arcs+a, d+t
			}
			r.tr.end(id)
			vals[i] = append(vals[i], arcs/d.Seconds()/1e6)
			if s, ok := r.shortest[k.metric]; !ok || d.Seconds() < s {
				r.shortest[k.metric] = d.Seconds()
			}
		}
	}
	for i, k := range kernels {
		r.metrics[k.metric] = median(vals[i])
		r.metrics[k.metric+".iqr_pct"] = iqrPct(vals[i])
		r.counts[k.metric] = len(vals[i])
	}
}

func rankSum(ranks []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range ranks {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// phaseKernels calls the engines directly on the frozen graph.
func (r *run) phaseKernels() {
	f := r.f

	type bfsOut struct {
		parents, levels []int64
		depth           int
	}
	bfs := func(metric, name string, call func(src int) (bfsOut, error)) kernel {
		return kernel{metric, func(verify bool, parent int) (arcs float64, d time.Duration) {
			for _, src := range r.kernelSrc {
				r.attempted.Add(1)
				id := r.tr.begin(name, parent, 0)
				t0 := time.Now()
				out, err := call(src)
				d += time.Since(t0)
				r.tr.end(id)
				arcs += float64(r.compArcs)
				if err != nil {
					r.failf("%s src %d: %v", name, src, err)
					continue
				}
				if verify {
					ref := r.refDepths(src)
					if err := checkTree(f, src, out.parents, ref); err != nil {
						r.failf("%s src %d: %v", name, src, err)
					}
					for v := range out.levels {
						if out.levels[v] != int64(ref[v]) {
							r.failf("%s src %d: vertex %d at level %d, reference %d", name, src, v, out.levels[v], ref[v])
							break
						}
					}
				}
				if n := countReached(out.parents); n != len(r.pool) || out.depth != r.refLevels[src] {
					r.failf("%s src %d: reached %d in %d levels, want %d in %d", name, src, n, out.depth, len(r.pool), r.refLevels[src])
				}
			}
			return
		}}
	}
	// Within a kernel every PageRank call must repeat the first call's bits.
	pr := func(metric, name string, iters int, call func() ([]float64, error)) kernel {
		var want uint64
		return kernel{metric, func(verify bool, parent int) (float64, time.Duration) {
			r.attempted.Add(1)
			id := r.tr.begin(name, parent, 0)
			t0 := time.Now()
			ranks, err := call()
			d := time.Since(t0)
			r.tr.end(id)
			sum := rankSum(ranks)
			if verify {
				want = sum
			}
			if err != nil || sum != want {
				r.failf("%s: ranks changed between calls (err %v)", name, err)
			}
			return float64(f.NumEdges()) * float64(iters), d
		}}
	}
	ks, kg := r.w.prIters[0], r.w.prIters[1]
	kernels := []kernel{
		bfs("bfs_shard_mteps", "shard.BFS", func(src int) (bfsOut, error) {
			t0 := time.Now()
			res, err := shard.BFS(f, src, shardCfg)
			r.shardAcc.addShard(time.Since(t0), res)
			return bfsOut{res.Parents, nil, res.Levels}, err
		}),
		bfs("bfs_gblas_mteps", "gblas.EngineBFS", func(src int) (bfsOut, error) {
			t0 := time.Now()
			parents, levels, res, err := gblas.EngineBFS(f, src)
			r.gblasAcc.addGBLAS(time.Since(t0), res)
			return bfsOut{parents, levels, res.Steps - 1}, err
		}),
		pr("pagerank_shard_mteps", "shard.PageRank", ks, func() ([]float64, error) {
			res, err := shard.PageRank(f, 0.85, ks, shardCfg)
			return res.Ranks, err
		}),
		pr("pagerank_gblas_mteps", "gblas.EnginePageRank", kg, func() ([]float64, error) {
			ranks, _ := gblas.EnginePageRank(f, 0.85, kg)
			return ranks, nil
		}),
	}
	r.timeKernels(kernels, r.share(r.w.kernels)/time.Duration(len(kernels)))

	// Cross-engine agreement, untimed: PageRank bit for bit at equal
	// iterations, and the cluster with both on depth and reach.
	const checkIters = 2
	sres, err := shard.PageRank(f, 0.85, checkIters, shardCfg)
	granks, _ := gblas.EnginePageRank(f, 0.85, checkIters)
	r.attempted.Add(1)
	if err != nil || rankSum(sres.Ranks) != rankSum(granks) {
		r.failf("pagerank: shard and gblas ranks differ after %d iterations (err %v)", checkIters, err)
	}
	if r.cluster == nil {
		return
	}
	r.attempted.Add(1)
	cres, err := r.cluster.PageRank(f, 0.85, checkIters, shardCfg)
	if err != nil || rankSum(cres.Ranks) != rankSum(granks) {
		r.failf("pagerank: cluster and gblas ranks differ (err %v)", err)
	}
	for _, src := range r.kernelSrc[:4] {
		r.attempted.Add(1)
		res, err := r.cluster.BFS(f, src, shardCfg)
		if err != nil {
			r.failf("cluster.BFS src %d: %v", src, err)
		} else if n := countReached(res.Parents); n != len(r.pool) || res.Levels != r.refLevels[src] {
			r.failf("cluster.BFS src %d: reached %d in %d levels, want %d in %d", src, n, res.Levels, len(r.pool), r.refLevels[src])
		}
	}
}

// bfsAnswer is what the checks read from a /query/bfs body.
type bfsAnswer struct {
	Epoch   uint64 `json:"epoch"`
	N       int    `json:"n"`
	Reached int    `json:"reached"`
	Cluster *struct {
		Used bool `json:"used"`
	} `json:"cluster"`
}

// checkRead verifies one read: status, reached count against the
// component, epoch within [lo, hi], and that a cluster read ran on the
// cluster (a fallback would measure another engine).
func (r *run) checkRead(q string, status int, body []byte, err error, lo, hi uint64) {
	var a bfsAnswer
	switch {
	case err != nil:
		r.failf("GET %s: %v", q, err)
	case status != 200:
		r.failf("GET %s: status %d: %s", q, status, body)
	case json.Unmarshal(body, &a) != nil:
		r.failf("GET %s: bad JSON %q", q, body)
	case a.Reached != len(r.pool) || a.N != r.f.N:
		r.failf("GET %s: reached %d of %d, want %d of %d", q, a.Reached, a.N, len(r.pool), r.f.N)
	case a.Epoch < lo || a.Epoch > hi:
		r.failf("GET %s: epoch %d outside [%d,%d]", q, a.Epoch, lo, hi)
	case r.cluster != nil && (a.Cluster == nil || !a.Cluster.Used):
		r.failf("GET %s: the cluster did not answer: %s", q, body)
	}
}

// drive runs one closed loop per op, each on its own keep-alive
// connection, for warm+dur (and until it has timed one request), and
// returns the latencies (ms, in arrival order) of the requests that started
// after the warm-up.
func (r *run) drive(warm, dur time.Duration, ops ...func(c *client, i int) time.Duration) [][]float64 {
	lats := make([][]float64, len(ops))
	start := time.Now()
	timed, end := start.Add(warm), start.Add(warm+dur)
	var wg sync.WaitGroup
	for k, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(r.url)
			defer c.close()
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(end) && len(lats[k]) > 0 { // never leave with nothing timed
					return
				}
				r.attempted.Add(1)
				lat := op(c, i)
				if !now.Before(timed) {
					lats[k] = append(lats[k], ms(lat))
				}
			}
		}()
	}
	wg.Wait()
	return lats
}

// latency reports the median of a phase's timed requests (ms), times scale.
func (r *run) latency(metric string, lats []float64, scale float64) {
	r.metrics[metric] = median(lats) * scale
	r.metrics[metric+".iqr_pct"] = sliceSpread(lats, func(asc []float64) float64 { return percentile(asc, 0.50) })
	r.counts[metric] = len(lats)
}

// readMiss asks a query nobody has asked before.
func (r *run) readMiss(c *client, i int) time.Duration {
	q := r.nextMiss()
	e := r.acked.Load()
	sp := r.tr.socket("read-miss", i)
	status, _, body, lat, err := c.do("GET", "/query/bfs?"+q, nil, sp.header()...)
	sp.end()
	r.checkRead(q, status, body, err, e, e)
	if r.tr != nil {
		name := "read-miss untraced"
		if sp.id != 0 {
			name = "read-miss traced"
		}
		r.tr.sample(name, ms(lat))
	}
	return lat
}

// phaseMiss: both clients read never-repeating sources.
func (r *run) phaseMiss() {
	dur := r.share(r.w.miss)
	lats := interleave(r.drive(warmUp(dur), dur, r.readMiss, r.readMiss))
	r.latency("read_miss_p50_ms", lats, 1)
	r.metrics["read_miss_p90_ms"] = percentile(sorted(lats), 0.90)
	r.counts["read_miss_p90_ms"] = len(lats)
	r.metrics["serve.read_miss_p99_ms"] = percentile(sorted(lats), 0.99)
}

func (r *run) hotQuery(i int) string {
	return "src=" + strconv.Itoa(r.hot[i%len(r.hot)]) + r.w.route()
}

// phaseHit: both clients read the 16 hot sources, which an untimed pass
// has put in the cache; every body must equal the cached one.
func (r *run) phaseHit() {
	r.fillCache()
	hit := func(offset int) func(*client, int) time.Duration {
		return func(c *client, i int) time.Duration {
			sp := r.tr.socket("read-hit", i)
			i = (i + offset) % len(r.hot)
			status, h, body, lat, err := c.do("GET", "/query/bfs?"+r.hotQuery(i), nil, sp.header()...)
			sp.end()
			if err != nil || status != 200 || h.Get("X-Cache") != "hit" || string(body) != string(r.hotBody[i]) {
				r.failf("GET %s: not the cached answer (status %d, X-Cache %q, err %v)", r.hotQuery(i), status, h.Get("X-Cache"), err)
			}
			return lat
		}
	}
	dur := r.share(r.w.hit)
	lats := interleave(r.drive(warmUp(dur), dur, hit(0), hit(len(r.hot)/2)))
	r.latency("read_hit_p50_us", lats, 1e3)
}

// fillCache reads every hot source once and keeps the bodies.
func (r *run) fillCache() {
	r.hotBody = make([][]byte, len(r.hot))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(r.url)
			defer c.close()
			for i := k; i < len(r.hot); i += clients {
				r.attempted.Add(1)
				e := r.acked.Load()
				status, _, body, _, err := c.do("GET", "/query/bfs?"+r.hotQuery(i), nil)
				r.checkRead(r.hotQuery(i), status, body, err, e, e)
				r.hotBody[i] = append([]byte(nil), body...)
			}
		}()
	}
	wg.Wait()
}

type writeAnswer struct {
	Applied   int    `json:"applied"`
	Rejected  int    `json:"rejected"`
	Redundant int    `json:"redundant"`
	Epoch     uint64 `json:"epoch"`
}

// edgeBatch draws writeBatch edges between vertices of the largest
// component, so no write changes what a BFS reaches, and renders them as a
// POST /edges body into buf.
func (r *run) edgeBatch(rng *rand.Rand, buf []byte) ([]byte, [][2]int32) {
	edges := make([][2]int32, writeBatch)
	buf = append(buf[:0], `{"edges":[`...)
	for i := range edges {
		u := r.pool[rng.Intn(len(r.pool))]
		v := r.pool[rng.Intn(len(r.pool))]
		for v == u {
			v = r.pool[rng.Intn(len(r.pool))]
		}
		edges[i] = [2]int32{int32(u), int32(v)}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = fmt.Appendf(buf, "[%d,%d]", u, v)
	}
	return append(buf, "]}"...), edges
}

// checkWrite verifies one acknowledged write. The benchmark has one writer
// at a time, so epochs must arrive in order.
func (r *run) checkWrite(status int, body []byte, err error) {
	var a writeAnswer
	switch {
	case err != nil:
		r.failf("POST /edges: %v", err)
	case status != 200:
		r.failf("POST /edges: status %d: %s", status, body)
	case json.Unmarshal(body, &a) != nil:
		r.failf("POST /edges: bad JSON %q", body)
	case a.Applied+a.Redundant+a.Rejected != writeBatch:
		r.failf("POST /edges: %d applied + %d redundant + %d rejected != %d", a.Applied, a.Redundant, a.Rejected, writeBatch)
	case a.Epoch != r.acked.Load()+1:
		r.failf("POST /edges: epoch %d after %d", a.Epoch, r.acked.Load())
	default:
		r.acked.Store(a.Epoch)
		r.writes.Add(1)
	}
}

// phaseMixed: client A reads the hot sources while client B posts edge
// batches back to back, so nearly every read meets a new epoch.
func (r *run) phaseMixed() {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	var buf []byte
	read := func(c *client, i int) time.Duration {
		lo := r.acked.Load()
		sp := r.tr.socket("mixed-read", i)
		status, _, body, lat, err := c.do("GET", "/query/bfs?"+r.hotQuery(i), nil, sp.header()...)
		sp.end()
		// A write may be applied and not yet acknowledged.
		r.checkRead(r.hotQuery(i), status, body, err, lo, r.acked.Load()+1)
		return lat
	}
	write := func(c *client, i int) time.Duration {
		buf, _ = r.edgeBatch(rng, buf)
		sp := r.tr.socket("write", i)
		status, _, body, lat, err := c.do("POST", "/edges", buf, sp.header()...)
		sp.end()
		r.checkWrite(status, body, err)
		return lat
	}
	var hits0, misses0 float64
	if r.trace {
		hits0, misses0, _ = r.cacheStats()
	}
	dur := r.share(r.w.mixed)
	lats := r.drive(warmUp(dur), dur, read, write)
	if r.trace {
		hits, misses, _ := r.cacheStats()
		r.metrics["serve.mixed_hit_ratio"] = (hits - hits0) / (hits - hits0 + misses - misses0)
	}
	r.latency("mixed_read_p50_ms", lats[0], 1)
	r.latency("write_p50_ms", lats[1], 1)
	r.metrics["serve.write_p90_ms"] = percentile(sorted(lats[1]), 0.90)
}

// adjacencySum is an order-independent checksum of a graph's arcs.
func adjacencySum(g *graph.Graph) (sum uint64) {
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			x := uint64(v)<<32 | uint64(uint32(w))
			x *= 0x9e3779b97f4a7c15
			sum += x ^ x>>29
		}
	}
	return sum
}

// phaseRecover closes the system and opens the data directory again: the
// recovered graph must be the live graph.
func (r *run) phaseRecover() {
	r.attempted.Add(1)
	if got, want := r.g.Epoch(), r.epoch0+uint64(r.writes.Load()); got != want {
		r.failf("final epoch %d, want %d after %d acknowledged writes", got, want, r.writes.Load())
	}
	live := r.g.Freeze()
	epoch, n, arcs, sum := r.g.Epoch(), live.N, live.NumEdges(), adjacencySum(live)
	base := r.base
	if err := r.system.shutDown(); err != nil {
		r.failf("shut down: %v", err)
	}
	// Drop the live graph before recovering, so peak memory is the larger
	// of serving and recovery and not their sum.
	live, r.f, r.system = nil, nil, nil
	release()

	id := r.tr.begin("wal.Open (recover)", 0, 0)
	t0 := time.Now()
	g, log, err := wal.Open(walOptions(r.dir), func() (*dyn.Graph, error) { return dyn.New(base) })
	d := time.Since(t0)
	r.tr.end(id)
	if err != nil {
		r.failf("recover: %v", err)
		return
	}
	rec := g.Freeze()
	if g.Epoch() != epoch || rec.N != n || rec.NumEdges() != arcs || adjacencySum(rec) != sum {
		r.failf("recovered epoch %d, %d vertices, %d arcs; live graph had epoch %d, %d vertices, %d arcs (or the arcs differ)",
			g.Epoch(), rec.N, rec.NumEdges(), epoch, n, arcs)
	}
	r.metrics["wal.recover_ms"] = ms(d)
	r.metrics["wal.replayed_batches"] = float64(log.Recovery().ReplayedBatches)
	if err := log.Close(); err != nil {
		r.failf("closing recovered log: %v", err)
	}
}

func interleave(lats [][]float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		took := false
		for _, l := range lats {
			if i < len(l) {
				out = append(out, l[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
