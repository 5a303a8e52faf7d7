package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	backend "aamgo/internal/run"
	"aamgo/internal/shard"
)

// span is one timed interval the harness recorded around a call into the
// program. Spans of one request share Query; Parent is the span that
// caused this one (0: none). Times are ns since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Query  int64  `json:"query,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of a traced run in memory until the run ends.
// Every method is a no-op on a nil tracer, which is what a plain run has.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64 // raw latencies (ms) by phase
	queries int64
	phase   int // the current phase's span: the parent of spans that name none
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

func (t *tracer) begin(name string, parent int, query int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.phase
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name, Start: now})
	return len(t.spans)
}

// beginPhase opens a top-level span that later spans nest under.
func (t *tracer) beginPhase(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.phase = 0
	t.mu.Unlock()
	id := t.begin(name, 0, 0)
	t.mu.Lock()
	t.phase = id
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// timed records a span around fn.
func (t *tracer) timed(name string, parent int, query int64, fn func()) time.Duration {
	id := t.begin(name, parent, query)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

func (t *tracer) newQuery() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	return t.queries
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

const spanHeader = "X-Bench-Span"

// socketSpan is the client-side span of one request; its id travels in a
// header so the handler span on the other side of the socket can name it
// as its parent.
type socketSpan struct {
	t  *tracer
	id int
}

// socket opens the span of a client's i-th request of the given phase. It
// does nothing on a plain run, for every second read of the read-miss
// phase (the untraced half the tracing overhead is measured against) and
// for all but one in 16 cache hits (there are tens of thousands).
func (t *tracer) socket(phase string, i int) socketSpan {
	if t == nil || phase == "read-miss" && i%2 == 1 || phase == "read-hit" && i%16 != 0 {
		return socketSpan{}
	}
	return socketSpan{t, t.begin("socket "+phase, 0, t.newQuery())}
}

func (s socketSpan) header() []string {
	if s.id == 0 {
		return nil
	}
	return []string{spanHeader, strconv.Itoa(s.id)}
}

func (s socketSpan) end() { s.t.end(s.id) }

// wrapHandler puts a span around the daemon's handler for every request
// that names its socket span.
func (t *tracer) wrapHandler() func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
			if parent == 0 {
				h.ServeHTTP(w, r)
				return
			}
			id := t.begin("handler", parent, 0)
			h.ServeHTTP(w, r)
			t.end(id)
		})
	}
}

var calibSink uint64 // keeps calibrate's loop from being optimized away

// calibrate times a fixed single-threaded pass over a 64 MB array (the
// median of five): it moves with the host's memory system, which on shared
// hosts drifts by tens of per cent over minutes while plain arithmetic
// stays put, and not with the code under test. The array is returned to
// the system so that it does not count towards peak_rss_mb. The smoke
// profile passes over 1 MB.
func calibrate(tiny bool) float64 {
	words := 8 << 20
	if tiny {
		words = 1 << 17
	}
	a := make([]uint64, words)
	var passes []float64
	for rep := 0; rep < 6; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] += uint64(i)
			calibSink += a[i]
		}
		if rep > 0 { // the first pass faults the pages in
			passes = append(passes, ms(time.Since(t0)))
		}
	}
	a = nil
	release()
	return median(passes)
}

// scrape reads the daemon's /metrics into series → value.
func (r *run) scrape() map[string]float64 {
	out := map[string]float64{}
	c := newClient(r.url)
	defer c.close()
	status, _, body, _, err := c.do("GET", "/metrics", nil)
	if err != nil || status != 200 {
		r.failf("GET /metrics: status %d, err %v", status, err)
		return out
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// cacheStats reads the cache block of /stats.
func (r *run) cacheStats() (hits, misses, collapsed float64) {
	c := newClient(r.url)
	defer c.close()
	status, _, body, _, err := c.do("GET", "/stats", nil)
	var s struct {
		Cache struct{ Hits, Misses, Collapsed float64 } `json:"cache"`
	}
	if err != nil || status != 200 || json.Unmarshal(body, &s) != nil {
		r.failf("GET /stats: status %d, err %v", status, err)
	}
	return s.Cache.Hits, s.Cache.Misses, s.Cache.Collapsed
}

// kernelAcc accumulates what the engines' results say about the timed
// kernel calls; the traced run turns it into per-layer metrics.
type kernelAcc struct {
	callsMS                         []float64
	levels, pushSteps, pullSteps    int
	units, batches, aborts, retries uint64
	allocs                          uint64
}

func (k *kernelAcc) addShard(d time.Duration, res shard.BFSResult) {
	t := res.Totals()
	k.callsMS = append(k.callsMS, ms(d))
	k.levels += res.Levels
	k.units += t.RemoteUnitsSent
	k.batches += t.RemoteBatchesSent
	k.aborts += t.Aborts
	k.retries += t.Retries
	k.allocs += t.BufferAllocs
}

func (k *kernelAcc) addGBLAS(d time.Duration, res gblas.EngineResult) {
	k.callsMS = append(k.callsMS, ms(d))
	k.levels += res.Steps - 1
	k.pushSteps += res.PushSteps
	k.pullSteps += res.PullSteps
}

func (k *kernelAcc) totalMS() (sum float64) {
	for _, v := range k.callsMS {
		sum += v
	}
	return sum
}

// aamBFS runs one BFS the way the daemon's default engine does: the aam
// engine under HTM on a has-c machine with four threads.
func aamBFS(f *graph.Graph, kind string, src int) (exec.Result, []int64, time.Duration) {
	prof, _ := exec.ProfileByName("has-c")
	b := algo.NewBFS(f, 1, algo.BFSConfig{
		Mode:         algo.BFSAAM,
		Engine:       aam.Config{M: 16, C: 64, Mechanism: aam.MechHTM, HTM: prof.HTMVariant("")},
		VisitedCheck: true,
	})
	m := backend.New(kind, exec.Config{
		Nodes: 1, ThreadsPerNode: 4, MemWords: b.MemWords(), Profile: &prof,
		Handlers: b.Handlers(nil), Seed: 1,
	})
	t0 := time.Now()
	res := m.Run(b.Body(src))
	return res, b.Parents(m), time.Since(t0)
}

// engineCall is the bottom rung of the read ladder: the call the daemon's
// BFS handler makes for this workload's route.
func (r *run) engineCall(f *graph.Graph, src int) (reached int, err error) {
	var parents []int64
	switch r.w.engine {
	case "cluster":
		var res shard.BFSResult
		res, err = r.cluster.BFS(f, src, shardCfg)
		parents = res.Parents
	case "gblas":
		parents, _, _, err = gblas.EngineBFS(f, src)
	case "shard":
		var res shard.BFSResult
		res, err = shard.BFS(f, src, shardCfg)
		parents = res.Parents
	default:
		_, parents, _ = aamBFS(f, backend.Sim, src)
	}
	return countReached(parents), err
}

const (
	ladderReads  = 8
	ladderMax    = 48
	ladderTime   = time.Second
	ladderWrites = 8
	endpointReps = 3
)

// handlerGET runs one GET through the daemon's handler without the socket.
func (r *run) handlerGET(path string) (int, []byte) {
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// readLadder asks the same never-asked query at successive depths — the
// socket, the handler, Snapshot, Freeze, the engine call — under one query
// id, each rung the parent of the next. A layer's self time is its rung
// minus the rung below. A cache-key suffix keeps every rung a miss.
func (r *run) readLadder(c *client) {
	var self []float64
	var rungs [5][]float64 // socket, handler, Snapshot, Freeze, engine (ms)
	// At least ladderReads queries; on workloads with fast reads as many
	// more as fit in ladderTime, so that the rungs' medians settle.
	for start := time.Now(); len(self) < ladderReads || len(self) < ladderMax && time.Since(start) < ladderTime; {
		i := r.missNext.Add(1) - 1
		src := r.pool[i%int64(len(r.pool))]
		q := fmt.Sprintf("/query/bfs?src=%d%s&ladder=%d", src, r.w.route(), i)
		e := r.acked.Load()
		qid := r.tr.newQuery()
		r.attempted.Add(4)

		id1 := r.tr.begin("ladder socket", 0, qid)
		status, _, body, tSocket, err := c.do("GET", q+"a", nil)
		r.tr.end(id1)
		r.checkRead(q, status, body, err, e, e)

		id2 := r.tr.begin("ladder handler", id1, qid)
		t0 := time.Now()
		status, body = r.handlerGET(q + "b")
		tHandler := time.Since(t0)
		r.tr.end(id2)
		r.checkRead(q, status, body, nil, e, e)

		var snap *dyn.Snapshot
		tSnap := r.tr.timed("ladder Snapshot", id2, qid, func() { snap = r.g.Snapshot() })
		var f *graph.Graph
		tFreeze := r.tr.timed("ladder Freeze", id2, qid, func() { f = snap.Freeze() })
		var reached int
		tEngine := r.tr.timed("ladder engine", id2, qid, func() { reached, err = r.engineCall(f, src) })
		if err != nil || reached != len(r.pool) {
			r.failf("ladder engine src %d: reached %d, want %d (err %v)", src, reached, len(r.pool), err)
		}
		self = append(self, us(tHandler-tSnap-tFreeze-tEngine))
		for i, d := range []time.Duration{tSocket, tHandler, tSnap, tFreeze, tEngine} {
			rungs[i] = append(rungs[i], ms(d))
		}
	}
	r.metrics["serve.self_miss_us"] = median(self)
	r.counts["serve.self_miss_us"] = len(self)
	// The ladder in one line: self times (a rung minus the rungs below it,
	// from the rungs' medians) and how much of the socket rung they explain
	// when a negative self time, which is noise between rungs, counts as 0.
	socket, handler, below := median(rungs[0]), median(rungs[1]), median(rungs[2])+median(rungs[3])+median(rungs[4])
	sum := max(socket-handler, 0) + max(handler-below, 0) + below
	r.notes = append(r.notes, fmt.Sprintf(
		"read ladder, medians of %d: socket %.3f ms = socket self %.3f + handler self %.3f + Snapshot %.4f + Freeze %.4f + engine %.3f (self times sum to %.1f %% of the socket rung)",
		len(self), socket, socket-handler, handler-below, median(rungs[2]), median(rungs[3]), median(rungs[4]), 100*sum/socket))
}

// otherEndpoints times the reads the gated metrics do not cover, at the
// socket, each a miss: PageRank, SSSP and components, and a BFS with
// full=1 against its summary. They go through the workload's route, except
// that components use the shard engine where the route's engine has none
// (gblas) and all three do on kron14-aam, whose sim engine needs minutes
// for one SSSP.
func (r *run) otherEndpoints(c *client) {
	get := func(path string) float64 {
		r.attempted.Add(1)
		sp := r.tr.socket("endpoint", 0)
		status, _, body, lat, err := c.do("GET", path, nil, sp.header()...)
		sp.end()
		if err != nil || status != 200 {
			r.failf("GET %s: status %d, err %v: %.200s", path, status, err, body)
		}
		return ms(lat)
	}
	route, ccRoute := r.w.route(), r.w.route()
	switch r.w.engine {
	case "aam":
		route, ccRoute = shardRoute, shardRoute
	case "gblas":
		ccRoute = shardRoute
	}
	var pr, sssp, cc, full, summary []float64
	for k := 0; k < endpointReps; k++ {
		src := r.pool[(r.missNext.Add(1)-1)%int64(len(r.pool))]
		pr = append(pr, get(fmt.Sprintf("/query/pagerank?rep=%d%s", k, route)))
		sssp = append(sssp, get(fmt.Sprintf("/query/sssp?src=%d%s", src, route)))
		cc = append(cc, get(fmt.Sprintf("/query/cc?rep=%d%s", k, ccRoute)))
		summary = append(summary, get(fmt.Sprintf("/query/bfs?src=%d%s&rep=s", src, r.w.route())))
		full = append(full, get(fmt.Sprintf("/query/bfs?src=%d%s&rep=f&full=1", src, r.w.route())))
	}
	r.metrics["serve.pagerank_ms_p50"] = median(pr)
	r.metrics["serve.sssp_ms_p50"] = median(sssp)
	r.metrics["serve.cc_ms_p50"] = median(cc)
	r.metrics["serve.full_encode_ms"] = median(full) - median(summary)
}

// writeLadder posts the same kind of batch at successive depths: the
// socket, the handler, dyn.Apply with the log attached, and dyn.Apply on a
// twin graph without one. Every rung follows a Freeze of its graph, as a
// write beside reads does (the first Apply after a Freeze costs more than
// the next). The twin's Freeze is timed: an incremental freeze over exactly
// one batch of a graph that has seen only the ladder's batches, so what it
// touches repeats exactly for a seed.
func (r *run) writeLadder(c *client) {
	twin, err := dyn.New(r.base)
	if err != nil {
		r.failf("twin graph: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x1adde5))
	twin.Freeze() // the first freeze of a graph is a full one
	touched0 := twin.FreezeStats().TouchedVertices
	var buf []byte
	var applyMS, freezeMS []float64
	var rungs [3][]float64 // socket, handler, Apply with the log (ms)
	mutations := func(edges [][2]int32) []dyn.Mutation {
		b := make([]dyn.Mutation, len(edges))
		for i, e := range edges {
			b[i] = dyn.AddEdge(e[0], e[1])
		}
		return b
	}
	checkApply := func(res dyn.BatchResult, err error) {
		if err != nil || res.Applied+res.Redundant+res.Rejected != writeBatch {
			r.failf("ladder apply: %+v, err %v", res, err)
		}
	}
	for k := 0; k < ladderWrites; k++ {
		qid := r.tr.newQuery()
		r.attempted.Add(4)

		buf, _ = r.edgeBatch(rng, buf)
		r.g.Freeze()
		id1 := r.tr.begin("ladder socket POST", 0, qid)
		status, _, body, tSocket, err := c.do("POST", "/edges", buf)
		r.tr.end(id1)
		rungs[0] = append(rungs[0], ms(tSocket))
		r.checkWrite(status, body, err)

		buf, _ = r.edgeBatch(rng, buf)
		r.g.Freeze()
		id2 := r.tr.begin("ladder handler POST", id1, qid)
		rec := httptest.NewRecorder()
		r.srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/edges", strings.NewReader(string(buf))))
		rungs[1] = append(rungs[1], ms(r.tr.end(id2)))
		r.checkWrite(rec.Code, rec.Body.Bytes(), nil)

		var edges [][2]int32
		buf, edges = r.edgeBatch(rng, buf)
		batch := mutations(edges)
		r.g.Freeze()
		id3 := r.tr.begin("ladder Apply+WAL", id2, qid)
		res, err := r.g.Apply(batch, dyn.TxConfig{})
		rungs[2] = append(rungs[2], ms(r.tr.end(id3)))
		checkApply(res, err)
		if err == nil {
			r.acked.Store(res.Epoch)
			r.writes.Add(1)
		}

		id4 := r.tr.begin("ladder Apply", id3, qid)
		t0 := time.Now()
		res, err = twin.Apply(batch, dyn.TxConfig{})
		applyMS = append(applyMS, ms(time.Since(t0)))
		r.tr.end(id4)
		checkApply(res, err)

		freezeMS = append(freezeMS, ms(r.tr.timed("Freeze (incremental)", 0, qid, func() { twin.Freeze() })))
	}
	socket, handler, logged, apply := median(rungs[0]), median(rungs[1]), median(rungs[2]), median(applyMS)
	r.notes = append(r.notes, fmt.Sprintf(
		"write ladder, medians of %d: socket %.3f ms = socket self %.3f + handler self %.3f + WAL self %.3f + Apply %.3f",
		ladderWrites, socket, socket-handler, handler-logged, logged-apply, apply))
	r.metrics["dyn.apply_ms_p50"] = apply
	r.metrics["dyn.freeze_incr_ms"] = median(freezeMS)
	r.metrics["dyn.freeze_touched"] = float64(twin.FreezeStats().TouchedVertices - touched0)
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// phaseLayers measures what no gated phase reaches: the graph and dyn
// entry points set-up goes through, the two ladders, the other endpoints,
// the remaining engines' kernels, and the counters the program publishes.
func (r *run) phaseLayers() {
	m, f := r.metrics, r.f
	c := newClient(r.url)
	defer c.close()

	m["graph.vertices"] = float64(f.N)
	m["graph.arcs"] = float64(f.NumEdges())
	m["graph.edge_partition_ms"] = ms(r.tr.timed("graph.NewEdgePartition", 0, 0, func() { graph.NewEdgePartition(f, shards) }))
	var cw countingWriter
	m["graph.write_binary_ms"] = ms(r.tr.timed("graph.WriteBinary", 0, 0, func() {
		if err := graph.WriteBinary(&cw, f); err != nil {
			r.failf("WriteBinary: %v", err)
		}
	}))
	m["graph.binary_bytes"] = float64(cw.n)

	const snapshots = 10000
	m["dyn.snapshot_us"] = us(r.tr.timed("dyn.Snapshot x10000", 0, 0, func() {
		for i := 0; i < snapshots; i++ {
			r.g.Snapshot()
		}
	})) / snapshots
	snap := r.g.Snapshot()
	m["dyn.freeze_full_ms"] = ms(r.tr.timed("dyn.FullMaterialize", 0, 0, func() { snap.FullMaterialize() }))

	// Kernels the gated phase does not time: SSSP on both engines over the
	// weighted view the daemon builds, and sharded components.
	wf := graph.AttachSymmetricWeights(f, 1)
	src := r.kernelSrc[0]
	ref := algo.SeqSSSP(wf, src)
	same := func(d []uint64) bool {
		for v := range ref {
			if d[v] != ref[v] {
				return false
			}
		}
		return len(d) == len(ref)
	}
	r.attempted.Add(3)
	var sres shard.SSSPResult
	var err error
	d := r.tr.timed("shard.SSSP", 0, 0, func() { sres, err = shard.SSSP(wf, src, 0, shardCfg) })
	if err != nil || !same(sres.Dists) {
		r.failf("shard.SSSP src %d disagrees with the sequential reference (err %v)", src, err)
	}
	m["shard.sssp_mteps"] = float64(r.compArcs) / d.Seconds() / 1e6
	var gd []uint64
	d = r.tr.timed("gblas.EngineSSSP", 0, 0, func() { gd, _, err = gblas.EngineSSSP(wf, src) })
	if err != nil || !same(gd) {
		r.failf("gblas.EngineSSSP src %d disagrees with the sequential reference (err %v)", src, err)
	}
	m["gblas.sssp_mteps"] = float64(r.compArcs) / d.Seconds() / 1e6
	var cres shard.CCResult
	m["shard.cc_ms"] = ms(r.tr.timed("shard.Components", 0, 0, func() { cres, err = shard.Components(f, shardCfg) }))
	if err == nil {
		for _, v := range r.pool[:min(len(r.pool), 1000)] {
			if cres.Labels[v] != cres.Labels[r.pool[0]] {
				err = fmt.Errorf("vertices %d and %d of one component carry different labels", v, r.pool[0])
				break
			}
		}
	}
	if err != nil {
		r.failf("shard.Components: %v", err)
	}

	r.kernelLayers()
	r.layersCluster()
	if k := r.shardAcc.callsMS; r.cluster != nil {
		m["shard-net.overhead_x"] = m["shard-net.bfs_ms_p50"] / median(k)
	}
	r.layersAAM()
}

// layersCluster times the cluster engine directly and reads the wire
// counters around it. Every rank runs in this process, so the process-wide
// counters see all of a job's traffic.
func (r *run) layersCluster() {
	m := r.metrics
	if r.cluster == nil {
		for _, s := range perLayer {
			if strings.HasPrefix(s.Name, "shard-net.") {
				m[s.Name] = 0
			}
		}
		return
	}
	before := r.scrape()
	var callsMS []float64
	for _, src := range r.kernelSrc {
		r.attempted.Add(1)
		var res shard.BFSResult
		var err error
		d := r.tr.timed("cluster.BFS", 0, 0, func() { res, err = r.cluster.BFS(r.f, src, shardCfg) })
		if err != nil || countReached(res.Parents) != len(r.pool) {
			r.failf("cluster.BFS src %d: %v", src, err)
		}
		callsMS = append(callsMS, ms(d))
	}
	after := r.scrape()
	jobs := float64(len(r.kernelSrc))
	delta := func(series string) float64 { return after[series] - before[series] }
	m["shard-net.bfs_ms_p50"] = median(callsMS)
	m["shard-net.wire_bytes_per_job"] = delta("aam_net_bytes_sent_total") / jobs
	m["shard-net.frames_per_job"] = delta("aam_net_frames_sent_total") / jobs
	m["shard-net.state_sync_bytes_per_job"] = delta("aam_net_state_sync_bytes_total") / jobs
	m["shard-net.collectives_per_job"] = delta("aam_net_collectives_total") / jobs
	const iters = 4
	r.attempted.Add(1)
	d := r.tr.timed("cluster.PageRank", 0, 0, func() {
		if _, err := r.cluster.PageRank(r.f, 0.85, iters, shardCfg); err != nil {
			r.failf("cluster.PageRank: %v", err)
		}
	})
	m["shard-net.pagerank_ms_per_iter"] = ms(d) / iters
}

// layersAAM runs the paper's engine directly, on the workload that serves
// reads through it. Virtual time and counts repeat exactly for a seed.
func (r *run) layersAAM() {
	m := r.metrics
	if r.w.engine != "aam" {
		for _, s := range perLayer {
			if strings.HasPrefix(s.Name, "aam.") {
				m[s.Name] = 0
			}
		}
		return
	}
	var wall, native []float64
	for i, src := range r.kernelSrc[:5] {
		r.attempted.Add(2)
		var res exec.Result
		var parents []int64
		var d time.Duration
		r.tr.timed("aam sim BFS", 0, 0, func() { res, parents, d = aamBFS(r.f, backend.Sim, src) })
		if countReached(parents) != len(r.pool) {
			r.failf("aam sim BFS src %d reached %d, want %d", src, countReached(parents), len(r.pool))
		}
		wall = append(wall, ms(d))
		if i == 0 {
			m["aam.sim_bfs_machine_ms"] = float64(res.Elapsed) / 1e6
			m["aam.sim_txs"] = float64(res.Stats.TxStarted)
			m["aam.sim_aborts"] = float64(res.Stats.TotalAborts())
		}
		r.tr.timed("aam native BFS", 0, 0, func() { _, parents, d = aamBFS(r.f, backend.Native, src) })
		if countReached(parents) != len(r.pool) {
			r.failf("aam native BFS src %d reached %d, want %d", src, countReached(parents), len(r.pool))
		}
		native = append(native, float64(r.compArcs)/d.Seconds()/1e6)
	}
	m["aam.sim_bfs_wall_ms"] = median(wall)
	m["aam.native_bfs_mteps"] = median(native)
}

// finish turns spans, samples and the program's own counters into the
// remaining per-layer metrics and writes the span file.
func (t *tracer) finish(r *run) error {
	m := r.metrics
	var missHandler, hitHandler []float64
	for _, s := range t.spans {
		if s.Name != "handler" {
			continue
		}
		switch t.spans[s.Parent-1].Name {
		case "socket read-miss":
			missHandler = append(missHandler, ms(s.dur()))
		case "socket read-hit":
			hitHandler = append(hitHandler, us(s.dur()))
		}
	}
	m["serve.handler_miss_ms_p50"] = median(missHandler)
	m["serve.handler_hit_us_p50"] = median(hitHandler)
	// What a hit costs outside the daemon's handler: kernel, net/http on
	// both sides and the scheduler. Taken against all hits, not only the
	// one in 16 that carried a span.
	m["serve.socket_overhead_us"] = m["read_hit_p50_us"] - m["serve.handler_hit_us_p50"]
	traced, plain := median(t.samples["read-miss traced"]), median(t.samples["read-miss untraced"])
	m["bench.trace_overhead_pct"] = 100 * (traced - plain) / plain

	if r.spans == "" {
		return nil
	}
	file, err := os.Create(r.spans)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			file.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func (r *run) phaseReadLadder() {
	c := newClient(r.url)
	defer c.close()
	r.readLadder(c)
	r.otherEndpoints(c)
	// One explicit checkpoint, timed, before any write: recovery at the end
	// of the run still replays the tail the mixed phase leaves.
	r.metrics["wal.checkpoint_ms"] = ms(r.tr.timed("wal.Checkpoint", 0, 0, func() {
		if err := r.log.Checkpoint(); err != nil {
			r.failf("checkpoint: %v", err)
		}
	}))
}

// phaseWriteLadder runs the write ladder and then reads the counters the
// program publishes about the whole run, before anything is shut down.
func (r *run) phaseWriteLadder() {
	c := newClient(r.url)
	r.writeLadder(c)
	c.close()

	m := r.metrics
	series := r.scrape()
	gs, ws := r.g.Stats(), r.log.Stats()
	m["dyn.apply_aborts"] = float64(gs.Tx.TotalAborts())
	m["dyn.apply_retries"] = float64(gs.Tx.Retries)
	m["dyn.compactions"] = float64(gs.Compactions)
	m["wal.commit_ms_p50"] = series[`aam_wal_commit_latency_ns{quantile="0.5"}`] / 1e6
	m["wal.appends"] = float64(ws.Appends)
	m["wal.fsyncs"] = float64(ws.Fsyncs)
	m["wal.group_size_mean"] = series["aam_wal_group_size_sum"] / series["aam_wal_group_size_count"]
	m["wal.bytes_per_mutation"] = float64(ws.Bytes) / float64(ws.Appends*writeBatch)
	m["wal.checkpoints"] = float64(ws.Checkpoints) - 1 // the automatic ones
	m["serve.cache_hits"], m["serve.cache_misses"], m["serve.collapsed"] = r.cacheStats()
	m["serve.pool_saturation"] = series["aam_serve_pool_saturation_total"]
	if r.cluster != nil {
		m["shard-net.job_retries"] = series["aam_cluster_job_retries_total"]
		m["shard-net.heartbeat_rtt_us"] = series[`aam_cluster_heartbeat_rtt_ns{quantile="0.5"}`] / 1e3
	}
}

// kernelLayers turns what the engines returned during the kernel phase
// into the shard.* and gblas.* metrics (means per BFS call).
func (r *run) kernelLayers() {
	m, f := r.metrics, r.f
	perIterMS := func(mteps float64) float64 { return float64(f.NumEdges()) / (mteps * 1e3) }

	k := &r.shardAcc
	calls := float64(len(k.callsMS))
	m["shard.bfs_ms_p50"] = median(k.callsMS)
	m["shard.ns_per_arc"] = k.totalMS() * 1e6 / (calls * float64(r.compArcs))
	m["shard.levels"] = float64(k.levels) / calls
	m["shard.us_per_level"] = k.totalMS() * 1e3 / (float64(k.levels) + calls)
	m["shard.remote_units"] = float64(k.units) / calls
	m["shard.remote_batches"] = float64(k.batches) / calls
	m["shard.units_per_batch"] = float64(k.units) / max(float64(k.batches), 1)
	m["shard.aborts"] = float64(k.aborts) / calls
	m["shard.retries"] = float64(k.retries) / calls
	m["shard.buffer_allocs"] = float64(k.allocs) / calls
	m["shard.pagerank_ms_per_iter"] = perIterMS(m["pagerank_shard_mteps"])

	k = &r.gblasAcc
	calls = float64(len(k.callsMS))
	m["gblas.bfs_ms_p50"] = median(k.callsMS)
	m["gblas.ns_per_arc"] = k.totalMS() * 1e6 / (calls * float64(r.compArcs))
	// Computed from array sizes, not measured: one BFS reads the arc array
	// (4 B per arc) and the offsets (8 B per vertex) and owns three 8 B
	// vectors, a byte mask and a bitmap over the vertices.
	n := float64(f.N)
	m["gblas.bytes_per_arc"] = (4*float64(r.compArcs) + n*(8+3*8+1+1.0/8)) / float64(r.compArcs)
	m["gblas.push_steps"] = float64(k.pushSteps) / calls
	m["gblas.pull_steps"] = float64(k.pullSteps) / calls
	m["gblas.pagerank_ms_per_iter"] = perIterMS(m["pagerank_gblas_mteps"])
}
