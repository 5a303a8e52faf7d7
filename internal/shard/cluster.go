package shard

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"aamgo/internal/graph"
)

// The cluster layer is the session protocol over the tcp transport: a
// coordinator process listens, N worker processes join, and each
// algorithm call becomes a job — the coordinator ships the graph, the
// parameters and the normalized config to every worker (ftJob), every
// rank runs the same SPMD driver with a tcpTransport plugged into its
// executor, and the run's collectives keep the ranks in lockstep until
// Result() merges the counters. Results are bit-identical to the
// in-process engine; the coordinator returns them, the workers discard
// theirs.
//
// Since PR 10 the session survives worker failure (DESIGN.md §12):
//
//   - Failure detection: the coordinator heartbeats quiet links (ftPing /
//     ftPong) and evicts ranks whose links go silent past the liveness
//     deadline; collective timeouts catch mid-job deaths sooner.
//   - Eviction and rejoin: an evicted rank's slot stays open — the same
//     or a replacement worker re-handshakes into it (jobs are stateless
//     SPMD over a shipped graph, so a fresh ftJob fully re-initializes
//     state; nothing needs to be recovered from the dead process).
//   - Job retry: Cluster.run retries a failed job with jittered backoff
//     over the surviving/rejoined ranks, shrinking the attempt's rank
//     set when no replacement arrives within the grace window. Before a
//     retry, the in-flight attempt is aborted on survivors (ftAbort) and
//     acknowledged, so no frame of a dead attempt can leak into the next.
//   - Only a fingerprint desync still poisons the cluster: ranks running
//     divergent code would fail identically on every retry.
//
// Coordinator:
//
//	c, _ := shard.NewCluster("127.0.0.1:0", 2)
//	// ... workers join c.Addr() ...
//	if err := c.Accept(); err != nil { ... }
//	res, err := c.BFS(g, 0, shard.Config{Shards: 8})
//	c.Close()
//
// Worker: shard.JoinCluster(addr) serves jobs until the coordinator says
// bye (cmd/aam-worker wraps exactly this, with -rejoin looping it).

// handshakeTimeout bounds Accept's wait for each worker and the
// hello/welcome exchange.
const handshakeTimeout = 60 * time.Second

// Dial tuning for JoinCluster: workers routinely start before their
// coordinator has bound its listener, so the dial retries with capped
// exponential backoff. The defaults give a grace window of roughly a
// minute (50 ms doubling to a 2 s cap over 30 attempts) — comparable to
// handshakeTimeout — after which the last dial error surfaces.
const (
	joinDialTimeout  = 5 * time.Second
	joinDialAttempts = 30
	joinBackoffBase  = 50 * time.Millisecond
	joinBackoffCap   = 2 * time.Second
)

// retryBackoffCap bounds the doubling job-retry backoff.
const retryBackoffCap = 2 * time.Second

// dialCoordinator dials addr with bounded, jittered exponential backoff.
// Jitter (uniform over the upper half of each window) keeps a fleet of
// workers restarted together from re-dialing in lockstep.
func dialCoordinator(addr string, attempts int) (net.Conn, error) {
	backoff := joinBackoffBase
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
			if backoff *= 2; backoff > joinBackoffCap {
				backoff = joinBackoffCap
			}
		}
		conn, err := net.DialTimeout("tcp", addr, joinDialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("shard: dialing coordinator %s: %d attempts exhausted: %w", addr, attempts, lastErr)
}

// jobSpec is one algorithm invocation shipped to every worker.
type jobSpec struct {
	Nonce    uint64 // attempt id, strictly increasing per cluster
	JobRank  int    // recipient's rank within this attempt's dense set
	JobRanks int    // attempt rank-set size (≤ cluster size)
	Name     string
	Params   []uint64
	Cfg      Config
	G        *graph.Graph
}

// jobRunners is the wire job table: the name shipped in the job frame →
// the SPMD driver every rank — the coordinator through clusterJob,
// workers through runJob — runs over the frame's packed parameters. Each
// driver unpacks what the Cluster method of the same name packs (ints as
// two's-complement words, floats as IEEE bits). Tests register extra
// runners (the package is internal, so the table is package-private).
var jobRunners = map[string]func(g *graph.Graph, p []uint64, cfg Config) (any, error){
	"bfs":      func(g *graph.Graph, p []uint64, cfg Config) (any, error) { return BFS(g, int(int64(p[0])), cfg) },
	"cc":       func(g *graph.Graph, _ []uint64, cfg Config) (any, error) { return Components(g, cfg) },
	"sssp":     func(g *graph.Graph, p []uint64, cfg Config) (any, error) { return SSSP(g, int(int64(p[0])), p[1], cfg) },
	"mst":      func(g *graph.Graph, _ []uint64, cfg Config) (any, error) { return MST(g, cfg) },
	"coloring": func(g *graph.Graph, p []uint64, cfg Config) (any, error) { return Coloring(g, p[0], cfg) },
	"pagerank": func(g *graph.Graph, p []uint64, cfg Config) (any, error) {
		return PageRank(g, math.Float64frombits(p[0]), int(int64(p[1])), cfg)
	},
}

// JobNames lists the wire job table in sorted order.
func JobNames() []string { return slices.Sorted(maps.Keys(jobRunners)) }

// clusterJob runs the named job across the cluster — the packed
// parameters ride the job frame to the workers — and returns the typed
// result of the coordinator's own rank. The nil *Cluster is the in-process
// engine: the same driver over the same packed parameters, no workers.
func clusterJob[R any](c *Cluster, name string, g *graph.Graph, cfg Config, params ...uint64) (R, error) {
	var res any
	err := c.run(name, params, cfg, g, func(cfg Config) (err error) {
		res, err = jobRunners[name](g, params, cfg)
		return err
	})
	typed, _ := res.(R) // the zero R alongside a non-nil err
	return typed, err
}

// ClusterOptions tunes the coordinator's failure handling. The zero
// value gives production defaults.
type ClusterOptions struct {
	// Net carries the session-level clocks: HeartbeatEvery and Liveness
	// drive the heartbeat loop, CollTimeout bounds the abort-ack wait.
	// Zero fields take the Config defaults (withDefaults).
	Net Config
	// JobRetries is how many times a failed job is retried over the
	// surviving ranks (0 = default of 2; negative = no retries).
	JobRetries int
	// RetryBackoff is the base of the jittered, doubling backoff between
	// attempts (default 100ms, capped at 2s).
	RetryBackoff time.Duration
	// RejoinGrace is how long a retry waits for evicted ranks to be
	// replaced before shrinking the attempt's rank set (default 2s).
	RejoinGrace time.Duration
	// Chaos, when non-nil, injects deterministic frame-level faults on
	// every worker link (tests only; see chaos.go).
	Chaos *ChaosPlan
	// Logf, when non-nil, receives eviction/rejoin/retry log lines.
	Logf func(format string, args ...any)
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	o.Net = o.Net.withDefaults()
	if o.JobRetries == 0 {
		o.JobRetries = 2
	} else if o.JobRetries < 0 {
		o.JobRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.RejoinGrace <= 0 {
		o.RejoinGrace = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Cluster is the coordinator's handle: rank 0 of a coordinator + N
// workers machine. Job submission is serialized (runMu); membership
// changes (evictions, rejoins) happen concurrently under mu. The nil
// *Cluster has no workers: its algorithm methods run in-process.
type Cluster struct {
	opts     ClusterOptions
	ln       net.Listener
	node     *node
	maxRanks int

	mu      sync.Mutex
	peers   []*link // session rank → live link (nil = vacant slot)
	claimed []bool  // vacant slot currently mid-handshake
	poison  error   // protocol desync; poisons subsequent runs
	closed  bool

	stopCh chan struct{} // closes on Close: stops accept/heartbeat loops

	runMu sync.Mutex
	nonce uint64
}

// NewCluster listens on addr for workers peers to join, with default
// fault-tolerance options. Call Accept to wait for all of them; Addr
// gives the bound address (useful with ":0").
func NewCluster(addr string, workers int) (*Cluster, error) {
	return NewClusterOpts(addr, workers, ClusterOptions{})
}

// NewClusterOpts is NewCluster with explicit failure-handling options.
func NewClusterOpts(addr string, workers int, opts ClusterOptions) (*Cluster, error) {
	if workers < 1 {
		return nil, fmt.Errorf("shard: cluster needs >= 1 worker, got %d", workers)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		opts:     opts.withDefaults(),
		ln:       ln,
		node:     newNode(0, workers+1, nil),
		maxRanks: workers + 1,
		peers:    make([]*link, workers+1),
		claimed:  make([]bool, workers+1),
		stopCh:   make(chan struct{}),
	}, nil
}

// Addr returns the coordinator's listen address.
func (c *Cluster) Addr() string { return c.ln.Addr().String() }

// logf reports membership and retry events.
func (c *Cluster) logf(format string, args ...any) { c.opts.Logf(format, args...) }

// Accept waits for every worker to join and completes the hello/welcome
// handshake, assigning ranks in connection order; it then starts the
// background accept loop (rejoins) and the heartbeat loop.
func (c *Cluster) Accept() error {
	for r := 1; r < c.maxRanks; r++ {
		if tl, ok := c.ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Now().Add(handshakeTimeout))
		}
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("shard: waiting for worker %d/%d: %w", r, c.maxRanks-1, err)
		}
		l, err := c.admit(conn, r)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.peers[r] = l
		c.mu.Unlock()
		go c.node.readLoop(l)
	}
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	c.updateRankGauges()
	go c.acceptLoop()
	go c.heartbeatLoop()
	return nil
}

// admit runs the hello/welcome handshake on one inbound connection that
// will hold session rank r.
func (c *Cluster) admit(conn net.Conn, r int) (*link, error) {
	l := newLink(conn)
	l.peer = r
	if c.opts.Chaos != nil {
		l.chaos = c.opts.Chaos.link(r)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	ft, _, err := readFrame(l.br)
	if err != nil || ft != ftHello {
		conn.Close()
		return nil, fmt.Errorf("shard: worker %d handshake: got frame %d, err %v", r, ft, err)
	}
	var welcome [8]byte
	putU32(welcome[0:4], uint32(r))
	putU32(welcome[4:8], uint32(c.maxRanks))
	if err := l.writeFrame(ftWelcome, welcome[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("shard: worker %d welcome: %w", r, err)
	}
	conn.SetDeadline(time.Time{})
	return l, nil
}

// acceptLoop admits replacement workers into vacated ranks for the
// cluster's whole life.
func (c *Cluster) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		go c.handleJoin(conn)
	}
}

// handleJoin re-handshakes one inbound connection into a vacated rank.
func (c *Cluster) handleJoin(conn net.Conn) {
	r := c.claimVacant()
	if r < 0 {
		l := newLink(conn)
		l.writeFrame(ftError, []byte("shard: cluster full"))
		conn.Close()
		return
	}
	l, err := c.admit(conn, r)
	if err != nil {
		c.mu.Lock()
		c.claimed[r] = false
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.claimed[r] = false
	if c.closed {
		// Close ran mid-handshake and never saw this link: say its bye, or
		// the worker idles on the session for ever.
		c.mu.Unlock()
		l.writeFrame(ftBye, nil)
		conn.Close()
		return
	}
	c.peers[r] = l
	c.mu.Unlock()
	metClusterRejoins.Inc()
	c.updateRankGauges()
	c.logf("shard: rank %d rejoined", r)
	go c.node.readLoop(l)
}

// claimVacant reserves the lowest vacant session rank (-1 if none).
func (c *Cluster) claimVacant() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return -1
	}
	for r := 1; r < c.maxRanks; r++ {
		if c.peers[r] == nil && !c.claimed[r] {
			c.claimed[r] = true
			return r
		}
	}
	return -1
}

// evict removes rank r from the membership and tears its link down. The
// slot stays open for a rejoin. Idempotent per link: a second eviction
// of an already-vacated rank is a no-op.
func (c *Cluster) evict(r int, cause error) {
	if r <= 0 || r >= c.maxRanks {
		return
	}
	c.mu.Lock()
	l := c.peers[r]
	if l == nil {
		c.mu.Unlock()
		return
	}
	c.peers[r] = nil
	c.mu.Unlock()
	l.fail(cause)
	metClusterEvictions.Inc()
	c.updateRankGauges()
	c.logf("shard: evicted rank %d: %v", r, cause)
}

// isLive reports whether l still holds its session rank (it may have
// been evicted and even replaced since the attempt snapshotted it).
func (c *Cluster) isLive(l *link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return l.peer > 0 && l.peer < c.maxRanks && c.peers[l.peer] == l
}

// LiveWorkers returns how many worker ranks currently hold live links.
func (c *Cluster) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for r := 1; r < c.maxRanks; r++ {
		if c.peers[r] != nil {
			live++
		}
	}
	return live
}

// Err returns the poison error, if a protocol desync killed the cluster.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.poison
}

func (c *Cluster) poisonWith(err error) {
	c.mu.Lock()
	if c.poison == nil {
		c.poison = err
	}
	c.mu.Unlock()
}

func (c *Cluster) updateRankGauges() {
	live := c.LiveWorkers() + 1 // the coordinator counts itself
	metClusterRanksLive.Set(int64(live))
	metClusterRanksVacant.Set(int64(c.maxRanks - live))
}

// heartbeatLoop probes quiet worker links and evicts ranks whose links
// stay silent past the liveness deadline. Any inbound frame proves
// liveness; pings only flow when a link has been quiet for a full
// heartbeat interval, so the fault-free hot path carries no extra
// frames.
func (c *Cluster) heartbeatLoop() {
	hb := c.opts.Net.HeartbeatEvery
	live := c.opts.Net.Liveness
	step := hb / 2
	if step < 5*time.Millisecond {
		step = 5 * time.Millisecond
	}
	tick := time.NewTicker(step)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case now := <-tick.C:
			c.mu.Lock()
			peers := make([]*link, len(c.peers))
			copy(peers, c.peers)
			c.mu.Unlock()
			nowNs := now.UnixNano()
			for r, l := range peers {
				if r == 0 || l == nil {
					continue
				}
				quiet := nowNs - l.lastRecv.Load()
				if quiet >= live.Nanoseconds() {
					c.evict(r, fmt.Errorf("shard: rank %d liveness expired (quiet for %v)", r, time.Duration(quiet)))
					continue
				}
				if quiet >= hb.Nanoseconds() && nowNs-l.lastPing >= hb.Nanoseconds() {
					l.lastPing = nowNs
					var p [8]byte
					putU64(p[:], uint64(nowNs))
					if err := l.writeFrame(ftPing, p[:]); err != nil {
						c.evict(r, fmt.Errorf("shard: ping rank %d: %w", r, err))
					}
				}
			}
		}
	}
}

// participants snapshots the live worker links in session-rank order.
func (c *Cluster) participants() []*link {
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := make([]*link, 0, c.maxRanks-1)
	for r := 1; r < c.maxRanks; r++ {
		if c.peers[r] != nil {
			parts = append(parts, c.peers[r])
		}
	}
	return parts
}

// awaitCapacity waits up to grace for the live worker count to reach
// want (rejoins land asynchronously), polling cheaply.
func (c *Cluster) awaitCapacity(want int, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for c.LiveWorkers() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

// run executes one job across the cluster: broadcast the spec, run fn
// (the coordinator's typed driver closure) with a tcp transport wired
// into the config, and unwind any protocol failure into an error.
//
// A failed attempt no longer poisons the cluster: the offending rank is
// evicted, the attempt is aborted on the survivors, and the job retries
// over the ranks that remain (rejoined replacements included) after a
// jittered backoff. A plain algorithm error from fn is deterministic
// from the shared spec — every rank computed the same one — so it
// returns immediately and the cluster stays usable. Only a fingerprint
// desync (ranks running divergent code) poisons the cluster.
func (c *Cluster) run(name string, params []uint64, cfg Config, g *graph.Graph, fn func(cfg Config) error) error {
	if c == nil {
		return fn(cfg)
	}
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if err := c.Err(); err != nil {
		return fmt.Errorf("shard: cluster poisoned by earlier failure: %w", err)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return fmt.Errorf("shard: cluster is closed")
	}
	cfg = cfg.withDefaults()
	cfg.transport = nil // never ship a transport; each rank plugs its own

	maxAttempts := 1 + c.opts.JobRetries
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			metClusterRetries.Inc()
			c.logf("shard: retrying job %q (attempt %d/%d): %v", name, attempt+1, maxAttempts, lastErr)
			time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
			if backoff *= 2; backoff > retryBackoffCap {
				backoff = retryBackoffCap
			}
			c.awaitCapacity(c.maxRanks-1, c.opts.RejoinGrace)
		}
		err, retryable := c.runAttempt(name, params, cfg, g, fn)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	return fmt.Errorf("shard: job %q failed after %d attempts: %w", name, maxAttempts, lastErr)
}

// runAttempt runs one attempt of a job over the currently-live ranks.
// retryable reports whether a failure was a wire fault (eviction-based
// recovery is sound) as opposed to a deterministic algorithm error or a
// desync (which also poisons).
func (c *Cluster) runAttempt(name string, params []uint64, cfg Config, g *graph.Graph, fn func(cfg Config) error) (err error, retryable bool) {
	parts := c.participants()
	jobRanks := 1 + len(parts)
	jobLinks := make([]*link, jobRanks)
	for i, l := range parts {
		jobLinks[i+1] = l
	}
	c.nonce++
	nonce := c.nonce
	spec := jobSpec{Nonce: nonce, JobRank: 0, JobRanks: jobRanks, Name: name, Params: params, Cfg: cfg, G: g}
	payload, err := encodeJob(spec)
	if err != nil {
		return err, false
	}

	n := c.node
	n.clearAbort(0)
	// Belt and suspenders: the abort-ack protocol guarantees these
	// channels are quiet between attempts, but a frame that somehow
	// survived (a worker evicted mid-ack) must not greet the new attempt.
	for _, l := range jobLinks[1:] {
		drainColl(l)
		for {
			select {
			case <-l.abortNonces:
				continue
			default:
			}
			break
		}
	}
	n.startJob(nonce, 0, jobRanks, jobLinks, cfg.CollTimeout)
	watchdog := time.AfterFunc(cfg.JobTimeout, func() {
		n.requestAbort(fmt.Errorf("%w: job %q exceeded JobTimeout %v", errAborted, name, cfg.JobTimeout))
	})
	failed := false
	defer func() {
		watchdog.Stop()
		if r := recover(); r != nil {
			nf, ok := r.(netFailure)
			if !ok {
				panic(r)
			}
			failed = true
			err = nf.err
			retryable = !nf.desync
			if nf.desync {
				c.poisonWith(nf.err)
			}
			if nf.rank > 0 {
				c.evict(nf.rank, nf.err)
			}
		}
		if failed {
			c.abortSurvivors(nonce, jobLinks, cfg.CollTimeout)
		}
		n.setExec(nil)
	}()

	for r, l := range jobLinks[1:] {
		patchJobRank(payload, r+1)
		if err := l.writeFrame(ftJob, payload); err != nil {
			panic(netFailure{err: fmt.Errorf("shard: job send to rank %d: %w", l.peer, err), rank: l.peer})
		}
	}
	runCfg := cfg
	runCfg.transport = &tcpTransport{node: n}
	return fn(runCfg), false
}

// abortSurvivors cancels the attempt named nonce on every rank of the
// attempt that is still live: broadcast ftAbort, await each rank's
// acknowledgement, then drain whatever stale collective frames the dead
// attempt left buffered. The ack is FIFO-ordered behind every frame the
// worker sent for the attempt, so post-drain the link is provably quiet
// — no frame of this attempt can reach the next one. Ranks that fail to
// acknowledge within the collective timeout are evicted.
func (c *Cluster) abortSurvivors(nonce uint64, jobLinks []*link, ackTO time.Duration) {
	c.node.setExec(nil) // detach first: in-flight batches drop, not relay
	var p [8]byte
	putU64(p[:], nonce)
	for _, l := range jobLinks[1:] {
		if !c.isLive(l) {
			continue
		}
		if err := l.writeFrame(ftAbort, p[:]); err != nil {
			c.evict(l.peer, fmt.Errorf("shard: abort send: %w", err))
		}
	}
	for _, l := range jobLinks[1:] {
		if !c.isLive(l) {
			continue
		}
		if !awaitAbortAck(l, nonce, ackTO) {
			c.evict(l.peer, fmt.Errorf("shard: abort ack timeout (nonce %d)", nonce))
			continue
		}
		drainColl(l)
	}
}

// awaitAbortAck waits for the worker on l to acknowledge abort nonce,
// skipping stale acks of earlier attempts.
func awaitAbortAck(l *link, nonce uint64, to time.Duration) bool {
	timer := time.NewTimer(to)
	defer timer.Stop()
	for {
		select {
		case got := <-l.abortNonces:
			if got >= nonce {
				return true
			}
		case <-l.errCh:
			return false
		case <-timer.C:
			return false
		}
	}
}

// BFS runs the distributed direction-optimizing BFS; results are
// bit-identical (per-vertex levels) to the in-process engine.
func (c *Cluster) BFS(g *graph.Graph, src int, cfg Config) (BFSResult, error) {
	return clusterJob[BFSResult](c, "bfs", g, cfg, uint64(int64(src)))
}

// PageRank runs the distributed fixed-point PageRank; rank bits are
// identical to the in-process engine.
func (c *Cluster) PageRank(g *graph.Graph, damping float64, iterations int, cfg Config) (PRResult, error) {
	return clusterJob[PRResult](c, "pagerank", g, cfg, math.Float64bits(damping), uint64(int64(iterations)))
}

// Components runs the distributed min-label connected components.
func (c *Cluster) Components(g *graph.Graph, cfg Config) (CCResult, error) {
	return clusterJob[CCResult](c, "cc", g, cfg)
}

// SSSP runs the distributed delta-stepping SSSP; distance bits are
// identical to the in-process engine.
func (c *Cluster) SSSP(g *graph.Graph, src int, delta uint64, cfg Config) (SSSPResult, error) {
	return clusterJob[SSSPResult](c, "sssp", g, cfg, uint64(int64(src)), delta)
}

// MST runs the distributed Borůvka MST.
func (c *Cluster) MST(g *graph.Graph, cfg Config) (MSTResult, error) {
	return clusterJob[MSTResult](c, "mst", g, cfg)
}

// Coloring runs the distributed Jones–Plassmann coloring.
func (c *Cluster) Coloring(g *graph.Graph, seed uint64, cfg Config) (ColoringResult, error) {
	return clusterJob[ColoringResult](c, "coloring", g, cfg, seed)
}

// Close releases the cluster: workers get a clean bye (their JoinCluster
// returns nil) and every connection closes.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*link, len(c.peers))
	copy(peers, c.peers)
	c.mu.Unlock()
	close(c.stopCh)
	for r := 1; r < c.maxRanks; r++ {
		if l := peers[r]; l != nil {
			l.writeFrame(ftBye, nil)
			l.conn.Close()
		}
	}
	return c.ln.Close()
}

// JoinCluster dials a coordinator and serves jobs until it says bye
// (returning nil) or the session fails (returning the failure). Each job
// runs the same SPMD driver the coordinator runs, with this process's
// rank of the shard space. The dial itself retries with bounded backoff
// (see dialCoordinator), so a coordinator that is still binding its
// listener is tolerated; handshake and session failures do not retry —
// callers that want a rejoin loop wrap JoinCluster (aam-worker -rejoin).
func JoinCluster(addr string) error {
	return joinCluster(addr, joinDialAttempts)
}

// joinCluster is JoinCluster with an explicit dial-retry budget (tests
// use a small one so teardown never waits out the full dial window).
func joinCluster(addr string, dialAttempts int) error {
	conn, err := dialCoordinator(addr, dialAttempts)
	if err != nil {
		return err
	}
	l := newLink(conn)
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := l.writeFrame(ftHello, nil); err != nil {
		conn.Close()
		return err
	}
	ft, payload, err := readFrame(l.br)
	if err != nil || ft != ftWelcome || len(payload) != 8 {
		conn.Close()
		return fmt.Errorf("shard: join handshake: frame %d (%d bytes), err %v", ft, len(payload), err)
	}
	conn.SetDeadline(time.Time{})
	rank := int(getU32(payload[0:4]))
	nranks := int(getU32(payload[4:8]))
	if rank < 1 || rank >= nranks {
		conn.Close()
		return fmt.Errorf("shard: coordinator assigned rank %d of %d", rank, nranks)
	}
	n := newNode(rank, nranks, []*link{l})
	go n.readLoop(l)
	return n.serveJobs(l)
}

// serveJobs is the worker's main loop: run jobs as they arrive and
// acknowledge aborts. A job's algorithm error is deterministic from the
// spec — the coordinator computed the same one — so the worker keeps
// serving; an abort cancels the attempt but preserves the session;
// protocol failures end the session (a rejoin loop re-handshakes).
func (n *node) serveJobs(l *link) error {
	for {
		select {
		case payload := <-l.jobCh:
			if err, fatal := n.runJob(payload); fatal {
				l.writeFrame(ftError, []byte(err.Error()))
				l.conn.Close()
				return err
			}
			n.ackAborts(l)
		case nonce := <-l.abortNonces:
			n.finishAbort(l, nonce)
		case <-l.byeCh:
			return nil
		case err := <-l.errCh:
			return err
		}
	}
}

// ackAborts drains pending abort requests after a job unwound.
func (n *node) ackAborts(l *link) {
	for {
		select {
		case nonce := <-l.abortNonces:
			n.finishAbort(l, nonce)
		default:
			return
		}
	}
}

// finishAbort completes one abort on the worker side: the attempt has
// unwound (or never ran), so drain its stale collective frames, clear
// the abort latch and acknowledge. The coordinator sends nothing between
// its ftAbort and our ack, so the drain leaves the link provably quiet.
func (n *node) finishAbort(l *link, nonce uint64) {
	drainColl(l)
	n.clearAbort(nonce)
	var p [8]byte
	putU64(p[:], nonce)
	l.writeFrame(ftAbort, p[:]) // on error the read loop fails the link
}

// runJob decodes and executes one job attempt on this rank.
func (n *node) runJob(payload []byte) (err error, fatal bool) {
	spec, err := decodeJob(payload)
	if err != nil {
		return err, true
	}
	if n.jobFence(spec.Nonce) {
		// A stale attempt: either the coordinator aborted it (possibly
		// before we even started it) and has moved on, or the frame is a
		// duplicate of a job we already ran.
		return nil, false
	}
	runner := jobRunners[spec.Name]
	if runner == nil {
		return fmt.Errorf("shard: unknown job %q", spec.Name), true
	}
	if spec.JobRank < 1 || spec.JobRanks < 2 || spec.JobRank >= spec.JobRanks || spec.JobRanks > n.nranks {
		return fmt.Errorf("shard: job places this rank at %d of %d", spec.JobRank, spec.JobRanks), true
	}
	defer func() {
		if r := recover(); r != nil {
			if nf, ok := r.(netFailure); ok {
				err = nf.err
				// A deliberate abort preserves the session: the attempt is
				// dead cluster-wide and the coordinator awaits our ack.
				fatal = !nf.abort
			} else {
				err = fmt.Errorf("shard: job %q panicked: %v", spec.Name, r)
				fatal = true
			}
		}
		n.setExec(nil)
	}()
	cfg := spec.Cfg // already normalized by the coordinator's run()
	cfg.transport = &tcpTransport{node: n}
	n.startJob(spec.Nonce, spec.JobRank, spec.JobRanks, nil, cfg.CollTimeout)
	_, err = runner(spec.G, spec.Params, cfg)
	return err, false
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
