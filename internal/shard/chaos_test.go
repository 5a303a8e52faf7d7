package shard

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// chaosNetOpts returns session clocks tight enough that fault detection
// completes in test time. Liveness stays generous relative to the
// heartbeat: a live worker's read loop pongs every probe, so only a
// genuinely dead peer accumulates ten silent intervals even under -race
// scheduling jitter.
func chaosNetOpts(plan *chaosPlan, t *testing.T) ClusterOptions {
	return ClusterOptions{
		Net:          Config{HeartbeatEvery: 50 * time.Millisecond, Liveness: 500 * time.Millisecond},
		JobRetries:   3,
		RejoinGrace:  1500 * time.Millisecond,
		retryBackoff: 20 * time.Millisecond,
		chaos:        plan,
		Logf:         t.Logf,
	}
}

// chaosJobCfg is the per-job config for chaos runs: collective and job
// timeouts short enough that a starved rank is detected in hundreds of
// milliseconds, not minutes.
func chaosJobCfg() Config {
	return Config{
		Shards:      4,
		Workers:     1,
		BatchSize:   32,
		CollTimeout: 600 * time.Millisecond,
		JobTimeout:  2500 * time.Millisecond,
	}
}

// startChaosCluster starts a coordinator with opts plus `workers`
// loopback workers. With rejoin set, each worker runs a rejoin loop —
// session failures (evictions, chaos kills) send it back through
// joinCluster — mirroring aam-worker's -rejoin flag. Teardown closes the
// cluster and waits for every worker loop to exit.
func startChaosCluster(t *testing.T, workers int, opts ClusterOptions, rejoin bool) *Cluster {
	t.Helper()
	c, err := NewClusterOpts("127.0.0.1:0", workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				err := joinCluster(c.Addr(), 5)
				if err == nil || !rejoin {
					return
				}
				select {
				case <-stop:
					return
				default:
					t.Logf("worker %d session ended (%v), rejoining", i, err)
				}
			}
		}(i)
	}
	if err := c.Accept(); err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(stop)
		c.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Error("worker goroutines did not exit after Close")
		}
	})
	return c
}

// TestChaosScheduleDeterministic pins the chaos contract: the fault
// schedule is a pure function of (seed, rank, incarnation, frame
// ordinal). Identical plans must produce identical per-frame decisions;
// a different seed must diverge.
func TestChaosScheduleDeterministic(t *testing.T) {
	mk := func(seed int64) *chaosPlan {
		return &chaosPlan{
			seed:      seed,
			dropP:     0.08,
			dupP:      0.08,
			corruptP:  0.08,
			delayP:    0.08,
			dropAt:    map[int][]uint64{1: {5, 9}},
			killAt:    map[int]uint64{1: 40},
			partition: map[int][2]uint64{1: {20, 25}},
		}
	}
	schedule := func(p *chaosPlan, rank int) []chaosAction {
		cl := p.link(rank)
		out := make([]chaosAction, 200)
		for fr := range out {
			out[fr], _ = cl.decide(uint64(fr))
		}
		return out
	}
	a, b := schedule(mk(42), 1), schedule(mk(42), 1)
	for fr := range a {
		if a[fr] != b[fr] {
			t.Fatalf("same seed diverged at frame %d: %v vs %v", fr, a[fr], b[fr])
		}
	}
	// The scripted triggers must appear exactly where the plan says.
	for _, fr := range []uint64{5, 9} {
		if a[fr] != chaosDrop {
			t.Errorf("frame %d: want scripted drop, got %v", fr, a[fr])
		}
	}
	if a[40] != chaosKill {
		t.Errorf("frame 40: want kill, got %v", a[40])
	}
	for fr := uint64(20); fr < 25; fr++ {
		if a[fr] != chaosDrop {
			t.Errorf("frame %d: want partition drop, got %v", fr, a[fr])
		}
	}
	// A different seed must change the probabilistic part somewhere.
	c := schedule(mk(1337), 1)
	same := true
	for fr := range a {
		if a[fr] != c[fr] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
	// A rejoined link (incarnation 1) must not replay scripted kills.
	p := mk(42)
	p.link(1) // incarnation 0
	cl := p.link(1)
	if cl.inc != 1 {
		t.Fatalf("second link incarnation = %d, want 1", cl.inc)
	}
	if got, _ := cl.decide(40); got == chaosKill {
		t.Error("incarnation 1 replayed the scripted kill")
	}
}

// TestClusterOptionDefaultsPinned pins the fault-tolerance defaults the
// docs and flags advertise.
func TestClusterOptionDefaultsPinned(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.CollTimeout != 2*time.Minute {
		t.Errorf("CollTimeout default = %v, want 2m", cfg.CollTimeout)
	}
	if cfg.HeartbeatEvery != 5*time.Second {
		t.Errorf("HeartbeatEvery default = %v, want 5s", cfg.HeartbeatEvery)
	}
	if cfg.Liveness != 15*time.Second {
		t.Errorf("Liveness default = %v, want 15s", cfg.Liveness)
	}
	if cfg.JobTimeout != 10*time.Minute {
		t.Errorf("JobTimeout default = %v, want 10m", cfg.JobTimeout)
	}
	o := ClusterOptions{}.withDefaults()
	if o.JobRetries != 2 {
		t.Errorf("JobRetries default = %d, want 2", o.JobRetries)
	}
	if o.RejoinGrace != 2*time.Second {
		t.Errorf("RejoinGrace default = %v, want 2s", o.RejoinGrace)
	}
	if neg := (ClusterOptions{JobRetries: -1}).withDefaults(); neg.JobRetries != 0 {
		t.Errorf("JobRetries -1 = %d, want 0 (retries disabled)", neg.JobRetries)
	}
}

// chaosRefs holds the in-process reference results the chaos runs must
// reproduce bit-for-bit.
type chaosRefs struct {
	g     *graph.Graph
	wg    *graph.Graph
	src   int
	depth []int32
	ranks []float64
	dists []uint64
}

func makeChaosRefs(t *testing.T) *chaosRefs {
	g := graph.Kronecker(8, 8, 3)
	wg := graph.AttachSymmetricWeights(g, 7)
	src := g.MaxDegreeVertex()
	r := &chaosRefs{g: g, wg: wg, src: src, depth: algo.SeqBFS(g, src)}
	cfg := chaosJobCfg()
	pr, err := PageRank(g, 0.85, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ranks = pr.Ranks
	ss, err := SSSP(wg, src, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.dists = ss.Dists
	return r
}

// runChaosAlgo runs one algorithm on the cluster and asserts the result
// is bit-identical to the in-process run (which itself matched the
// sequential reference).
func runChaosAlgo(t *testing.T, c *Cluster, refs *chaosRefs, alg string) {
	t.Helper()
	cfg := chaosJobCfg()
	switch alg {
	case "bfs":
		res, err := c.BFS(refs.g, refs.src, cfg)
		if err != nil {
			t.Fatalf("bfs: %v", err)
		}
		d := depths(refs.g, refs.src, res.Parents)
		for v := range d {
			if d[v] != refs.depth[v] {
				t.Fatalf("bfs depth[%d] = %d, want %d", v, d[v], refs.depth[v])
			}
		}
	case "pagerank":
		res, err := c.PageRank(refs.g, 0.85, 10, cfg)
		if err != nil {
			t.Fatalf("pagerank: %v", err)
		}
		for v := range refs.ranks {
			if res.Ranks[v] != refs.ranks[v] {
				t.Fatalf("pagerank[%d] = %v, want %v (not bit-identical)", v, res.Ranks[v], refs.ranks[v])
			}
		}
	case "sssp":
		res, err := c.SSSP(refs.wg, refs.src, 0, cfg)
		if err != nil {
			t.Fatalf("sssp: %v", err)
		}
		for v := range refs.dists {
			if res.Dists[v] != refs.dists[v] {
				t.Fatalf("sssp[%d] = %d, want %d", v, res.Dists[v], refs.dists[v])
			}
		}
	default:
		t.Fatalf("unknown algorithm %q", alg)
	}
}

// TestChaosEquivalenceMatrix is the robustness tentpole's proof
// obligation: under every injected failure mode — scripted frame drops,
// random delays, duplicated and corrupted frames, a one-way partition
// window, and a connection kill mid-job — every algorithm still returns
// results bit-identical to the in-process engine. Failures cost retries,
// never answers. Workers run rejoin loops, so killed sessions
// re-handshake into their vacated ranks.
func TestChaosEquivalenceMatrix(t *testing.T) {
	refs := makeChaosRefs(t)
	modes := []struct {
		name string
		plan func() *chaosPlan
	}{
		// Frame 0 on a worker link is its ftJob and frame 1 the result of
		// the run's opening collective; frames 2+ are collective results
		// and relays. Dropping frame 1 starves rank 1 inside the opening
		// collective.
		{"drop", func() *chaosPlan {
			return &chaosPlan{seed: 42, dropAt: map[int][]uint64{1: {1}}}
		}},
		// Delays reorder nothing (per-link FIFO) and lose nothing: the
		// run must succeed on the first attempt, schedule active.
		{"delay", func() *chaosPlan {
			return &chaosPlan{seed: 7, delayP: 0.25, delay: 2 * time.Millisecond}
		}},
		// One duplicated frame: a dup'd job spec is fenced by nonce, a
		// dup'd collective result trips the stale-frame check — either
		// way eviction and retry, never wrong bits.
		{"duplicate", func() *chaosPlan {
			return &chaosPlan{seed: 11, dupP: 1, maxFaults: 1}
		}},
		// One corrupted header: the receiver rejects the frame at the
		// magic check and fails the link.
		{"corrupt", func() *chaosPlan {
			return &chaosPlan{seed: 13, corruptP: 1, maxFaults: 1}
		}},
		// A one-way blackout of rank 1's link for frames 1-3, healing
		// afterwards.
		{"partition", func() *chaosPlan {
			return &chaosPlan{seed: 17, partition: map[int][2]uint64{1: {1, 4}}}
		}},
		// Hard kill of rank 1's connection mid-job — the SIGKILL twin.
		// The rejoin loop brings the worker back for the retry.
		{"kill", func() *chaosPlan {
			return &chaosPlan{seed: 23, killAt: map[int]uint64{1: 2}}
		}},
	}
	algos := []string{"bfs", "pagerank", "sssp"}
	for _, mode := range modes {
		algs := algos
		if testing.Short() {
			algs = algos[:1]
		}
		for _, alg := range algs {
			t.Run(mode.name+"/"+alg, func(t *testing.T) {
				c := startChaosCluster(t, 2, chaosNetOpts(mode.plan(), t), true)
				runChaosAlgo(t, c, refs, alg)
				if err := c.Err(); err != nil {
					t.Fatalf("cluster poisoned: %v", err)
				}
			})
		}
	}
}

// TestChaosKillThenRejoin proves the full evict→rejoin cycle: the
// scripted kill costs rank 1 its session, the job retries to the right
// answer, and the rejoin loop restores full strength afterwards.
func TestChaosKillThenRejoin(t *testing.T) {
	refs := makeChaosRefs(t)
	rejoins := metClusterRejoins.Value()
	evictions := metClusterEvictions.Value()
	c := startChaosCluster(t, 2, chaosNetOpts(&chaosPlan{seed: 5, killAt: map[int]uint64{1: 2}}, t), true)
	runChaosAlgo(t, c, refs, "bfs")
	if metClusterEvictions.Value() == evictions {
		t.Error("kill produced no eviction")
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.LiveWorkers() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if live := c.LiveWorkers(); live != 2 {
		t.Fatalf("cluster did not return to full strength: %d/2 workers", live)
	}
	if metClusterRejoins.Value() == rejoins {
		t.Error("recovery produced no rejoin")
	}
	// The healed cluster must run cleanly again (incarnation 1 links
	// replay no scripted faults).
	runChaosAlgo(t, c, refs, "pagerank")
}

// TestClusterShrinksWithoutReplacement: when an evicted rank never comes
// back, the retry proceeds over the surviving ranks after the grace
// window — degraded, not dead.
func TestClusterShrinksWithoutReplacement(t *testing.T) {
	refs := makeChaosRefs(t)
	opts := chaosNetOpts(&chaosPlan{seed: 3, killAt: map[int]uint64{2: 2}}, t)
	opts.RejoinGrace = 200 * time.Millisecond
	c := startChaosCluster(t, 2, opts, false) // no rejoin loop
	runChaosAlgo(t, c, refs, "sssp")
	if live := c.LiveWorkers(); live != 1 {
		t.Errorf("LiveWorkers = %d, want 1 after unreplaced kill", live)
	}
	// And the shrunken cluster keeps serving jobs.
	runChaosAlgo(t, c, refs, "bfs")
}

// TestClusterRetriesExhaust: a fault schedule that kills every attempt
// must surface a failure error after the retry budget, not hang or
// poison.
func TestClusterRetriesExhaust(t *testing.T) {
	refs := makeChaosRefs(t)
	// Unlimited probabilistic drops starve every attempt somewhere.
	opts := chaosNetOpts(&chaosPlan{seed: 29, dropP: 0.5}, t)
	opts.JobRetries = 1
	opts.RejoinGrace = 200 * time.Millisecond
	c := startChaosCluster(t, 2, opts, true)
	cfg := chaosJobCfg()
	cfg.JobTimeout = 1200 * time.Millisecond
	_, err := c.BFS(refs.g, refs.src, cfg)
	if err == nil {
		t.Fatal("job succeeded under a 50% drop rate — fault injection inert?")
	}
	if c.Err() != nil {
		t.Fatalf("wire faults must not poison the cluster: %v", c.Err())
	}
}

func init() {
	// test-desync runs a deliberately divergent op registry on worker
	// ranks: the collective check words cannot match the coordinator's.
	jobRunners["test-desync"] = func(g *graph.Graph, params []uint64, cfg Config) (any, error) {
		return nil, runDesyncJob(g, "beta", cfg)
	}
}

func runDesyncJob(g *graph.Graph, opName string, cfg Config) error {
	ex, err := New(g, 1, cfg)
	if err != nil {
		return err
	}
	op := ex.Register(&Op{
		Name:   opName,
		Addr:   func(lv int, arg uint64) int { return lv },
		Mutate: func(c, arg uint64) (uint64, bool) { return c + arg, true },
	})
	ex.Parallel(func(w *Worker) {
		lo, hi := w.Range()
		for v := lo; v < hi; v++ {
			w.Spawn(op, v, 1)
		}
	})
	ex.Drain()
	ex.Result()
	return nil
}

// TestDesyncStillPoisons pins the one deliberately fatal failure mode:
// ranks running divergent op registries compute different collective
// fingerprints, and retrying divergent code is unsound — the cluster
// must refuse further jobs rather than reduce garbage.
func TestDesyncStillPoisons(t *testing.T) {
	g := graph.Kronecker(6, 8, 3)
	opts := chaosNetOpts(nil, t)
	c := startChaosCluster(t, 2, opts, false)
	cfg := chaosJobCfg()
	err := c.run("test-desync", nil, cfg, g, func(cfg Config) error {
		return runDesyncJob(g, "alpha", cfg) // workers register "beta"
	})
	if err == nil {
		t.Fatal("desynchronized registries went undetected")
	}
	if c.Err() == nil {
		t.Fatal("desync did not poison the cluster")
	}
	if _, err := c.BFS(g, 0, cfg); err == nil {
		t.Fatal("poisoned cluster accepted another job")
	}
}

// TestLivenessEvictsSilentWorker: a worker whose process is wedged —
// connected but never reading, never ponging — must be evicted by the
// liveness deadline alone.
func TestLivenessEvictsSilentWorker(t *testing.T) {
	opts := ClusterOptions{
		Net:  Config{HeartbeatEvery: 20 * time.Millisecond, Liveness: 120 * time.Millisecond},
		Logf: t.Logf,
	}
	c, err := NewClusterOpts("127.0.0.1:0", 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- c.Accept() }()
	conn, err := dialCoordinator(c.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l := newLink(conn)
	if err := l.writeFrame(ftHello, nil); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := readFrame(l.br); err != nil || ft != ftWelcome {
		t.Fatalf("handshake: frame %d, err %v", ft, err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
	if live := c.LiveWorkers(); live != 1 {
		t.Fatalf("LiveWorkers = %d before silence, want 1", live)
	}
	// Now go silent: no pongs, no frames. The heartbeat loop must evict.
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if live := c.LiveWorkers(); live != 0 {
		t.Fatalf("silent worker still live after liveness deadline (%d workers)", live)
	}
}

// TestHeartbeatRTTRecorded: an idle but healthy cluster exchanges
// ping/pong and records round-trip samples.
func TestHeartbeatRTTRecorded(t *testing.T) {
	before := metClusterHeartbeatRTT.Count()
	opts := ClusterOptions{
		Net:  Config{HeartbeatEvery: 15 * time.Millisecond, Liveness: 500 * time.Millisecond},
		Logf: t.Logf,
	}
	c := startChaosCluster(t, 1, opts, false)
	deadline := time.Now().Add(5 * time.Second)
	for metClusterHeartbeatRTT.Count() == before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if metClusterHeartbeatRTT.Count() == before {
		t.Fatal("no heartbeat RTT samples on an idle cluster")
	}
	_ = c
}

// TestHostileControlFrames: control frames — the handshake's hello,
// welcome and bye as well as ping, pong and abort — are length-capped at
// the header, so a hostile peer can neither force a large allocation nor
// wedge the read loop or a vacant rank's handshake.
func TestHostileControlFrames(t *testing.T) {
	for _, ft := range []frameType{ftHello, ftWelcome, ftBye, ftPing, ftPong, ftAbort} {
		// Claimed length beyond the control cap dies at the header —
		// before any payload allocation.
		var h [frameHdrLen]byte
		putFrameHeader(h[:], ft, ctrlFrameLenCap+1)
		if _, _, err := readFrameHeader(bytes.NewReader(h[:])); err == nil {
			t.Errorf("frame %d: oversized control frame passed the header check", ft)
		}
		// At or under the cap the header passes; the read loop's exact
		// size check rejects it (covered by the live-link test below).
		putFrameHeader(h[:], ft, ctrlFrameLenCap)
		if _, _, err := readFrameHeader(bytes.NewReader(h[:])); err != nil {
			t.Errorf("frame %d: in-cap control frame rejected at header: %v", ft, err)
		}
	}

	// A live coordinator must sever a peer that sends a malformed
	// control frame rather than process it.
	opts := ClusterOptions{
		Net:  Config{HeartbeatEvery: 20 * time.Millisecond, Liveness: 200 * time.Millisecond},
		Logf: t.Logf,
	}
	c, err := NewClusterOpts("127.0.0.1:0", 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- c.Accept() }()
	conn, err := dialCoordinator(c.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l := newLink(conn)
	if err := l.writeFrame(ftHello, nil); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := readFrame(l.br); err != nil || ft != ftWelcome {
		t.Fatalf("handshake: frame %d, err %v", ft, err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
	// An abort ack with a 5-byte payload: in-cap, but not the exact 8
	// bytes the protocol demands.
	if err := l.writeFrame(ftAbort, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if live := c.LiveWorkers(); live != 0 {
		t.Fatalf("peer sending malformed control frames still live (%d workers)", live)
	}

	// A vacant rank's handshake refuses a hello announcing the frame cap
	// at its header, instead of allocating 64 MiB and awaiting the payload
	// for up to handshakeTimeout.
	c2, err := NewClusterOpts("127.0.0.1:0", 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	go func() { acceptErr <- c2.Accept() }()
	conn2, err := dialCoordinator(c2.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	var hello [frameHdrLen]byte
	putFrameHeader(hello[:], ftHello, maxFrameLen)
	if _, err := conn2.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Fatal("oversized hello admitted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake still awaiting an oversized hello's payload")
	}
}
