package shard

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// startLoopbackCluster spins up a coordinator plus `workers` in-process
// JoinCluster goroutines over loopback TCP — every frame the distributed
// engine would put on a real NIC crosses a real socket here too.
func startLoopbackCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	c, err := NewCluster("127.0.0.1:0", workers)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() { done <- JoinCluster(c.Addr()) }()
	}
	if err := c.Accept(); err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for i := 0; i < workers; i++ {
			if err := <-done; err != nil {
				t.Errorf("worker %d exited with: %v", i, err)
			}
		}
	})
	return c
}

// netMechs is the cross-transport mechanism slice: the HTM emulation and
// the plain atomic path exercise the two structurally different commit
// paths; the remaining mechanisms share their batch plumbing and are
// covered inproc by the full-matrix tests.
var netMechs = []aam.Mechanism{aam.MechHTM, aam.MechAtomic}

// TestCrossTransportEquivalence runs all six sharded algorithms on both
// transports — inproc and loopback tcp (1 coordinator + 2 workers) — and
// asserts both against the sequential references: BFS depth vectors, SSSP
// distance bits, PageRank rank bits, CC and MST labelings and the MST
// forest weight, and the seed-0 coloring. The tcp path must be
// bit-identical to inproc, not merely valid.
func TestCrossTransportEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"kron":      graph.Kronecker(8, 8, 3),
		"community": graph.Community(400, 10, 4, 0.05, 7),
	}
	if testing.Short() {
		delete(graphs, "community")
	}
	c := startLoopbackCluster(t, 2)
	for name, g := range graphs {
		wg := graph.AttachSymmetricWeights(g, 7)
		src := g.MaxDegreeVertex()
		refDepth := algo.SeqBFS(g, src)
		refPR := algo.SeqPageRank(g, 0.85, 20)
		refCC := algo.SeqComponents(g)
		refDist := algo.SeqSSSP(wg, src)
		refW := algo.SeqMSTWeight(wg)
		refColors, refUsed := algo.GreedyColoring(g)
		mechs := netMechs
		if testing.Short() {
			mechs = netMechs[1:]
		}
		for _, mech := range mechs {
			cfg := Config{Shards: 4, Workers: 2, BatchSize: 32, Mechanism: mech}
			t.Run(fmt.Sprintf("%s/%v", name, mech), func(t *testing.T) {
				// BFS: parents race benignly, depth vectors are the invariant.
				ib, err := BFS(g, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := c.BFS(g, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := algo.ValidateBFSTree(g, src, tb.Parents, refDepth); err != nil {
					t.Errorf("bfs/tcp: %v", err)
				}
				id, td := depths(g, src, ib.Parents), depths(g, src, tb.Parents)
				for v := range id {
					if id[v] != td[v] || id[v] != refDepth[v] {
						t.Fatalf("bfs depth[%d]: inproc %d, tcp %d, ref %d", v, id[v], td[v], refDepth[v])
					}
				}
				if ib.Levels != tb.Levels {
					t.Errorf("bfs levels: inproc %d, tcp %d", ib.Levels, tb.Levels)
				}

				// PageRank: fixed-point arithmetic makes ranks bit-identical.
				ip, err := PageRank(g, 0.85, 20, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tp, err := c.PageRank(g, 0.85, 20, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range refPR {
					if ip.Ranks[v] != tp.Ranks[v] {
						t.Fatalf("pagerank[%d]: inproc %v, tcp %v", v, ip.Ranks[v], tp.Ranks[v])
					}
					if d := ip.Ranks[v] - refPR[v]; d > 1e-6 || d < -1e-6 {
						t.Fatalf("pagerank[%d]: %v vs seq ref %v", v, ip.Ranks[v], refPR[v])
					}
				}

				// Connected components: the min-label fixed point is unique.
				ic, err := Components(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tc, err := c.Components(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range refCC {
					if ic.Labels[v] != refCC[v] || tc.Labels[v] != refCC[v] {
						t.Fatalf("cc[%d]: inproc %d, tcp %d, ref %d", v, ic.Labels[v], tc.Labels[v], refCC[v])
					}
				}

				// SSSP: the shortest-distance fixed point is unique.
				is, err := SSSP(wg, src, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ts, err := c.SSSP(wg, src, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range refDist {
					if is.Dists[v] != refDist[v] || ts.Dists[v] != refDist[v] {
						t.Fatalf("sssp[%d]: inproc %d, tcp %d, ref %d", v, is.Dists[v], ts.Dists[v], refDist[v])
					}
				}

				// MST: distinct weights make forest weight and labeling unique.
				im, err := MST(wg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tm, err := c.MST(wg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if im.Weight != refW || tm.Weight != refW {
					t.Fatalf("mst weight: inproc %d, tcp %d, ref %d", im.Weight, tm.Weight, refW)
				}
				if im.Edges != tm.Edges {
					t.Errorf("mst edges: inproc %d, tcp %d", im.Edges, tm.Edges)
				}
				for v := range refCC {
					if im.Labels[v] != refCC[v] || tm.Labels[v] != refCC[v] {
						t.Fatalf("mst label[%d]: inproc %d, tcp %d, ref %d", v, im.Labels[v], tm.Labels[v], refCC[v])
					}
				}

				// Coloring, seed 0: identity priority reproduces the greedy
				// reference color-for-color.
				ig, err := Coloring(g, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tg, err := c.Coloring(g, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ig.Used != refUsed || tg.Used != refUsed {
					t.Fatalf("coloring used: inproc %d, tcp %d, ref %d", ig.Used, tg.Used, refUsed)
				}
				for v := range refColors {
					if ig.Colors[v] != refColors[v] || tg.Colors[v] != refColors[v] {
						t.Fatalf("coloring[%d]: inproc %d, tcp %d, ref %d", v, ig.Colors[v], tg.Colors[v], refColors[v])
					}
				}
			})
		}
	}
}

// TestWireCountersOnTCP asserts the tcp transport populates the wire
// counters (and that inproc leaves them zero): every remote batch of a
// distributed run crosses a socket, so WireBatchesSent must cover the
// coordinator's share of RemoteBatchesSent, and the byte counter must
// account at least the frame headers.
func TestWireCountersOnTCP(t *testing.T) {
	g := graph.Kronecker(8, 8, 3)
	cfg := Config{Shards: 4, Workers: 1, BatchSize: 32}
	c := startLoopbackCluster(t, 2)

	ir, err := BFS(g, g.MaxDegreeVertex(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tot := ir.Totals(); tot.WireBatchesSent != 0 || tot.WireBytesSent != 0 {
		t.Fatalf("inproc run reported wire traffic: %d batches, %d bytes", tot.WireBatchesSent, tot.WireBytesSent)
	}

	tr, err := c.BFS(g, g.MaxDegreeVertex(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tot := tr.Totals()
	if tot.WireBatchesSent == 0 {
		t.Fatal("tcp run reported zero wire batches")
	}
	if tot.WireBatchesSent > tot.RemoteBatchesSent {
		t.Fatalf("wire batches (%d) exceed remote batches (%d)", tot.WireBatchesSent, tot.RemoteBatchesSent)
	}
	if tot.WireBytesSent < tot.WireBatchesSent*(frameHdrLen+batchHdrLen) {
		t.Fatalf("wire bytes (%d) cannot frame %d batches", tot.WireBytesSent, tot.WireBatchesSent)
	}
}

func init() {
	// test-relay is the distributed twin of TestDrainDeliversLateChainedSpawns:
	// registered here so worker ranks can run it by name.
	jobRunners["test-relay"] = func(g *graph.Graph, params []uint64, cfg Config) (any, error) {
		return nil, runRelayJob(g, params, cfg)
	}
}

// runRelayJob seeds chained cross-shard relay operators (each commit spawns
// the next hop while Drain is already running) and verifies — on every rank,
// via the same collective so all ranks agree — that the barrier shepherded
// every chain to quiescence: the global increment total is exact and no
// transport-pending batches survive Drain.
func runRelayJob(g *graph.Graph, params []uint64, cfg Config) error {
	n, hops, seeds := int(params[0]), params[1], int(params[2])
	ex, err := New(g, 1, cfg)
	if err != nil {
		return err
	}
	var relay int
	relay = ex.Register(&Op{
		Name:   "relay",
		Addr:   func(lv int, arg uint64) int { return lv },
		Mutate: func(c, arg uint64) (uint64, bool) { return c + 1, true },
		OnCommit: func(w *Worker, lv int, arg uint64) {
			if arg == 0 {
				return
			}
			gv := w.S.ex.Part.Global(w.S.ID, lv)
			w.Spawn(relay, (gv+17)%n, arg-1)
		},
	})
	ex.Parallel(func(w *Worker) {
		lo, hi := w.Range()
		for v := lo; v < hi; v++ {
			for s := 0; s < seeds; s++ {
				w.Spawn(relay, (v+31)%n, hops)
			}
		}
	})
	ex.Drain()

	var total uint64
	for _, s := range ex.Shards() {
		if !ex.Owns(s.ID) {
			continue
		}
		for v := s.Lo; v < s.Hi; v++ {
			total += s.Load(ex.Part.Local(v))
		}
	}
	agg := [2]uint64{total, uint64(ex.pendingBatches())}
	ex.AllSum(agg[:])
	ex.Result()
	if want := uint64(n) * uint64(seeds) * (hops + 1); agg[0] != want {
		return fmt.Errorf("relay: %d increments applied, want %d (lost batch?)", agg[0], want)
	}
	if agg[1] != 0 {
		return fmt.Errorf("relay: %d batches still undelivered after Drain", agg[1])
	}
	return nil
}

// TestDrainDeliversLateChainedSpawnsTCP is the distributed counterpart of
// the inproc late-chained-spawns test: the same chains run across a
// loopback cluster, where quiescence additionally depends on the
// sent==received wire accounting of the credit/ack Drain.
func TestDrainDeliversLateChainedSpawnsTCP(t *testing.T) {
	const (
		n     = 64
		hops  = 23
		seeds = 4
	)
	g := pathGraph(n)
	c := startLoopbackCluster(t, 2)
	params := []uint64{n, hops, seeds}
	for _, mech := range netMechs {
		cfg := Config{Shards: 4, Workers: 2, Flush: FlushByEpoch, Mechanism: mech}
		err := c.run("test-relay", params, cfg, g, func(cfg Config) error {
			return runRelayJob(g, params, cfg)
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
	}
}

func init() {
	// test-slow-attach: one rank attaches its executor late while its peers
	// already spawn into its shards.
	jobRunners["test-slow-attach"] = func(g *graph.Graph, want []uint64, cfg Config) (any, error) {
		return runSlowAttachJob(g, want, cfg)
	}
}

// runSlowAttachJob makes rank 1 sleep before New while every rank spawns
// one increment per owned vertex into the shards rank 1 owns (shards 2 and
// 3 of 6 over three ranks), then returns the per-shard totals, summed
// across ranks. With want set (the in-process run's totals) every rank
// checks them, so a batch lost on the way to the late rank fails the job.
func runSlowAttachJob(g *graph.Graph, want []uint64, cfg Config) ([]uint64, error) {
	if cfg.transport != nil {
		if rank, _ := cfg.transport.endpoints(); rank == 1 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	ex, err := New(g, 1, cfg)
	if err != nil {
		return nil, err
	}
	add := ex.Register(&Op{
		Name:   "slow-attach-add",
		Addr:   func(lv int, arg uint64) int { return lv },
		Mutate: func(c, arg uint64) (uint64, bool) { return c + arg, true },
	})
	lo, _ := ex.Part.Range(2)
	_, hi := ex.Part.Range(3)
	ex.Parallel(func(w *Worker) {
		from, to := w.Range()
		for v := from; v < to; v++ {
			w.Spawn(add, lo+v%(hi-lo), uint64(v)+1)
		}
	})
	ex.Drain()
	totals := make([]uint64, len(ex.Shards()))
	for _, s := range ex.Shards() {
		if !ex.Owns(s.ID) {
			continue
		}
		for v := s.Lo; v < s.Hi; v++ {
			totals[s.ID] += s.Load(ex.Part.Local(v))
		}
	}
	ex.AllSum(totals)
	ex.Result()
	if want != nil && !slices.Equal(totals, want) {
		return nil, fmt.Errorf("slow attach: per-shard totals %v, want %v (lost batch?)", totals, want)
	}
	return totals, nil
}

func init() {
	// test-stall: job rank 1 stalls until its attempt is aborted, so only
	// the coordinator's JobTimeout watchdog can end the attempt.
	jobRunners["test-stall"] = func(g *graph.Graph, _ []uint64, cfg Config) (any, error) {
		return nil, runStallJob(g, cfg)
	}
}

func runStallJob(g *graph.Graph, cfg Config) error {
	if tcp, ok := cfg.transport.(*tcpTransport); ok {
		if rank, _ := tcp.endpoints(); rank == 1 {
			<-tcp.node.abortChan()
		}
	}
	ex, err := New(g, 1, cfg)
	if err != nil {
		return err
	}
	ex.Parallel(func(*Worker) {})
	return nil
}

// TestJobTimeoutAbortsStalledJob: rank 1 never reaches the opening
// collective, so the coordinator's watchdog fires at JobTimeout. The run
// fails with errAborted naming the timeout, every rank unwinds and
// acknowledges without an eviction, and the same cluster runs its next
// job. The stall waits on the abort itself, not on a sleep, so the
// watchdog fires on every run.
func TestJobTimeoutAbortsStalledJob(t *testing.T) {
	g := pathGraph(32)
	c := startChaosCluster(t, 2, ClusterOptions{JobRetries: -1, Logf: t.Logf}, false)
	cfg := Config{Shards: 3, JobTimeout: 100 * time.Millisecond}
	err := c.run("test-stall", nil, cfg, g, func(cfg Config) error { return runStallJob(g, cfg) })
	if !errors.Is(err, errAborted) || !strings.Contains(err.Error(), "exceeded JobTimeout") {
		t.Fatalf("stalled job returned %v, want errAborted past JobTimeout", err)
	}
	if live := c.LiveWorkers(); live != 2 {
		t.Fatalf("%d live workers after the abort, want 2 (an abort evicts no one)", live)
	}
	res, err := c.BFS(g, 0, Config{Shards: 3})
	if err != nil {
		t.Fatalf("next job: %v", err)
	}
	if err := algo.ValidateBFSTree(g, 0, res.Parents, algo.SeqBFS(g, 0)); err != nil {
		t.Fatalf("next job: %v", err)
	}
}

// TestSlowAttachLosesNoBatch: rank 1 attaches its executor about 50 ms
// after ranks 0 and 2 have started spawning into its shards — rank 0's
// batches on its own link, rank 2's through the coordinator's relay. Every
// one must reach rank 1's executor: the per-shard totals equal the
// in-process run's on every rank, well inside a short JobTimeout with
// retries off.
func TestSlowAttachLosesNoBatch(t *testing.T) {
	g := pathGraph(96)
	cfg := Config{Shards: 6, Workers: 2, BatchSize: 4, JobTimeout: 3 * time.Second}
	want, err := runSlowAttachJob(g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := startChaosCluster(t, 2, ClusterOptions{JobRetries: -1, Logf: t.Logf}, false)
	for i := 0; i < 3; i++ {
		start := time.Now()
		err := c.run("test-slow-attach", want, cfg, g, func(cfg Config) error {
			_, err := runSlowAttachJob(g, want, cfg)
			return err
		})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if took := time.Since(start); took > cfg.JobTimeout/2 {
			t.Fatalf("job %d took %v of a %v JobTimeout", i, took, cfg.JobTimeout)
		}
	}
}
