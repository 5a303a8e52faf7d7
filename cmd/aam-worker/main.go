// Command aam-worker runs one rank of the distributed shard engine.
//
// Worker mode joins a coordinator and serves jobs until it says bye:
//
//	aam-worker -join 127.0.0.1:7100
//
// Coordinator mode listens for -workers peers, runs the selected sharded
// algorithms across the cluster, and (with -check) re-runs each one
// in-process, holds both answers to the sequential reference and compares
// them bit for bit in what the registry says every run agrees on:
//
//	aam-worker -listen 127.0.0.1:7100 -workers 2 -algos bfs,pagerank -check
//
// The exit status reports the check outcome, and -metrics serves the obs
// registry (including the aam_shard_wire_* and aam_net_* series) over
// HTTP while the run is in flight.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/graph"
	"aamgo/internal/obs"
	"aamgo/internal/query"
	"aamgo/internal/shard"
)

func main() {
	var (
		join    = flag.String("join", "", "worker mode: coordinator address to join")
		listen  = flag.String("listen", "", "coordinator mode: address to listen on")
		workers = flag.Int("workers", 2, "coordinator: worker processes to wait for")
		algos   = flag.String("algos", "bfs,pagerank", "coordinator: comma-separated algorithms ("+strings.Join(shard.JobNames(), ",")+")")
		check   = flag.Bool("check", false, "coordinator: re-run in-process, verify both answers and compare them bit for bit")
		metrics = flag.String("metrics", "", "serve /metrics and /healthz on this address")
		metOut  = flag.String("metrics-out", "", "coordinator: write the final /metrics exposition to this file")

		scale = flag.Int("scale", 10, "kron graph: log2 vertex count")
		deg   = flag.Int("deg", 8, "kron graph: average degree")
		seed  = flag.Int64("seed", 3, "graph generator seed")

		shards = flag.Int("shards", 8, "shard count")
		sw     = flag.Int("shard-workers", 1, "workers per shard")
		batch  = flag.Int("batch", 64, "coalescing batch size")
		mech   = flag.String("mech", "htm", "htm|atomic|lock|occ|flatcomb")

		src  = flag.Int("src", -1, "bfs/sssp source (-1 = max degree)")
		iter = flag.Int("iters", 20, "pagerank iterations")
		damp = flag.Float64("damping", 0.85, "pagerank damping")

		rejoin      = flag.Bool("rejoin", false, "worker: rejoin after session failures (evictions, coordinator aborts) until the coordinator says bye")
		retries     = flag.Int("retries", 0, "coordinator: job retries over surviving ranks (0 = default of 2, negative = none)")
		repeat      = flag.Int("repeat", 1, "coordinator: run the algorithm list this many times")
		heartbeat   = flag.Duration("heartbeat", 0, "coordinator: probe interval on quiet worker links (0 = default 5s)")
		liveness    = flag.Duration("liveness", 0, "coordinator: evict a rank after this much link silence (0 = default 15s)")
		collTO      = flag.Duration("coll-timeout", 0, "per-collective wait bound before declaring a peer dead (0 = default 2m)")
		jobTO       = flag.Duration("job-timeout", 0, "per-job watchdog bound (0 = default 10m)")
		rejoinGrace = flag.Duration("rejoin-grace", 0, "coordinator: wait this long for evicted ranks to be replaced before a retry shrinks the rank set (0 = default 2s)")
	)
	flag.Parse()
	if err := graph.CheckGenParams("kron", graph.GenParams{Scale: *scale, Deg: *deg}); err != nil {
		fmt.Fprintln(os.Stderr, "aam-worker:", err)
		os.Exit(2) // a usage error, as the flag package exits on one
	}

	if (*join == "") == (*listen == "") {
		fail(errors.New("need exactly one of -join (worker) or -listen (coordinator)"))
	}
	if *metrics != "" {
		serveMetrics(*metrics)
	}

	if *join != "" {
		// Worker: JoinCluster retries the dial with bounded jittered
		// backoff, so a coordinator still binding its listener is fine.
		// With -rejoin, session failures (an eviction after a stall, a
		// chaos kill, a coordinator-side abort gone wrong) re-handshake
		// into the vacated rank instead of exiting; the loop ends on a
		// clean bye (nil) or when the coordinator is gone for good (the
		// dial's ~1 minute retry window exhausts).
		for {
			err := shard.JoinCluster(*join)
			if err == nil {
				return
			}
			if !*rejoin {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "aam-worker: session ended (%v), rejoining\n", err)
		}
	}

	mechanism, err := aam.MechanismByName(*mech)
	if err != nil {
		fail(err)
	}
	// Reject a misspelt algorithm before any worker is waited for, not
	// mid-round: the valid names are the wire job table.
	var names []string
	for _, name := range strings.Split(*algos, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(shard.JobNames(), name) {
			fail(fmt.Errorf("unknown algorithm %q (valid: %s)", name, strings.Join(shard.JobNames(), ", ")))
		}
		names = append(names, name)
	}
	cfg := shard.Config{
		Shards: *shards, Workers: *sw, BatchSize: *batch, Mechanism: mechanism,
		CollTimeout: *collTO, JobTimeout: *jobTO,
	}

	g := graph.Kronecker(*scale, *deg, *seed)
	wg := graph.AttachSymmetricWeights(g, uint64(*seed))
	source := *src
	if source < 0 {
		source = g.MaxDegreeVertex()
	}
	fmt.Printf("graph: kron scale %d, %d vertices, %d directed edges\n", *scale, g.N, g.NumEdges())

	opts := shard.ClusterOptions{
		Net:         shard.Config{HeartbeatEvery: *heartbeat, Liveness: *liveness},
		JobRetries:  *retries,
		RejoinGrace: *rejoinGrace,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	c, err := shard.NewClusterOpts(*listen, *workers, opts)
	if err != nil {
		fail(err)
	}
	// Close explicitly (not deferred): os.Exit below would skip the
	// defer and the workers would see EOF instead of a clean bye.
	fmt.Printf("coordinator: listening on %s for %d workers\n", c.Addr(), *workers)
	if err := c.Accept(); err != nil {
		fail(err)
	}
	fmt.Printf("coordinator: %d workers joined, cluster is %d ranks\n", *workers, *workers+1)

	// The CLI's one parameter set, in the registry's terms: SSSP takes the
	// auto-selected delta and coloring the identity priority order.
	args := query.Args{Src: source, Iters: *iter, Damping: *damp}
	env := query.Env{Shard: cfg, Cluster: c}
	failed := false
	for round := 0; round < *repeat; round++ {
		if *repeat > 1 {
			fmt.Printf("--- round %d/%d (workers live: %d)\n", round+1, *repeat, c.LiveWorkers())
		}
		for _, name := range names {
			d := query.Lookup(name)
			in := g
			if d.Weighted {
				in = wg
			}
			t0 := time.Now()
			dres, err := d.Run(query.EngineCluster, in, args, env)
			if err == nil && *check {
				err = checkInProcess(d, in, args, env, dres)
			}
			elapsed := time.Since(t0)
			if err != nil {
				failed = true
				fmt.Printf("%-9s FAIL  %v\n", name, err)
				continue
			}
			status := "ok"
			if *check {
				status = "ok (matches in-process)"
			}
			stats := dres.Shard.Totals()
			fmt.Printf("%-9s %-22s %8v  wire: %d batches, %d bytes\n",
				name, status, elapsed.Round(time.Millisecond), stats.WireBatchesSent, stats.WireBytesSent)
		}
	}
	c.Close()
	if *metOut != "" {
		f, err := os.Create(*metOut)
		if err != nil {
			fail(err)
		}
		if err := obs.WritePrometheus(f, obs.Default); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("metrics: exposition written to %s\n", *metOut)
	}
	if failed {
		os.Exit(1)
	}
}

func serveMetrics(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WritePrometheus(w, obs.Default)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("metrics: serving on http://%s/metrics\n", ln.Addr())
	go http.Serve(ln, mux)
}

// checkInProcess re-runs d on the in-process shard engine and holds both
// answers to the sequential reference, and to each other in what the
// descriptor says every run agrees on bit for bit.
func checkInProcess(d *query.Descriptor, g *graph.Graph, a query.Args, env query.Env, dist query.Result) error {
	inproc, err := d.Run(query.EngineShard, g, a, env)
	if err != nil {
		return err
	}
	want, err := d.Verify(g, a, inproc)
	if err != nil {
		return fmt.Errorf("in-process: %w", err)
	}
	got, err := d.Verify(g, a, dist)
	if err != nil {
		return fmt.Errorf("distributed: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("the distributed answer differs from the in-process one")
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aam-worker:", err)
	os.Exit(1)
}
