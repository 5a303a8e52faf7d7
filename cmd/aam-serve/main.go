// Command aam-serve is the dynamic-graph query/update daemon: it loads (or
// generates) a graph, wraps it in the transactional dynamic-graph subsystem
// and serves JSON traffic — edge mutations executed as AAM batches under a
// chosen isolation mechanism, analytics queries over immutable snapshots.
//
// Usage:
//
//	aam-serve [-addr :8080] [-graph file] [-gen kron -scale 12 -ef 8]
//	          [-mech htm|atomic|lock|occ|flatcomb] [-runtime sim|native]
//	          [-machine has-c] [-threads 4] [-workers 8] [-pprof]
//	          [-cache-bytes 33554432 (0 turns the cache off)]
//	          [-log-level info] [-slowlog 32]
//	          [-data-dir dir] [-durability fsync|batch|off]
//	          [-checkpoint-every 4096]
//
// Examples:
//
//	aam-serve -gen kron -scale 10                # serve a Kronecker graph
//	aam-serve -gen kron -scale 10 -data-dir /var/lib/aam  # durable writes
//	curl -X POST localhost:8080/edges -d '{"edges":[[0,1],[1,2]]}'
//	curl 'localhost:8080/query/bfs?src=0'
//	curl 'localhost:8080/query/bfs?src=0&shards=4'   # sharded executor
//	curl 'localhost:8080/query/bfs?src=0&engine=gblas'  # masked-SpMV engine
//	curl 'localhost:8080/query/bfs?src=0&engine=cluster&shards=4'  # distributed
//	curl 'localhost:8080/query/bfs?src=0&trace=1'    # embed the trace span
//	curl 'localhost:8080/query/cc'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'                    # Prometheus exposition
//	curl 'localhost:8080/debug/slowlog'              # top-K slowest queries
//
// With -cluster-listen the daemon also runs a shard coordinator: once
// -cluster-workers aam-worker processes have joined, ?engine=cluster
// queries execute across the cluster, and if the cluster degrades (a
// worker dies mid-query and retries are exhausted) the query falls back
// to the in-process sharded engine — the response's "cluster" block says
// which happened. -max-wait bounds queueing for a pool slot: past the
// budget the server answers 429 with a Retry-After hint.
//
// With -data-dir, every mutation batch is written to a write-ahead log in
// that directory before it is acknowledged (-durability picks the fsync
// policy), periodic checkpoints bound the log, and a restart recovers the
// graph — snapshot plus WAL tail — before the listener accepts traffic.
//
// Logs are structured (log/slog, text format on stderr); -log-level debug
// adds a per-request line with endpoint, status, latency and epoch fields.
// SIGINT/SIGTERM drain in-flight requests (the worker pool is emptied and
// the WAL synced before anything is torn down), take a final checkpoint,
// log a final stats snapshot and stop the daemon gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/run"
	"aamgo/internal/serve"
	"aamgo/internal/shard"
	"aamgo/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		in       = flag.String("graph", "", "input graph file (binary/METIS/edge list, auto-detected); empty generates")
		gen      = flag.String("gen", "kron", "generator when -graph is empty: kron, er, road, ba, community, web")
		scale    = flag.Int("scale", 10, "generator scale (2^scale vertices)")
		ef       = flag.Int("ef", 8, "generator edge factor")
		seed     = flag.Int64("seed", 1, "generator and machine seed")
		mech     = flag.String("mech", "htm", "isolation mechanism: htm, atomic, lock, occ, flatcomb")
		rt       = flag.String("runtime", "sim", "machine runtime: sim or native")
		machine  = flag.String("machine", "has-c", "machine profile: has-c, has-p, bgq")
		threads  = flag.Int("threads", 4, "threads per machine run")
		workers  = flag.Int("workers", 8, "max concurrent requests doing graph work")
		coarsen  = flag.Int("m", 16, "coarsening factor M (operators per transaction)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		cacheBy  = flag.Int64("cache-bytes", 32<<20, "epoch-keyed query cache size bound in bytes (0 turns the cache off)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, error (debug logs every request)")
		slowlogK = flag.Int("slowlog", 32, "slow-query log capacity (top-K slowest, served at /debug/slowlog)")
		dataDir  = flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty serves in-memory only")
		durab    = flag.String("durability", "batch", "WAL durability with -data-dir: fsync, batch or off")
		ckptEvry = flag.Uint64("checkpoint-every", 4096, "checkpoint once this many epochs accumulate past the last one (0 disables automatic checkpoints)")
		maxWait  = flag.Duration("max-wait", 0, "bound on time a request may wait for a pool slot; past it the server sheds it with 429 (0 = wait indefinitely)")
		clListen = flag.String("cluster-listen", "", "run a shard coordinator on this address and route ?engine=cluster queries over it once -cluster-workers have joined")
		clNum    = flag.Int("cluster-workers", 2, "worker processes to wait for on -cluster-listen")
	)
	flag.Parse()
	if err := checkGenFlags(*gen, *scale, *ef); err != nil {
		fmt.Fprintln(os.Stderr, "aam-serve:", err)
		os.Exit(2) // a usage error, as the flag package exits on one
	}
	if *cacheBy < 0 {
		fmt.Fprintf(os.Stderr, "aam-serve: -cache-bytes %d is negative (0 turns the cache off)\n", *cacheBy)
		os.Exit(2)
	}
	if err := run.Check(*rt); err != nil {
		fmt.Fprintf(os.Stderr, "aam-serve: -runtime: %v\n", err)
		os.Exit(2)
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "aam-serve: unknown -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// With -data-dir the graph comes out of recovery (snapshot + WAL tail
	// replay); the loader only runs when the directory holds no snapshot,
	// i.e. on the very first boot. Recovery happens before the listener
	// opens: no request ever sees a partially recovered graph.
	var g *dyn.Graph
	var walLog *wal.Log
	if *dataDir != "" {
		mode, err := wal.ParseMode(*durab)
		if err != nil {
			fatal("bad -durability", "err", err)
		}
		g, walLog, err = wal.Open(wal.Options{
			Dir:             *dataDir,
			Mode:            mode,
			CheckpointEvery: *ckptEvry,
		}, func() (*dyn.Graph, error) {
			return load(*in, *gen, *scale, *ef, *seed)
		})
		if err != nil {
			fatal("recovering durable state", "dir", *dataDir, "err", err)
		}
		rs := walLog.Recovery()
		logger.Info("recovered",
			"dir", *dataDir,
			"durability", mode.String(),
			"epoch", rs.RecoveredEpoch,
			"snapshot_epoch", rs.SnapshotEpoch,
			"replayed_batches", rs.ReplayedBatches,
			"truncated_records", rs.TruncatedRecords,
			"duration", time.Duration(rs.DurationNS).Round(time.Millisecond).String(),
		)
	} else {
		var err error
		if g, err = load(*in, *gen, *scale, *ef, *seed); err != nil {
			fatal("loading graph", "err", err)
		}
	}
	mechanism, err := aam.MechanismByName(*mech)
	if err != nil {
		fatal("bad -mech", "err", err)
	}
	cacheBytes := *cacheBy
	if cacheBytes == 0 {
		cacheBytes = -1 // serve.Config's "no cache"
	}
	srv, err := serve.New(g, serve.Config{
		Tx: dyn.TxConfig{
			Mechanism: mechanism, Runtime: *rt, Machine: *machine,
			Threads: *threads, M: *coarsen, Seed: *seed,
		},
		MaxConcurrent: *workers,
		MaxQueueWait:  *maxWait,
		CacheBytes:    cacheBytes,
		EnablePprof:   *pprofOn,
		SlowlogK:      *slowlogK,
		Logger:        logger,
		WAL:           walLog,
	})
	if err != nil {
		fatal("starting server", "err", err)
	}

	// With -cluster-listen the daemon doubles as a shard coordinator.
	// Workers join in the background (aam-worker -join <addr> -rejoin);
	// the cluster is attached to the query path only once the full rank
	// set has handshaked, so the HTTP listener never waits on it.
	var cluster *shard.Cluster
	if *clListen != "" {
		cluster, err = shard.NewClusterOpts(*clListen, *clNum, shard.ClusterOptions{
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			fatal("cluster listen", "addr", *clListen, "err", err)
		}
		logger.Info("cluster coordinator listening", "addr", cluster.Addr(), "workers", *clNum)
		go func() {
			if err := cluster.Accept(); err != nil {
				logger.Error("cluster accept", "err", err)
				return
			}
			srv.SetCluster(cluster)
			logger.Info("cluster attached", "workers", *clNum)
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving",
		"addr", *addr,
		"vertices", g.N(),
		"arcs", g.NumArcs(),
		"runtime", *rt,
		"machine", *machine,
		"mech", mechanism.String(),
	)

	select {
	case err := <-errc:
		fatal("listen", "err", err)
	case <-ctx.Done():
	}
	logger.Info("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("server error", "err", err)
	}
	// Quiesce the worker pool before anything is torn down or logged: every
	// in-flight mutation either finished (durably, when a WAL is attached)
	// or was rejected whole, so the final stats describe a settled graph.
	if err := srv.Drain(); err != nil {
		logger.Warn("drain", "err", err)
	}
	if cluster != nil {
		cluster.Close() // workers see a clean bye, not an EOF
	}
	if walLog != nil {
		if err := walLog.Checkpoint(); err != nil {
			logger.Warn("final checkpoint", "err", err)
		}
		if err := walLog.Close(); err != nil {
			logger.Warn("wal close", "err", err)
		}
	}
	srv.LogFinalStats()
	logger.Info("stopped")
}

// checkGenFlags rejects a -scale or -ef the -gen generator does not take: the
// library words its own check of them as a panic, and load shifts by scale
// before that. The bounds are graph.CheckGenParams', whose -deg is -ef here,
// so an error the edge factor alone causes names -ef before the library's words.
func checkGenFlags(gen string, scale, ef int) error {
	err := graph.CheckGenParams(gen, graph.GenParams{Scale: scale, Deg: ef})
	if err != nil && graph.CheckGenParams(gen, graph.GenParams{Scale: scale}) == nil {
		return fmt.Errorf("-ef %d is the generator's %w", ef, err)
	}
	return err
}

// load reads or generates the initial graph and wraps it as a dyn.Graph.
func load(path, gen string, scale, ef int, seed int64) (*dyn.Graph, error) {
	var base *graph.Graph
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		base, err = graph.ReadAuto(f)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
	default:
		n := 1 << scale
		switch gen {
		case "kron":
			base = graph.Kronecker(scale, ef, seed)
		case "er":
			base = graph.ErdosRenyi(n, float64(ef)/float64(n), seed)
		case "road":
			side := 1 << (scale / 2)
			base = graph.RoadGrid(side, side, 0.05, seed)
		case "ba":
			base = graph.BarabasiAlbert(n, ef, seed)
		case "community":
			base = graph.Community(n, 32, ef, 0.05, seed)
		case "web":
			base = graph.WebGraph(scale, ef, seed)
		default:
			return nil, fmt.Errorf("unknown generator %q", gen)
		}
	}
	return dyn.New(base)
}
