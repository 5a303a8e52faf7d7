package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/serve"
	"aamgo/internal/shard"
	"aamgo/internal/wal"
)

// system is one set-up instance of the program under test: the durable
// dynamic graph, the daemon behind a real loopback listener and, on the
// cluster workload, a coordinator with two worker ranks.
type system struct {
	base *graph.Graph // the generated input
	g    *dyn.Graph
	log  *wal.Log
	srv  *serve.Server
	url  string

	hs      *http.Server
	served  chan error
	cluster *shard.Cluster
	joined  chan error

	// stepMS are the durations of the set-up steps the traced run reports.
	stepMS map[string]float64
}

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

func walOptions(dir string) wal.Options {
	return wal.Options{Dir: dir, Mode: wal.ModeFsync, CheckpointEvery: checkpointEvery}
}

// setUp builds the workload's system in dir. wrap, when non-nil, is put
// around the daemon's handler (the traced run records a span there).
// Everything in here is what setup_s times.
func setUp(w *workload, seed int64, tiny bool, dir string, wrap func(http.Handler) http.Handler) (*system, error) {
	s := &system{stepMS: map[string]float64{}}
	step := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		s.stepMS[name] = ms(time.Since(t0))
		return err
	}
	_ = step("graph.gen_ms", func() error { s.base = w.gen(seed, tiny); return nil })
	var err error
	s.g, s.log, err = wal.Open(walOptions(dir), func() (*dyn.Graph, error) {
		var g *dyn.Graph
		err := step("dyn.new_ms", func() (err error) { g, err = dyn.New(s.base); return })
		return g, err
	})
	if err != nil {
		return nil, fmt.Errorf("wal.Open: %w", err)
	}
	s.srv, err = serve.New(s.g, serve.Config{MaxConcurrent: maxConcurrent, WAL: s.log, Logger: discard})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	h := s.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.g.Freeze()
	if w.engine == "cluster" {
		if err := s.startCluster(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *system) startCluster() error {
	c, err := shard.NewClusterOpts("127.0.0.1:0", clusterWorkers, shard.ClusterOptions{
		// Probe quiet links every second so a run collects heartbeat RTTs.
		Net: shard.Config{HeartbeatEvery: time.Second},
	})
	if err != nil {
		return fmt.Errorf("cluster listen: %w", err)
	}
	s.cluster = c
	s.joined = make(chan error, clusterWorkers)
	for i := 0; i < clusterWorkers; i++ {
		go func() { s.joined <- shard.JoinCluster(c.Addr()) }()
	}
	if err := c.Accept(); err != nil {
		return fmt.Errorf("cluster accept: %w", err)
	}
	s.srv.SetCluster(c)
	return nil
}

// shutDown stops the daemon, the cluster and the log and waits for every
// goroutine setUp started. The data directory is left as it is.
func (s *system) shutDown() error {
	var errs []error
	if err := s.hs.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if err := s.srv.Drain(); err != nil {
		errs = append(errs, fmt.Errorf("drain: %w", err))
	}
	if s.cluster != nil {
		s.cluster.Close()
		for i := 0; i < clusterWorkers; i++ {
			if err := <-s.joined; err != nil {
				errs = append(errs, fmt.Errorf("worker: %w", err))
			}
		}
	}
	if err := s.log.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wal close: %w", err))
	}
	return errors.Join(errs...)
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	rd   bytes.Reader
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer. The returned body is
// valid until the next call; lat runs from just before the request is
// written to just after the last body byte is read.
func (c *client) do(method, path string, body []byte, hdr ...string) (status int, h http.Header, resp []byte, lat time.Duration, err error) {
	var rdr io.Reader
	if body != nil {
		c.rd.Reset(body)
		rdr = &c.rd
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	c.buf.Reset()
	t0 := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, time.Since(t0), err
	}
	_, err = c.buf.ReadFrom(res.Body)
	lat = time.Since(t0)
	res.Body.Close()
	return res.StatusCode, res.Header, c.buf.Bytes(), lat, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// scratchDir makes a fresh directory under root.
func scratchDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}
