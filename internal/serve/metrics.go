package serve

import (
	"fmt"
	"net/http"
	"time"

	"aamgo/internal/obs"
	"aamgo/internal/query"
)

// endpointMetrics are the per-endpoint instruments, prebuilt at server
// construction so the request path only touches held pointers.
type endpointMetrics struct {
	lat *obs.Histogram
	// status counts by class, indexed status/100 (only 2..5 registered).
	status [6]*obs.Counter
	// query marks analytics endpoints: their spans feed the slowlog and
	// their percentiles surface in /stats.
	query bool
}

// initMetrics builds the server's registry: per-endpoint instruments plus
// scrape-time bridges over the counters the server already maintains.
// The graph's own dyn series are registered by the caller (New).
func (s *Server) initMetrics(routes []route) {
	s.ep = make(map[string]*endpointMetrics, len(routes))
	for _, rt := range routes {
		em := &endpointMetrics{
			lat:   s.reg.Histogram(fmt.Sprintf("aam_serve_request_latency_ns{endpoint=%q}", rt.name)),
			query: rt.query,
		}
		for c := 2; c <= 5; c++ {
			em.status[c] = s.reg.Counter(fmt.Sprintf("aam_serve_requests_by_status_total{endpoint=%q,class=\"%dxx\"}", rt.name, c))
		}
		s.ep[rt.name] = em
	}

	// Per-engine query latency: one histogram per execution engine, fed by
	// whichever endpoint resolved a query to that engine. The engine labels
	// cut across the endpoint labels above — "is gblas slower than shard on
	// this workload" is one scrape, not a per-endpoint join.
	s.engLat = make(map[string]*obs.Histogram, len(query.Engines))
	for _, eng := range query.Engines {
		s.engLat[eng] = s.reg.Histogram(fmt.Sprintf("aam_serve_query_latency_ns{engine=%q}", eng))
	}

	s.poolSaturated = s.reg.Counter("aam_serve_pool_saturation_total")
	s.reg.GaugeFunc("aam_serve_pool_inflight", func() float64 { return float64(len(s.sem)) })
	s.reg.GaugeFunc("aam_serve_pool_capacity", func() float64 { return float64(cap(s.sem)) })
	s.reg.GaugeFunc("aam_serve_uptime_seconds", func() float64 { return time.Since(s.t0).Seconds() })

	s.reg.CounterFunc("aam_serve_requests_total", s.requests.Load)
	s.reg.CounterFunc("aam_serve_queries_total", s.queries.Load)
	s.reg.CounterFunc("aam_serve_mutations_total", s.mutations.Load)
	s.reg.CounterFunc("aam_serve_bad_requests_total", s.rejected.Load)
	// Admission-control sheds (429 past MaxQueueWait) and cluster queries
	// answered in-process after a distributed failure: the two signals an
	// operator watches when the service is degraded but not down.
	s.reg.CounterFunc("aam_serve_rejected_total", s.throttled.Load)
	s.reg.CounterFunc("aam_serve_cluster_fallbacks_total", s.fallbacks.Load)
	s.reg.CounterFunc("aam_serve_etag_304_total", s.notModified.Load)

	if s.cache != nil {
		s.reg.CounterFunc("aam_serve_cache_hits_total", func() uint64 { return s.cache.stats().Hits })
		s.reg.CounterFunc("aam_serve_cache_misses_total", func() uint64 { return s.cache.stats().Misses })
		s.reg.CounterFunc("aam_serve_cache_collapsed_total", func() uint64 { return s.cache.stats().Collapsed })
		s.reg.CounterFunc("aam_serve_cache_evictions_total", func() uint64 { return s.cache.stats().Evictions })
		s.reg.GaugeFunc("aam_serve_cache_bytes", func() float64 { return float64(s.cache.stats().Bytes) })
		s.reg.GaugeFunc("aam_serve_cache_entries", func() float64 { return float64(s.cache.stats().Entries) })
	}
}

// statusWriter captures the response status for the instrumented wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrumented is the outermost middleware on every route: it tallies the
// request, opens the trace span, captures the status, and on completion
// records the per-endpoint latency histogram, the status-class counter,
// the slowlog (query endpoints), and the debug request log.
func (s *Server) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.ep[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		sp := &span{
			Endpoint: endpoint,
			Path:     r.URL.Path,
			Query:    r.URL.RawQuery,
			Start:    time.Now(),
			Epoch:    s.g.Epoch(),
			Outcome:  "computed",
		}
		r = withSpan(r, sp)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		sp.Status = sw.status
		sp.WallNS = time.Since(sp.Start).Nanoseconds()
		em.lat.Record(uint64(sp.WallNS))
		if h := s.engLat[sp.Engine]; h != nil {
			h.Record(uint64(sp.WallNS))
		}
		if c := sw.status / 100; c >= 2 && c <= 5 {
			em.status[c].Inc()
		}
		if em.query {
			s.slow.record(sp)
		}
		s.log.Debug("request",
			"endpoint", endpoint,
			"method", r.Method,
			"status", sw.status,
			"latency_ns", sp.WallNS,
			"epoch", sp.Epoch,
			"outcome", sp.Outcome,
		)
	}
}

// handleMetrics serves the Prometheus exposition. Like pprof it bypasses
// the worker pool — the scrape must answer exactly when the pool is
// saturated — and is uncacheable: every scrape is a fresh read.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	// The per-server registry shadows Default on name clashes, so the
	// process-wide shard series render exactly once.
	obs.WritePrometheus(w, s.reg, obs.Default)
}

// handleSlowlog serves the retained top-K slowest query spans, slowest
// first. Pool-bypassing for the same reason as /metrics.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	s.writeJSON(w, http.StatusOK, map[string]any{
		"k":       s.slow.k,
		"slowest": s.slow.snapshot(),
	})
}

// LogFinalStats writes the lifetime counter snapshot through the
// server's structured logger; the daemon calls it on graceful shutdown so
// the last log line of a run summarizes what it served.
func (s *Server) LogFinalStats() {
	gs := s.g.Stats()
	s.log.Info("final stats",
		"uptime", time.Since(s.t0).Round(time.Millisecond).String(),
		"requests", s.requests.Load(),
		"queries", s.queries.Load(),
		"mutation_batches", s.mutations.Load(),
		"bad_requests", s.rejected.Load(),
		"etag_304", s.notModified.Load(),
		"pool_saturation", s.poolSaturated.Value(),
		"epoch", gs.Epoch,
		"tx_committed", gs.Tx.TxCommitted,
		"tx_aborts", gs.Tx.TotalAborts(),
	)
}

// latencySummary is the per-endpoint percentile block /stats reports.
type latencySummary struct {
	Count  uint64  `json:"count"`
	P50NS  uint64  `json:"p50_ns"`
	P99NS  uint64  `json:"p99_ns"`
	P999NS uint64  `json:"p999_ns"`
	MaxNS  uint64  `json:"max_ns"`
	MeanNS float64 `json:"mean_ns"`
}

// latencySummaries snapshots every endpoint histogram with traffic.
func (s *Server) latencySummaries() map[string]latencySummary {
	out := make(map[string]latencySummary, len(s.ep))
	for name, em := range s.ep {
		snap := em.lat.Snapshot()
		if snap.Count == 0 {
			continue
		}
		out[name] = latencySummary{
			Count:  snap.Count,
			P50NS:  snap.Quantile(0.5),
			P99NS:  snap.Quantile(0.99),
			P999NS: snap.Quantile(0.999),
			MaxNS:  snap.Max,
			MeanNS: snap.Mean(),
		}
	}
	return out
}
