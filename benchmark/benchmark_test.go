package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The tests run the way the benchmark does: on two Ps.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(procs)
	os.Exit(m.Run())
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestSpecMatchesJSON: BENCHMARK.json and the code's workload and metric
// tables agree exactly, and both stay inside the contract's limits.
func TestSpecMatchesJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code's table:\n json %v\n code %v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's table:\n json %v\n code %v", c.PerLayer, perLayer)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: JSON has %q, code has %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if sum := w.kernels + w.miss + w.hit + w.mixed; math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s: phase shares sum to %v", w.name, sum)
		}
	}
	if !reflect.DeepEqual(c.Paths, []string{"benchmark"}) || len(c.Command) == 0 || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("paths %v, command %v, run_seconds %d", c.Paths, c.Command, c.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
	hasSetup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("bad or repeated metric name %q", s.Name)
		}
		seen[s.Name] = true
		if !unit.MatchString(s.Unit) {
			t.Errorf("metric %s: bad unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better is %q", s.Name, s.Better)
		}
		hasSetup = hasSetup || s == metricSpec{"setup_s", "s", "lower", s.Bound}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("setup_s present: %v; %d end-to-end, %d per-layer metrics, %d workloads", hasSetup, len(endToEnd), len(perLayer), len(workloads))
	}
}

// TestUndersampled: a gated kernel needs its rounds of minRound, a gated
// latency its minSamples; set-up time and memory have no floor.
func TestUndersampled(t *testing.T) {
	specs := []metricSpec{{Name: "setup_s"}, {Name: "peak_rss_mb"}, {Name: "bfs_shard_mteps"}, {Name: "bfs_gblas_mteps"}, {Name: "read_miss_p50_ms"}, {Name: "read_hit_p50_us"}}
	counts := map[string]int{"setup_s": 3, "bfs_shard_mteps": rounds, "bfs_gblas_mteps": rounds, "read_miss_p50_ms": minSamples, "read_hit_p50_us": minSamples - 1}
	shortest := map[string]float64{"bfs_shard_mteps": minRound.Seconds(), "bfs_gblas_mteps": minRound.Seconds() - 0.01}
	got := undersampled(specs, counts, shortest)
	if len(got) != 2 || !strings.HasPrefix(got[0], "bfs_gblas_mteps:") || !strings.HasPrefix(got[1], "read_hit_p50_us:") {
		t.Errorf("undersampled = %q, want bfs_gblas_mteps (short round) and read_hit_p50_us (too few samples)", got)
	}
}

func tinyRun(t *testing.T, w *workload, traced bool, spans string) *run {
	t.Helper()
	r := &run{options: options{w: w, seed: 7, seconds: 0.4, trace: traced, tiny: true, scratch: t.TempDir(), spans: spans}}
	if err := r.execute(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if n := r.failed.Load(); n != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, n, r.attempted.Load(), r.errs)
	}
	return r
}

// TestSmoke runs the tiny profile of all four workloads, plain and traced:
// every named metric is there and finite, the end-to-end ones positive,
// shard-net and aam metrics non-zero only where they are measured, spans
// nest, and the counts that must repeat exactly for a seed do.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.engine == "cluster" {
				// On two Ps a cluster job on a graph this small livelocks
				// once in some dozens of jobs (TestClusterLivelock), and the
				// smoke profile runs hundreds; the full-size workload, whose
				// job frame takes milliseconds to ship, has not been seen to.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			plain := tinyRun(t, w, false, "")
			for _, s := range append(append([]metricSpec(nil), endToEnd...), demoted...) {
				if v, ok := plain.metrics[s.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (measured: %v), want a positive number", s.Name, v, ok)
				}
			}

			file := filepath.Join(t.TempDir(), "spans.jsonl")
			traced := tinyRun(t, w, true, file)
			for _, s := range perLayer {
				v, ok := traced.metrics[s.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (measured: %v), want a finite number", s.Name, v, ok)
				}
				switch {
				case s.Name == "shard-net.job_retries" || s.Name == "shard-net.heartbeat_rtt_us":
					// 0 is right for the first, and for the second on a run
					// shorter than the heartbeat interval.
				case strings.HasPrefix(s.Name, "shard-net."):
					if (v != 0) != (w.engine == "cluster") {
						t.Errorf("%s = %v on a workload read through %s", s.Name, v, w.engine)
					}
				case strings.HasPrefix(s.Name, "aam."):
					if (v != 0) != (w.engine == "aam") && s.Name != "aam.sim_aborts" {
						t.Errorf("%s = %v on a workload read through %s", s.Name, v, w.engine)
					}
				}
			}
			if got, want := traced.metrics["wal.appends"], float64(traced.writes.Load()); got != want {
				t.Errorf("wal.appends = %v, but %v writes were acknowledged", got, want)
			}
			checkSpans(t, file)

			if w.engine != "aam" {
				return // one workload is enough to run a third time
			}
			again := tinyRun(t, w, true, "")
			for _, name := range []string{"dyn.freeze_touched", "aam.sim_txs", "aam.sim_aborts", "aam.sim_bfs_machine_ms", "graph.arcs", "graph.binary_bytes"} {
				if a, b := traced.metrics[name], again.metrics[name]; a != b {
					t.Errorf("%s is %v in one run and %v in the next with the same seed", name, a, b)
				}
			}
		})
	}
}

// checkSpans reads a span file back: ids are positions, every child lies
// inside its parent (ladder rungs excepted: they are the same query run
// again one layer down, so they follow their parent in time), and in the
// single-threaded kernel phase siblings do not overlap, so that every
// span's self time — its length minus its children's — is what it spent
// outside them and the self times of a tree add up to its root.
func checkSpans(t *testing.T, file string) {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if len(spans) < 100 {
		t.Fatalf("only %d spans", len(spans))
	}
	children := map[int][]span{}
	ladders := map[int64]int{}
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("span %+v at position %d", s, i)
		}
		if strings.HasPrefix(s.Name, "ladder ") {
			ladders[s.Query]++
			continue
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %+v is not inside its parent %+v", s, p)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for q, n := range ladders {
		if n != 5 && n != 4 {
			t.Errorf("ladder query %d has %d rungs, want 5 (read) or 4 (write)", q, n)
		}
	}
	if len(ladders) < ladderReads+ladderWrites {
		t.Errorf("%d ladders, want at least %d", len(ladders), ladderReads+ladderWrites)
	}
	var sequential func(s span)
	sequential = func(s span) {
		end := s.Start
		for _, c := range children[s.ID] { // in id order, which is start order
			if c.Start < end {
				t.Errorf("span %+v starts before its sibling ended at %d", c, end)
			}
			end = c.End
			sequential(c)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "kernels" {
			if len(children[s.ID]) < 4*rounds {
				t.Errorf("kernel phase has %d child spans", len(children[s.ID]))
			}
			sequential(s)
		}
	}
}

// TestClusterLivelock reproduces a defect in internal/shard that this
// benchmark found and may not fix (README.md, "Found while building it").
// With two Ps, back-to-back cluster jobs on a small graph hang within a
// few hundred jobs: a batch of job k+1 reaches a worker whose job k has
// returned but not yet detached, is delivered to job k's executor and
// dropped with it, and job k+1's Drain then waits for ever for
// sent == received. It needs BENCH_LIVELOCK=1: it fails until that is fixed.
func TestClusterLivelock(t *testing.T) {
	if os.Getenv("BENCH_LIVELOCK") == "" {
		t.Skip("set BENCH_LIVELOCK=1 to reproduce the livelock")
	}
	s, err := setUp(workloadByName("kron16-cluster"), 7, true, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := s.g.Freeze()
	for i := 0; i < 3000; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := s.cluster.BFS(f, i*37%f.N, shardCfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cluster BFS %d has not returned after 10 s", i)
		}
	}
	if err := s.shutDown(); err != nil {
		t.Fatal(err)
	}
}
