package shard

import (
	"runtime"
	"testing"
	"time"

	"aamgo/internal/graph"
)

// TestClusterLivelock runs back-to-back cluster jobs on a graph small
// enough that a batch of job k+1 reaching a worker before it attached job
// k+1's executor — while job k's executor was still attached, or relayed
// ahead of the worker's own job frame — would be lost, and job k+1's
// Drain would never see sent == received and spin until JobTimeout. The
// run's opening collective rules both out: no rank sends a batch of a job
// before every rank has attached it. Before it, either loss happened
// about once in 25–500 jobs on two Ps. JobTimeout is a few seconds and
// retries are off here, so a recurrence is an error, neither a hang nor a
// silently retried attempt.
func TestClusterLivelock(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 200
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := graph.Kronecker(10, 8, 3)
	c := startChaosCluster(t, 2, ClusterOptions{JobRetries: -1, Logf: t.Logf}, false)
	cfg := Config{Shards: 4, JobTimeout: 5 * time.Second}
	for i := 0; i < jobs; i++ {
		if _, err := c.BFS(g, i*37%g.N, cfg); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}
