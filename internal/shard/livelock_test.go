package shard

import (
	"runtime"
	"testing"
	"time"

	"aamgo/internal/graph"
)

// TestClusterLivelock runs back-to-back cluster jobs on a graph small
// enough to hit both ways a batch of job k+1 used to be lost on a worker:
// arriving while job k had returned but not yet detached (delivered to job
// k's executor, or dropped by its late detach — fixed by fencing routing
// state with the attempt nonce), and arriving, relayed from a faster peer,
// ahead of the worker's own job frame (dropped as unarmed — fixed by
// broadcastJob). Either way job k+1's Drain never saw sent == received
// and spun until JobTimeout, about once in 25–500 jobs on two Ps.
// JobTimeout is a few seconds and retries are off here, so a recurrence is
// an error, neither a hang nor a silently retried attempt.
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
