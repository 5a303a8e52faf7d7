package main

import (
	"testing"

	"aamgo/internal/query"
	"aamgo/internal/shard"
)

// TestEveryJobHasARecipe: -algos accepts exactly the wire job table, so
// every job in it must resolve to a registry descriptor that runs on the
// cluster and on the in-process shard engine; -check is the descriptor's
// own Verify, which the registry's shape test requires of every entry.
func TestEveryJobHasARecipe(t *testing.T) {
	for _, name := range shard.JobNames() {
		d := query.Lookup(name)
		if d == nil || d.Engines[query.EngineCluster] == nil || d.Engines[query.EngineShard] == nil {
			t.Errorf("job %q has no registry descriptor covering the cluster and shard engines", name)
		}
	}
}
