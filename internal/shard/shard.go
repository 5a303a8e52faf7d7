// Package shard executes AAM graph algorithms across multiple graph
// shards on real goroutines. The vertex set is split by the 1-D block
// distribution of internal/graph.Partition; every shard owns its block's
// vertex state, runs its own worker pool isolated by one of the five
// mechanisms of internal/aam, and communicates with the other shards
// exclusively through active messages: cross-shard operator spawns are
// accumulated in per-destination coalescing buffers and flushed as
// batched May-Fail operator batches into the destination shard's inbox.
//
// The layer generalizes the paper's intra-node activity coalescing (§4.2)
// to inter-shard traffic: batching amortizes the per-message handoff cost
// exactly as Figure 5's C factor amortizes the network α cost, and the
// May-Fail batch semantics (every unit applies independently, failures
// are counted, nothing flows back) keep the protocol one-way and
// deadlock-free. See DESIGN.md §"Sharded execution" for the flush-ordering
// correctness argument.
package shard

import (
	"fmt"
	"runtime"
	"time"

	"aamgo/internal/aam"
)

// FlushPolicy selects when a destination's coalescing buffer is handed to
// the destination shard.
type FlushPolicy int

const (
	// FlushBySize flushes a destination buffer once BatchSize units have
	// accumulated (the default; the analogue of the paper's C factor).
	FlushBySize FlushPolicy = iota
	// FlushEager flushes after every unit: batching disabled, one message
	// per cross-shard operator. The baseline the batch-size sweeps compare
	// against.
	FlushEager
	// FlushByEpoch holds every unit until the epoch barrier (Drain):
	// maximum batching, frontier-latency traded for minimum message count.
	FlushByEpoch
)

// String names the policy.
func (p FlushPolicy) String() string {
	switch p {
	case FlushBySize:
		return "size"
	case FlushEager:
		return "eager"
	case FlushByEpoch:
		return "epoch"
	default:
		return "policy(?)"
	}
}

// PartScheme selects how the vertex set is split into shard-owned ranges.
type PartScheme int

const (
	// PartBlock is the paper's 1-D block distribution (§3.1): equal
	// vertex counts per shard. The default.
	PartBlock PartScheme = iota
	// PartEdge balances outgoing-arc counts instead of vertex counts
	// (prefix-sum boundaries over the degree array, binary-search Owner) —
	// the skew-resistant choice for power-law graphs, where one block can
	// otherwise concentrate most of the work on a single shard.
	PartEdge
)

// String names the scheme.
func (p PartScheme) String() string {
	switch p {
	case PartBlock:
		return "block"
	case PartEdge:
		return "edge"
	default:
		return "part(?)"
	}
}

// PartByName resolves the wire names of the partition schemes.
func PartByName(name string) (PartScheme, bool) {
	for _, p := range []PartScheme{PartBlock, PartEdge} {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// Direction selects the BFS traversal strategy.
type Direction int

const (
	// DirAuto switches between push and pull per level on the
	// frontier-edge heuristic (direction-optimizing BFS). The default.
	DirAuto Direction = iota
	// DirPush always expands the frontier top-down through mark operators
	// (the classic AAM formulation; the pre-optimization behavior).
	DirPush
	// DirPull always scans unvisited vertices bottom-up against the
	// frontier bitmap. Valid on undirected graphs only; directed graphs
	// fall back to push (the CSR has no reverse adjacency).
	DirPull
)

// String names the direction policy.
func (d Direction) String() string {
	switch d {
	case DirAuto:
		return "auto"
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return "dir(?)"
	}
}

// Config shapes one sharded execution.
type Config struct {
	// Shards is the number of graph shards (default 1). Shards may exceed
	// the vertex count; surplus shards own empty blocks.
	Shards int
	// Workers is the number of worker goroutines per shard (default 1:
	// the shard is the unit of parallelism and its state is uncontended).
	// Values above 1 add intra-shard parallelism and make the isolation
	// mechanism load-bearing.
	Workers int
	// BatchSize is the coalescing factor: units per cross-shard batch
	// under FlushBySize (default 64).
	BatchSize int
	// Flush selects the flush policy (default FlushBySize).
	Flush FlushPolicy
	// Mechanism isolates local operator application for every shard.
	// The zero value is MechHTM (the paper's flagship mechanism): the
	// emulated optimistic retry-then-serialize path.
	Mechanism aam.Mechanism
	// Part selects the vertex distribution: PartBlock (default, equal
	// vertex counts) or PartEdge (equal outgoing-arc counts — the
	// skew-resistant boundaries). Results are identical under both; only
	// the shard load balance and the cross-shard traffic pattern change.
	Part PartScheme
	// Dir selects the BFS traversal strategy (DirAuto, DirPush, DirPull);
	// ignored by the other algorithms.
	Dir Direction

	// CollTimeout bounds how long a rank waits inside one distributed
	// collective (allreduce, barrier) before declaring the peer dead
	// (default 2m). Ignored by the in-process transport.
	CollTimeout time.Duration
	// HeartbeatEvery is the coordinator's probe interval on quiet worker
	// links (default 5s). Ignored by the in-process transport.
	HeartbeatEvery time.Duration
	// Liveness is how long a worker link may stay silent — no frames, no
	// pong — before the coordinator evicts the rank (default 15s; must
	// exceed HeartbeatEvery to allow at least one missed probe).
	Liveness time.Duration
	// JobTimeout bounds one distributed job attempt end to end (default
	// 10m). It is the watchdog for hangs the collective timeout cannot
	// see, e.g. a Drain that never quiesces because frames were lost.
	JobTimeout time.Duration

	// transport, when non-nil, carries cross-shard batches instead of the
	// default in-process inbox delivery. Set by the cluster layer
	// (cluster.go) on every peer process of a distributed run; external
	// callers go through NewCluster / JoinCluster.
	transport Transport
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BatchSize < 1 {
		c.BatchSize = 64
	}
	if c.CollTimeout <= 0 {
		c.CollTimeout = 2 * time.Minute
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 5 * time.Second
	}
	if c.Liveness <= 0 {
		c.Liveness = 15 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	return c
}

func (c Config) validate() error {
	if c.Shards*c.Workers > 1<<16 {
		return fmt.Errorf("shard: %d×%d workers exceeds the sanity bound", c.Shards, c.Workers)
	}
	if maxProcs := runtime.GOMAXPROCS(0); c.Shards*c.Workers > 64*maxProcs {
		return fmt.Errorf("shard: %d×%d workers over %d procs is degenerate", c.Shards, c.Workers, maxProcs)
	}
	return nil
}

// Stats aggregates one shard's execution counters. Cross-shard counters
// follow the message direction: Sent counters belong to the spawning
// shard, Recv counters to the owning (applying) shard.
type Stats struct {
	// LocalOps counts operators spawned and applied on the owning shard
	// without messaging; LocalFailed is its May-Fail failure subset.
	LocalOps    uint64
	LocalFailed uint64

	// RemoteUnitsSent / RemoteBatchesSent count coalesced operator units
	// and the flushed batches that carried them.
	RemoteUnitsSent   uint64
	RemoteBatchesSent uint64
	// RemoteUnitsRecv / RemoteBatchesRecv count batch units applied by
	// this shard's workers; RemoteFailed is the May-Fail failure subset.
	RemoteUnitsRecv   uint64
	RemoteBatchesRecv uint64
	RemoteFailed      uint64

	// Isolation counters. Aborts are optimistic conflicts (HTM emulation
	// and OCC validation failures), Retries are atomic CAS retakes and
	// contended lock acquisitions, Serialized counts HTM fallback
	// serializations, Combined counts operators a flat-combining combiner
	// executed on behalf of other workers.
	Aborts     uint64
	Retries    uint64
	Serialized uint64
	Combined   uint64

	// BufferAllocs counts fresh coalescing-buffer allocations (recycle-pool
	// misses). Buffers circulate sender→inbox→pool, so after warm-up the
	// message path allocates nothing and this counter stops moving.
	BufferAllocs uint64

	// WireBatchesSent / WireBytesSent count batches that actually crossed
	// a process boundary (tcp transport only; frame header included in the
	// byte count). Always zero in-process — a subset of the Remote*Sent
	// counters above, which keep counting every cross-shard flush.
	WireBatchesSent uint64
	WireBytesSent   uint64
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.LocalOps += o.LocalOps
	s.LocalFailed += o.LocalFailed
	s.RemoteUnitsSent += o.RemoteUnitsSent
	s.RemoteBatchesSent += o.RemoteBatchesSent
	s.RemoteUnitsRecv += o.RemoteUnitsRecv
	s.RemoteBatchesRecv += o.RemoteBatchesRecv
	s.RemoteFailed += o.RemoteFailed
	s.Aborts += o.Aborts
	s.Retries += o.Retries
	s.Serialized += o.Serialized
	s.Combined += o.Combined
	s.BufferAllocs += o.BufferAllocs
	s.WireBatchesSent += o.WireBatchesSent
	s.WireBytesSent += o.WireBytesSent
}

// Ops returns the total operator applications this shard performed.
func (s Stats) Ops() uint64 { return s.LocalOps + s.RemoteUnitsRecv }

// Result reports one sharded algorithm execution.
type Result struct {
	// Elapsed is the wall-clock duration of the parallel phase.
	Elapsed time.Duration
	// Epochs counts the Drain barriers (BFS levels, PageRank iterations,
	// CC rounds).
	Epochs int
	// PerShard holds each shard's counters, indexed by shard id.
	PerShard []Stats
}

// Totals sums the per-shard counters.
func (r Result) Totals() Stats {
	var t Stats
	for _, s := range r.PerShard {
		t.add(s)
	}
	return t
}

// AllocsPerEpoch reports message-buffer allocations per Drain barrier —
// the steady-state figure of merit for the coalescing path (warm-up
// populates the recycle pool, after which this tends to zero).
func (r Result) AllocsPerEpoch() float64 {
	if r.Epochs == 0 {
		return 0
	}
	return float64(r.Totals().BufferAllocs) / float64(r.Epochs)
}
