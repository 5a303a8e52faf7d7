// Package exec defines the abstract parallel machine on which every
// algorithm, runtime layer and benchmark in this repository runs. Two
// backends implement it:
//
//   - internal/sim: a deterministic discrete-event simulator with virtual
//     time, a contention-modeled memory system and an HTM emulation — used
//     to reproduce the paper's evaluation on architectures (Haswell TSX,
//     Blue Gene/Q HTM) that are not otherwise available;
//   - internal/native: real goroutines, sync/atomic and a TL2-style STM —
//     used for actual parallel execution and for cross-checking results.
//
// The machine is a cluster of Nodes() compute nodes, each running
// ThreadsPerNode() threads over a node-private word memory; nodes exchange
// active messages. This mirrors the paper's model: processes p_1..p_N, one
// per node n_i, each with up to T threads (§3.1).
package exec

import (
	"math/rand"

	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// HandlerFunc is an active-message handler. It runs on a thread of the
// destination node with that thread's Context; src is the sending node and
// payload the message body. Handlers may use every Context facility,
// including sending further messages and running transactions.
type HandlerFunc func(ctx Context, src int, payload []uint64)

// Tx is the view of memory inside a transactional region. Addresses are
// word indices into the executing node's memory.
type Tx interface {
	// Read returns the value of the word at addr, adding its cache line
	// to the transactional read set.
	Read(addr int) uint64
	// Write buffers a speculative write, adding the line to the write set.
	Write(addr int, v uint64)
	// ReadROData accounts for reading n words of immutable out-of-memory
	// data (CSR adjacency) inside the transaction: the covered lines
	// join the read set for capacity purposes and latency is charged per
	// line, but no conflicts can arise (the data never changes).
	ReadROData(n int)
	// Abort rolls the transaction back and reports an explicit
	// (algorithm-level, May-Fail) abort. It does not return.
	Abort()
}

// TxResult reports the outcome of a transactional region.
type TxResult struct {
	Committed  bool // the region's effects are visible
	Serialized bool // committed via the fallback serialization path
	UserAbort  bool // body called Tx.Abort (May-Fail failure)
	HWAborts   int  // hardware aborts encountered before the outcome
	Err        error
}

// Context is the per-thread handle to the machine.
type Context interface {
	// Identity.
	GlobalID() int       // 0..Nodes()*ThreadsPerNode()-1
	NodeID() int         // node of this thread
	LocalID() int        // thread index within the node
	Nodes() int          // N
	ThreadsPerNode() int // T

	// Time and local work.
	Now() vtime.Time
	// Compute advances this thread by d of pure local work.
	Compute(d vtime.Time)

	// Word memory of this thread's node.
	Load(addr int) uint64
	Store(addr int, v uint64)
	// CAS performs compare-and-swap; it returns whether the swap happened.
	CAS(addr int, old, new uint64) bool
	// FetchAdd atomically adds delta and returns the previous value
	// (the paper's Accumulate/Fetch-and-Op).
	FetchAdd(addr int, delta uint64) uint64
	// MemSize returns the number of words in the node memory.
	MemSize() int

	// Tx runs body as a transaction under HTM profile p, applying the
	// profile's retry/serialization policy. A nil profile uses the
	// machine default.
	Tx(p *HTMProfile, body func(Tx) error) TxResult

	// Locking (per-word spinlocks over node memory), used by the lock
	// mechanism comparison and the Galois-like baseline.
	Lock(addr int)
	Unlock(addr int)

	// Messaging. Send injects an active message to dstNode (may be the
	// local node); delivery is asynchronous. Poll runs pending handlers
	// on this thread and returns how many ran; it never blocks. A thread
	// waiting for traffic polls and joins the sum-reductions that decide
	// termination (am.Drain).
	Send(dstNode int, handler int, payload []uint64)
	Poll() int

	// Collectives over all threads of the machine.
	Barrier()
	// AllReduceSum returns the sum of v over all threads; it implies a
	// barrier on both sides.
	AllReduceSum(v uint64) uint64

	// Utilities.
	Rand() *rand.Rand
	Stats() *stats.Thread
	Profile() *MachineProfile
}

// Config configures a machine instance; both backends accept it.
type Config struct {
	Nodes          int
	ThreadsPerNode int
	MemWords       int // words of memory per node
	Profile        *MachineProfile
	Handlers       []HandlerFunc // handler id = slice index
	Seed           int64
}

// Result is returned by Machine.Run.
type Result struct {
	// Elapsed is the virtual (sim) or wall (native) duration of the run:
	// the maximum final thread clock.
	Elapsed vtime.Time
	Stats   stats.Total
	// PerThread exposes the raw per-thread counters.
	PerThread []stats.Thread
}

// Machine runs SPMD bodies: body is invoked once per thread.
type Machine interface {
	Run(body func(ctx Context)) Result
	// Mem exposes a node's word memory for initialization before Run and
	// result extraction after Run. It must not be used while Run is in
	// progress.
	Mem(node int) []uint64
}

// Validate fills defaults and panics on nonsensical configuration; both
// backends call it from their constructors.
func (c *Config) Validate() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.ThreadsPerNode <= 0 {
		c.ThreadsPerNode = 1
	}
	if c.MemWords <= 0 {
		c.MemWords = 1 << 16
	}
	if c.Profile == nil {
		p := HaswellC()
		c.Profile = &p
	}
}
