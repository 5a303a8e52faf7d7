// Package sim implements the exec.Machine interface as a deterministic
// discrete-event simulator. N×T simulated threads run real algorithm code
// as coroutines; a central scheduler always resumes the thread with the
// smallest virtual clock, so all arbitration points (atomics, transaction
// commits, sends, barriers) execute in nondecreasing virtual-time order and
// runs are bit-reproducible for a fixed seed.
//
// The memory system serializes atomics per word (exclusive-line transfer),
// which makes contention emerge mechanically from the workload; the HTM
// emulation (tx.go) detects conflicts by interval overlap on word-level
// access metadata and models capacity via cache-geometry trackers. The
// network delivers active messages after an α+β·size latency.
//
// This is the substitution for the paper's Haswell TSX and Blue Gene/Q
// hardware (see DESIGN.md §2): algorithms and their memory footprints are
// real, only latencies are modeled.
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"strings"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// wordMeta is the per-word conflict metadata: the global apply-sequence
// stamp and writer of the last committed write. A transaction aborts iff a
// word it read was overwritten (higher wrSeq) after its body's snapshot
// point — exactly a hardware read-set invalidation.
type wordMeta struct {
	wrSeq uint64
	wrBy  int32
}

// message is one in-flight active message.
type message struct {
	deliver vtime.Time
	seq     uint64
	handler int
	src     int
	payload []uint64
}

type msgHeap []message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].deliver != h[j].deliver {
		return h[i].deliver < h[j].deliver
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h msgHeap) peek() *message { return &h[0] }

// node is one simulated compute node.
type node struct {
	id   int
	mem  []uint64
	meta []wordMeta
	// lineBusy serializes exclusive cache-line ownership for atomics and
	// stores (8 words per 64-byte line): contended read-modify-writes to
	// one line transfer it back and forth, which is the fine-grained
	// synchronization cost the paper's AAM coarsening removes.
	lineBusy []vtime.Time
	// lineMeta mirrors wordMeta at cache-line granularity for HTM
	// profiles with line-granular conflict detection (Intel TSX).
	lineMeta []wordMeta
	inbox    msgHeap

	// Fallback serialization lock for HTM (one per node, as with a
	// global elision lock). lockBusy orders serialized sections; lockSeq
	// is the apply-sequence stamp of the last serialized section, which
	// lock-subscribing transactions (RTM/HLE) must not overlap.
	lockBusy vtime.Time
	lockSeq  uint64

	// htmArb orders transaction begins through the node's shared HTM
	// resource (profiles with ArbCost > 0).
	htmArb vtime.Time
}

type threadState int

const (
	stReady threadState = iota
	stRunning
	stBarrier
	stDone
)

// readyHeap orders runnable threads by (clock, id).
type readyHeap []*thread

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].gid < h[j].gid
}
func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *readyHeap) Push(x any) {
	t := x.(*thread)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.heapIdx = -1
	return t
}

// Machine is the simulator instance. It is single-use: construct with New,
// call Run once.
type Machine struct {
	cfg   exec.Config
	prof  *exec.MachineProfile
	nodes []*node
	thr   []*thread

	ready   readyHeap
	toSched chan struct{}

	// Collective state.
	colWaiting []*thread
	colSum     uint64
	colResult  uint64

	msgSeq   uint64
	applySeq uint64 // global memory-apply sequence (conflict snapshots)
	ran      bool
}

// New constructs a simulator machine from cfg.
func New(cfg exec.Config) *Machine {
	cfg.Validate()
	m := &Machine{
		cfg:     cfg,
		prof:    cfg.Profile,
		toSched: make(chan struct{}),
	}
	m.nodes = make([]*node, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = &node{
			id:       i,
			mem:      make([]uint64, cfg.MemWords),
			meta:     make([]wordMeta, cfg.MemWords),
			lineBusy: make([]vtime.Time, cfg.MemWords/8+1),
			lineMeta: make([]wordMeta, cfg.MemWords/8+1),
		}
	}
	total := cfg.Nodes * cfg.ThreadsPerNode
	m.thr = make([]*thread, total)
	for g := 0; g < total; g++ {
		nid := g / cfg.ThreadsPerNode
		m.thr[g] = newThread(m, g, nid, g%cfg.ThreadsPerNode)
	}
	return m
}

// Node memory access for test setup/inspection between runs is provided by
// Mem; it must not be used while Run is in progress.
func (m *Machine) Mem(nodeID int) []uint64 { return m.nodes[nodeID].mem }

// Run executes body once per thread and simulates to quiescence.
func (m *Machine) Run(body func(ctx exec.Context)) exec.Result {
	if m.ran {
		panic("sim: Machine.Run called twice (machines are single-use)")
	}
	m.ran = true
	for _, t := range m.thr {
		t := t
		go func() {
			<-t.resume
			defer func() {
				t.state = stDone
				m.toSched <- struct{}{}
			}()
			body(t)
		}()
		m.readyPush(t)
	}
	m.schedule()

	res := exec.Result{PerThread: make([]stats.Thread, len(m.thr))}
	for i, t := range m.thr {
		res.PerThread[i] = t.st
		if t.clock > res.Elapsed {
			res.Elapsed = t.clock
		}
	}
	res.Stats = stats.Merge(res.PerThread)
	return res
}

func (m *Machine) readyPush(t *thread) {
	t.state = stReady
	heap.Push(&m.ready, t)
}

// schedule is the central DES loop: resume min-clock ready thread, wait for
// it to yield back, repeat. Only a collective parks a thread outside the
// ready heap, so an empty heap with threads still running is a deadlock.
func (m *Machine) schedule() {
	for {
		if m.ready.Len() == 0 {
			if m.allDone() {
				return
			}
			panic("sim: deadlock\n" + m.dump())
		}
		t := heap.Pop(&m.ready).(*thread)
		t.state = stRunning
		t.resume <- struct{}{}
		<-m.toSched
	}
}

func (m *Machine) allDone() bool {
	for _, t := range m.thr {
		if t.state != stDone {
			return false
		}
	}
	return true
}

// barrierLatency models a tree barrier/allreduce across all threads.
func (m *Machine) barrierLatency() vtime.Time {
	n := len(m.thr)
	lg := bits.Len(uint(n - 1))
	return m.prof.BarrierBase + vtime.Time(lg)*m.prof.BarrierStep
}

func (m *Machine) dump() string {
	var b strings.Builder
	for _, t := range m.thr {
		fmt.Fprintf(&b, "  thread %d (node %d): state=%d clock=%v\n", t.gid, t.nid, t.state, t.clock)
	}
	for _, n := range m.nodes {
		fmt.Fprintf(&b, "  node %d: inbox=%d\n", n.id, n.inbox.Len())
	}
	return b.String()
}

var _ exec.Machine = (*Machine)(nil)
