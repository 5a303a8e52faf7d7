// Package sim implements the exec.Machine interface as a deterministic
// discrete-event simulator. N×T simulated threads run real algorithm code
// as iter.Pull coroutines, all driven from Run's goroutine: the scheduler
// always resumes the thread with the smallest virtual clock, so all
// arbitration points (atomics, transaction commits, sends, barriers)
// execute in nondecreasing virtual-time order and runs are bit-reproducible
// for a fixed seed. A panic in a thread's body is Run's panic, and Run
// stops every thread's coroutine before it returns or unwinds.
//
// The memory system serializes atomics per word (exclusive-line transfer),
// which makes contention emerge mechanically from the workload; the HTM
// emulation (tx.go) detects conflicts by interval overlap on write stamps,
// one per word or, on a LineConflicts machine, one per 64-byte line, and
// models capacity via cache-geometry trackers. The network delivers active
// messages after an α+β·size latency.
//
// This is the substitution for the paper's Haswell TSX and Blue Gene/Q
// hardware (see DESIGN.md §2): algorithms and their memory footprints are
// real, only latencies are modeled.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"strings"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// wordMeta is the conflict metadata of one conflict unit (a word, or a
// 64-byte line on a LineConflicts machine): the global apply-sequence stamp
// and writer of the last committed write to it. A transaction aborts iff a
// unit it read was overwritten (higher wrSeq) after its body's snapshot
// point — exactly a hardware read-set invalidation.
type wordMeta struct {
	wrSeq uint64
	wrBy  int32
}

// event is one entry of an event queue, ordered by (at, seq). In the ready
// queue it is a runnable thread: at is its clock, seq and id its global id.
// In a node's inbox it is an active message: at is its delivery time, seq
// its send number, id its handler and src its sending node.
type event struct {
	at      vtime.Time
	seq     uint64
	id      int32
	src     int32
	payload []uint64
}

func (e *event) before(f *event) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

// events is a binary min-heap of events; h[0] is the earliest. Keys are
// unique within each queue, so the pop order is fixed by the keys alone.
type events []event

func (h *events) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// the heap keeps no payload alive.
func (h *events) pop() event {
	q := *h
	e, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := l + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			return e
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// node is one simulated compute node.
type node struct {
	id  int
	mem []uint64
	// meta holds one stamp per conflict unit: address addr is unit
	// addr>>Machine.metaShift.
	meta []wordMeta
	// lineBusy serializes exclusive cache-line ownership for atomics and
	// stores (8 words per 64-byte line): contended read-modify-writes to
	// one line transfer it back and forth, which is the fine-grained
	// synchronization cost the paper's AAM coarsening removes.
	lineBusy []vtime.Time
	inbox    events

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

// Machine is the simulator instance. It is single-use: construct with New,
// call Run once.
type Machine struct {
	cfg   exec.Config
	prof  *exec.MachineProfile
	nodes []*node
	thr   []*thread

	ready events // runnable threads, keyed by (clock, gid)

	// Collective state.
	colWaiting []*thread
	colSum     uint64
	colResult  uint64

	msgSeq    uint64
	applySeq  uint64 // global memory-apply sequence (conflict snapshots)
	metaShift uint   // log2 of the words per conflict unit
	ran       bool
}

// New constructs a simulator machine from cfg.
func New(cfg exec.Config) *Machine {
	cfg.Validate()
	m := &Machine{cfg: cfg, prof: cfg.Profile}
	if m.prof.LineConflicts {
		m.metaShift = 3
	}
	m.nodes = make([]*node, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = &node{
			id:       i,
			mem:      make([]uint64, cfg.MemWords),
			meta:     make([]wordMeta, cfg.MemWords>>m.metaShift+1),
			lineBusy: make([]vtime.Time, cfg.MemWords/8+1),
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
		t.next, t.stop = iter.Pull(func(suspend func(struct{}) bool) {
			defer func() {
				if r := recover(); r != nil && r != (released{}) {
					panic(r)
				}
			}()
			t.suspendFn = suspend
			body(t)
		})
		m.readyPush(t)
	}
	// A panic out of schedule (a body's own, or the deadlock) unwinds
	// through here: stopping every thread releases the parked ones.
	defer func() {
		for _, t := range m.thr {
			t.stop()
		}
	}()
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
	m.ready.push(event{at: t.clock, seq: uint64(t.gid), id: int32(t.gid)})
}

// schedule is the central DES loop: switch to the min-clock ready thread
// until it suspends or returns, repeat. Only a collective parks a thread
// outside the ready queue, so an empty queue with threads still running is a
// deadlock.
func (m *Machine) schedule() {
	for {
		if len(m.ready) == 0 {
			if m.allDone() {
				return
			}
			panic("sim: deadlock\n" + m.dump())
		}
		t := m.thr[m.ready.pop().id]
		t.state = stRunning
		if _, ok := t.next(); !ok {
			t.state = stDone
		}
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
		fmt.Fprintf(&b, "  node %d: inbox=%d\n", n.id, len(n.inbox))
	}
	return b.String()
}

var _ exec.Machine = (*Machine)(nil)
