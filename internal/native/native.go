// Package native implements the exec.Machine interface with real
// concurrency: one goroutine per thread, sync/atomic word operations, and a
// TL2-style software transactional memory standing in for HTM (stm.go).
//
// The backend exists for two reasons. First, it makes the library genuinely
// usable for parallel graph processing on commodity multicore hosts — the
// paper's AAM runtime, algorithms and examples all run unchanged on it.
// Second, it cross-checks the simulator: every algorithm must produce
// identical results on both backends (and under -race on this one).
//
// Timing facilities degrade gracefully: Now() reports wall time since Run
// started, Compute() is a no-op, and the cost model in the machine profile
// is ignored.
package native

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// Machine is the native-concurrency backend. Like sim.Machine it is
// single-use.
type Machine struct {
	cfg   exec.Config
	nodes []*node
	start time.Time
	ran   bool

	barrier *barrier
	arSlots [2]uint64 // alternating allreduce accumulators
	arGen   uint32

	// A body's panic: the first value, re-panicked from Run, and the flag
	// that unwinds every thread parked in a barrier, spinning in Lock or
	// looping through Poll.
	panicOnce sync.Once
	panicVal  any
	aborted   atomic.Bool
}

// errAborted unwinds a thread whose run another thread's panic ended.
var errAborted = errors.New("native: run aborted by a panicking body")

// abort records the first panic value and releases every parked thread.
func (m *Machine) abort(r any) {
	m.panicOnce.Do(func() {
		m.panicVal = r
		m.aborted.Store(true)
		m.barrier.abort()
	})
}

type node struct {
	id  int
	mem []uint64
	stm *stmNode

	inboxMu sync.Mutex
	inbox   []nmsg
}

type nmsg struct {
	handler int
	src     int
	payload []uint64
}

// New constructs a native machine from cfg.
func New(cfg exec.Config) *Machine {
	cfg.Validate()
	m := &Machine{cfg: cfg}
	m.nodes = make([]*node, cfg.Nodes)
	for i := range m.nodes {
		n := &node{id: i, mem: make([]uint64, cfg.MemWords)}
		n.stm = newSTMNode(n.mem)
		m.nodes[i] = n
	}
	m.barrier = newBarrier(cfg.Nodes * cfg.ThreadsPerNode)
	return m
}

// Mem returns the memory of nodeID for inspection after Run completes.
func (m *Machine) Mem(nodeID int) []uint64 { return m.nodes[nodeID].mem }

// Run executes body once per thread and waits for completion. A body
// that panics ends the run: the other threads unwind at their next
// barrier, Lock spin or Poll, and once every thread has ended, Run
// panics with the body's value on the caller's goroutine.
func (m *Machine) Run(body func(ctx exec.Context)) exec.Result {
	if m.ran {
		panic("native: Machine.Run called twice (machines are single-use)")
	}
	m.ran = true
	total := m.cfg.Nodes * m.cfg.ThreadsPerNode
	ctxs := make([]*nthread, total)
	for g := 0; g < total; g++ {
		nid := g / m.cfg.ThreadsPerNode
		c := &nthread{
			m:    m,
			node: m.nodes[nid],
			gid:  g,
			nid:  nid,
			lid:  g % m.cfg.ThreadsPerNode,
			rng:  rand.New(rand.NewSource(m.cfg.Seed*1_000_003 + int64(g)*7919 + 17)),
		}
		c.tx = nativeTx{t: c, s: c.node.stm, wIdx: make(map[int]int, 8), stripes: make(map[int]struct{}, 8)}
		ctxs[g] = c
	}
	m.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(total)
	for _, c := range ctxs {
		c := c
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && r != errAborted {
					m.abort(r)
				}
			}()
			body(c)
		}()
	}
	wg.Wait()
	if m.aborted.Load() {
		panic(m.panicVal)
	}

	res := exec.Result{
		Elapsed:   vtime.Time(time.Since(m.start).Nanoseconds()),
		PerThread: make([]stats.Thread, total),
	}
	for i, c := range ctxs {
		res.PerThread[i] = c.st
	}
	res.Stats = stats.Merge(res.PerThread)
	return res
}

// nthread implements exec.Context over real concurrency.
type nthread struct {
	m    *Machine
	node *node
	gid  int
	nid  int
	lid  int
	rng  *rand.Rand
	st   stats.Thread
	tx   nativeTx
	inTx bool
}

func (t *nthread) GlobalID() int       { return t.gid }
func (t *nthread) NodeID() int         { return t.nid }
func (t *nthread) LocalID() int        { return t.lid }
func (t *nthread) Nodes() int          { return t.m.cfg.Nodes }
func (t *nthread) ThreadsPerNode() int { return t.m.cfg.ThreadsPerNode }

func (t *nthread) Now() vtime.Time {
	return vtime.Time(time.Since(t.m.start).Nanoseconds())
}

func (t *nthread) Compute(d vtime.Time) {}

func (t *nthread) checkAddr(addr int) {
	if addr < 0 || addr >= len(t.node.mem) {
		panic(fmt.Sprintf("native: node %d address %d out of range [0,%d)", t.nid, addr, len(t.node.mem)))
	}
}

func (t *nthread) MemSize() int { return len(t.node.mem) }

func (t *nthread) Load(addr int) uint64 {
	t.checkAddr(addr)
	t.st.Loads++
	return atomic.LoadUint64(&t.node.mem[addr])
}

func (t *nthread) Store(addr int, v uint64) {
	t.checkAddr(addr)
	t.st.Stores++
	t.node.stm.rmw(addr, func(uint64) uint64 { return v })
}

func (t *nthread) CAS(addr int, old, new uint64) bool {
	t.checkAddr(addr)
	t.st.AtomicOps++
	ok := t.node.stm.rmw(addr, func(cur uint64) uint64 {
		if cur == old {
			return new
		}
		return cur
	}) == old
	if !ok {
		t.st.CASFail++
	}
	return ok
}

func (t *nthread) FetchAdd(addr int, delta uint64) uint64 {
	t.checkAddr(addr)
	t.st.AtomicOps++
	return t.node.stm.rmw(addr, func(old uint64) uint64 { return old + delta })
}

func (t *nthread) Lock(addr int) {
	t.checkAddr(addr)
	for !atomic.CompareAndSwapUint64(&t.node.mem[addr], 0, 1) {
		if t.m.aborted.Load() {
			panic(errAborted)
		}
		runtime.Gosched()
	}
	t.st.LockAcqs++
}

func (t *nthread) Unlock(addr int) {
	t.checkAddr(addr)
	atomic.StoreUint64(&t.node.mem[addr], 0)
}

// --- messaging ---

func (t *nthread) Send(dstNode int, handler int, payload []uint64) {
	if dstNode < 0 || dstNode >= len(t.m.nodes) {
		panic(fmt.Sprintf("native: send to invalid node %d", dstNode))
	}
	if handler < 0 || handler >= len(t.m.cfg.Handlers) {
		panic(fmt.Sprintf("native: send with unregistered handler %d", handler))
	}
	body := make([]uint64, len(payload))
	copy(body, payload)
	dst := t.m.nodes[dstNode]
	dst.inboxMu.Lock()
	dst.inbox = append(dst.inbox, nmsg{handler: handler, src: t.nid, payload: body})
	dst.inboxMu.Unlock()
	t.st.MsgsSent++
	t.st.MsgWords += uint64(len(payload))
}

func (t *nthread) drain() []nmsg {
	n := t.node
	n.inboxMu.Lock()
	msgs := n.inbox
	n.inbox = nil
	n.inboxMu.Unlock()
	return msgs
}

func (t *nthread) Poll() int {
	if t.m.aborted.Load() {
		panic(errAborted)
	}
	msgs := t.drain()
	for _, msg := range msgs {
		t.st.HandlersRun++
		t.m.cfg.Handlers[msg.handler](t, msg.src, msg.payload)
	}
	return len(msgs)
}

// --- collectives ---

func (t *nthread) Barrier() {
	t.st.Barriers++
	t.m.barrier.await()
}

func (t *nthread) AllReduceSum(v uint64) uint64 {
	g := atomic.LoadUint32(&t.m.arGen) & 1
	atomic.AddUint64(&t.m.arSlots[g], v)
	t.m.barrier.await()
	out := atomic.LoadUint64(&t.m.arSlots[g])
	if t.m.barrier.await() {
		// Exactly one thread resets the used slot and flips generation.
		atomic.StoreUint64(&t.m.arSlots[g], 0)
		atomic.AddUint32(&t.m.arGen, 1)
	}
	t.m.barrier.await()
	return out
}

func (t *nthread) Rand() *rand.Rand              { return t.rng }
func (t *nthread) Stats() *stats.Thread          { return &t.st }
func (t *nthread) Profile() *exec.MachineProfile { return t.m.cfg.Profile }

// barrier is a reusable generation-counting barrier. await returns true for
// exactly one thread per generation (the last arriver).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     uint64
	aborted bool // set by abort: every await, parked or to come, panics
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() bool {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return true
	}
	for b.gen == gen && !b.aborted {
		b.cond.Wait()
	}
	aborted := b.aborted
	b.mu.Unlock()
	if aborted {
		panic(errAborted)
	}
	return false
}

// abort releases every thread parked in await, and every later one.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

var (
	_ exec.Machine = (*Machine)(nil)
	_ exec.Context = (*nthread)(nil)
)
