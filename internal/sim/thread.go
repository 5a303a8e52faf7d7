package sim

import (
	"fmt"
	"math/rand"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// thread is one simulated hardware thread; it implements exec.Context.
type thread struct {
	m     *Machine
	node  *node
	gid   int
	nid   int
	lid   int
	clock vtime.Time

	// next switches to the thread's coroutine until it suspends (true) or
	// its body returns (false); suspendFn, called on the coroutine,
	// switches back; stop ends the coroutine, unwinding a suspended body.
	next      func() (struct{}, bool)
	suspendFn func(struct{}) bool
	stop      func()
	state     threadState

	rng *rand.Rand
	st  stats.Thread

	txsets []*txRuntime
	inTx   bool
}

func newThread(m *Machine, gid, nid, lid int) *thread {
	return &thread{
		m:    m,
		node: m.nodes[nid],
		gid:  gid,
		nid:  nid,
		lid:  lid,
		rng:  rand.New(rand.NewSource(m.cfg.Seed*1_000_003 + int64(gid)*7919 + 17)),
	}
}

// yield hands control back to the scheduler and waits to be resumed as the
// minimum-clock runnable thread. Every arbitration point calls yield before
// acting, which gives the global virtual-time ordering invariant.
func (t *thread) yield() {
	t.m.readyPush(t)
	t.suspend()
}

// released is the panic that unwinds a suspended body whose coroutine was
// stopped; the coroutine's top frame recovers it.
type released struct{}

// suspend switches back to the scheduler until it resumes this thread.
func (t *thread) suspend() {
	if !t.suspendFn(struct{}{}) {
		panic(released{})
	}
}

// --- identity ---

func (t *thread) GlobalID() int       { return t.gid }
func (t *thread) NodeID() int         { return t.nid }
func (t *thread) LocalID() int        { return t.lid }
func (t *thread) Nodes() int          { return t.m.cfg.Nodes }
func (t *thread) ThreadsPerNode() int { return t.m.cfg.ThreadsPerNode }

// --- time ---

func (t *thread) Now() vtime.Time { return t.clock }

func (t *thread) Compute(d vtime.Time) {
	if d > 0 {
		t.clock += d
	}
}

// --- memory ---

func (t *thread) checkAddr(addr int) {
	if addr < 0 || addr >= len(t.node.mem) {
		panic(fmt.Sprintf("sim: node %d address %d out of range [0,%d)", t.nid, addr, len(t.node.mem)))
	}
}

func (t *thread) MemSize() int { return len(t.node.mem) }

// Load is a plain read of committed state. It does not yield (reads are
// concurrent under coherence) and linearizes at its execution point.
func (t *thread) Load(addr int) uint64 {
	t.checkAddr(addr)
	t.clock += t.m.prof.LoadCost
	t.st.Loads++
	return t.node.mem[addr]
}

// acquireLine serializes exclusive ownership of addr's cache line for an
// operation of the given cost.
func (t *thread) acquireLine(addr int, cost vtime.Time) {
	lb := &t.node.lineBusy[addr>>3]
	start := vtime.Max(t.clock, *lb)
	end := start + cost
	*lb = end
	t.clock = end
}

// stampWrite records a committed write to addr's conflict unit for
// transactional conflict detection.
func (t *thread) stampWrite(addr int) {
	t.m.applySeq++
	t.node.meta[addr>>t.m.metaShift] = wordMeta{t.m.applySeq, int32(t.gid)}
}

// Store is an ordinary (non-atomic) write; it still serializes on the
// cache line to model exclusive ownership transfer.
func (t *thread) Store(addr int, v uint64) {
	t.checkAddr(addr)
	t.yield()
	t.acquireLine(addr, t.m.prof.StoreCost)
	t.stampWrite(addr)
	t.st.Stores++
	t.node.mem[addr] = v
}

// CAS models the architecture's compare-and-swap. On x86 (lock cmpxchg)
// the line is acquired exclusively whether or not the swap succeeds, so
// contended CAS latency grows with the thread count. On LL/SC machines
// (Profile.CASFailsShared, BG/Q) a failing compare exits after the
// load-reserve and never takes the line, so failing CAS traffic scales
// (§5.4.1: "BGQ-CAS is least affected by the increasing T").
func (t *thread) CAS(addr int, old, new uint64) bool {
	t.checkAddr(addr)
	t.yield()
	t.st.AtomicOps++
	if t.node.mem[addr] != old && t.m.prof.CASFailsShared {
		t.clock += t.m.prof.CASCost
		t.st.CASFail++
		return false
	}
	t.acquireLine(addr, t.m.prof.CASCost)
	if t.node.mem[addr] == old {
		t.stampWrite(addr)
		t.node.mem[addr] = new
		return true
	}
	t.st.CASFail++
	return false
}

// FetchAdd models fetch-and-op/accumulate.
func (t *thread) FetchAdd(addr int, delta uint64) uint64 {
	t.checkAddr(addr)
	t.yield()
	t.acquireLine(addr, t.m.prof.FAOCost)
	t.stampWrite(addr)
	t.st.AtomicOps++
	old := t.node.mem[addr]
	t.node.mem[addr] = old + delta
	return old
}

// --- locks ---

// Lock spins on a word-sized test-and-set lock; spinning advances virtual
// time so contended critical sections cost what they should.
func (t *thread) Lock(addr int) {
	const spinQuantum = 25 * vtime.Nanosecond
	for {
		t.checkAddr(addr)
		t.yield()
		t.acquireLine(addr, t.m.prof.LockCost)
		if t.node.mem[addr] == 0 {
			t.stampWrite(addr)
			t.node.mem[addr] = 1
			t.st.LockAcqs++
			return
		}
		t.clock += spinQuantum
	}
}

func (t *thread) Unlock(addr int) {
	t.checkAddr(addr)
	t.yield()
	t.acquireLine(addr, t.m.prof.UnlockCost)
	t.stampWrite(addr)
	t.node.mem[addr] = 0
}

// --- messaging ---

func (t *thread) Send(dstNode int, handler int, payload []uint64) {
	if dstNode < 0 || dstNode >= len(t.m.nodes) {
		panic(fmt.Sprintf("sim: send to invalid node %d", dstNode))
	}
	if handler < 0 || handler >= len(t.m.cfg.Handlers) {
		panic(fmt.Sprintf("sim: send with unregistered handler %d", handler))
	}
	t.yield()
	p := t.m.prof
	t.clock += p.SendOverhead
	alpha := p.NetAlpha
	if dstNode == t.nid {
		// Intra-node delivery through shared memory: no NIC traversal.
		alpha = p.NetAlpha / 8
	}
	deliver := t.clock + alpha + vtime.Time(len(payload))*p.NetBeta
	body := make([]uint64, len(payload))
	copy(body, payload)
	t.m.msgSeq++
	t.m.nodes[dstNode].inbox.push(event{deliver, t.m.msgSeq, int32(handler), int32(t.nid), body})
	t.st.MsgsSent++
	t.st.MsgWords += uint64(len(payload))
}

// Poll runs every handler whose message has been delivered by now.
func (t *thread) Poll() int {
	t.yield()
	ran := 0
	for in := &t.node.inbox; len(*in) > 0 && (*in)[0].at <= t.clock; ran++ {
		t.runHandler(in.pop())
	}
	return ran
}

func (t *thread) runHandler(msg event) {
	t.clock = vtime.Max(t.clock, msg.at) + t.m.prof.HandlerCost
	h := t.m.cfg.Handlers[msg.id]
	t.st.HandlersRun++
	h(t, int(msg.src), msg.payload)
}

// --- collectives ---

func (t *thread) Barrier() {
	t.st.Barriers++
	t.collective(0)
}

func (t *thread) AllReduceSum(v uint64) uint64 {
	return t.collective(v)
}

// collective implements barrier/allreduce: all threads arrive, the last
// arrival computes the release time (max arrival + tree latency) and the
// sum, and readies everyone. Every arrival then suspends; the scheduler
// resumes each from the ready queue.
func (t *thread) collective(v uint64) uint64 {
	m := t.m
	m.colSum += v
	m.colWaiting = append(m.colWaiting, t)
	t.state = stBarrier
	if len(m.colWaiting) == len(m.thr) {
		release := m.colWaiting[0].clock
		for _, w := range m.colWaiting[1:] {
			if w.clock > release {
				release = w.clock
			}
		}
		release += m.barrierLatency()
		m.colResult = m.colSum
		m.colSum = 0
		for _, w := range m.colWaiting {
			w.clock = release
			m.readyPush(w)
		}
		m.colWaiting = m.colWaiting[:0]
	}
	t.suspend()
	return m.colResult
}

// --- utilities ---

func (t *thread) Rand() *rand.Rand              { return t.rng }
func (t *thread) Stats() *stats.Thread          { return &t.st }
func (t *thread) Profile() *exec.MachineProfile { return t.m.prof }

var _ exec.Context = (*thread)(nil)
