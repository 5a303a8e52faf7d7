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

	resume  chan struct{}
	state   threadState
	heapIdx int

	rng *rand.Rand
	st  stats.Thread

	txsets map[*exec.HTMProfile]*txRuntime
	inTx   bool
}

func newThread(m *Machine, gid, nid, lid int) *thread {
	return &thread{
		m:      m,
		node:   m.nodes[nid],
		gid:    gid,
		nid:    nid,
		lid:    lid,
		resume: make(chan struct{}),
		rng:    rand.New(rand.NewSource(m.cfg.Seed*1_000_003 + int64(gid)*7919 + 17)),
		txsets: make(map[*exec.HTMProfile]*txRuntime),
	}
}

// yield hands control back to the scheduler and waits to be resumed as the
// minimum-clock runnable thread. Every arbitration point calls yield before
// acting, which gives the global virtual-time ordering invariant.
func (t *thread) yield() {
	t.m.readyPush(t)
	t.m.toSched <- struct{}{}
	<-t.resume
}

// block parks the thread without adding it to the ready heap; the caller is
// responsible for arranging a wake-up.
func (t *thread) block(s threadState) {
	t.state = s
	t.m.toSched <- struct{}{}
	<-t.resume
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

// stampWrite records a committed write for transactional conflict
// detection.
func (t *thread) stampWrite(addr int) {
	t.m.applySeq++
	mt := &t.node.meta[addr]
	mt.wrSeq = t.m.applySeq
	mt.wrBy = int32(t.gid)
	lm := &t.node.lineMeta[addr>>3]
	lm.wrSeq = t.m.applySeq
	lm.wrBy = int32(t.gid)
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
	msg := message{deliver: deliver, seq: t.m.msgSeq, handler: handler, src: t.nid, payload: body}
	t.m.nodes[dstNode].inbox.pushMsg(msg)
	t.st.MsgsSent++
	t.st.MsgWords += uint64(len(payload))
}

func (h *msgHeap) pushMsg(m message) {
	*h = append(*h, m)
	// Sift up (container/heap-compatible ordering maintained manually to
	// avoid interface boxing in the hot path).
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (h *msgHeap) popMsg() message {
	old := *h
	m := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).Less(l, small) {
			small = l
		}
		if r < n && (*h).Less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h).Swap(i, small)
		i = small
	}
	return m
}

// Poll runs every handler whose message has been delivered by now.
func (t *thread) Poll() int {
	t.yield()
	ran := 0
	for t.node.inbox.Len() > 0 && t.node.inbox.peek().deliver <= t.clock {
		msg := t.node.inbox.popMsg()
		t.runHandler(msg)
		ran++
	}
	return ran
}

func (t *thread) runHandler(msg message) {
	t.clock = vtime.Max(t.clock, msg.deliver) + t.m.prof.HandlerCost
	h := t.m.cfg.Handlers[msg.handler]
	t.st.HandlersRun++
	h(t, msg.src, msg.payload)
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
// sum, and readies everyone.
func (t *thread) collective(v uint64) uint64 {
	m := t.m
	m.colSum += v
	m.colWaiting = append(m.colWaiting, t)
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
		// t is now in the ready heap; park until the scheduler picks it.
		t.state = stBarrier
		m.toSched <- struct{}{}
		<-t.resume
		return m.colResult
	}
	t.block(stBarrier)
	return m.colResult
}

// --- utilities ---

func (t *thread) Rand() *rand.Rand              { return t.rng }
func (t *thread) Stats() *stats.Thread          { return &t.st }
func (t *thread) Profile() *exec.MachineProfile { return t.m.prof }

var _ exec.Context = (*thread)(nil)
