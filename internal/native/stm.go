package native

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
)

// stmNode is a TL2-style software transactional memory over one node's word
// memory: a global version clock plus striped version-locks. It stands in
// for HTM on the native backend; there is no capacity model (software
// transactions are unbounded), and after maxSpecRetries failed speculative
// attempts the transaction serializes under a per-node fallback mutex —
// the same policy shape as the RTM fallback path.
//
// Store, CAS and FetchAdd outside a transaction are isolated from the
// transactions, as real HTM aborts a transaction whose line another core
// writes: each runs under its word's stripe lock and publishes a new
// stripe version (rmw), so a transaction that read the old value fails
// validation. Lock and Unlock stay plain spin words.
type stmNode struct {
	mem      []uint64
	locks    []uint64 // version<<1 | lockbit
	clock    uint64
	fallback sync.Mutex
}

const (
	stmStripes     = 1 << 12
	maxSpecRetries = 16
)

func newSTMNode(mem []uint64) *stmNode {
	return &stmNode{mem: mem, locks: make([]uint64, stmStripes)}
}

func (s *stmNode) stripe(addr int) int { return addr & (stmStripes - 1) }

// rmw replaces the word at addr with f(old) outside any transaction and
// returns old. It holds the word's stripe lock, and a change commits a new
// stripe version, so a concurrent transaction that read old cannot commit.
func (s *stmNode) rmw(addr int, f func(old uint64) uint64) uint64 {
	lock := &s.locks[s.stripe(addr)]
	v := atomic.LoadUint64(lock)
	for v&1 != 0 || !atomic.CompareAndSwapUint64(lock, v, v|1) {
		runtime.Gosched()
		v = atomic.LoadUint64(lock)
	}
	old := atomic.LoadUint64(&s.mem[addr])
	if nv := f(old); nv != old {
		atomic.StoreUint64(&s.mem[addr], nv)
		v = atomic.AddUint64(&s.clock, 1) << 1
	}
	atomic.StoreUint64(lock, v)
	return old
}

// nativeTx implements exec.Tx. Each thread owns one and resets it per
// attempt, so a warm transaction allocates nothing.
type nativeTx struct {
	t      *nthread
	s      *stmNode
	rv     uint64
	reads  []int
	writes []htmWrite
	wIdx   map[int]int
	// stripes and order are commit's set and sorted list of write stripes.
	stripes map[int]struct{}
	order   []int
}

type htmWrite struct {
	addr int
	val  uint64
}

// sentinels for unwinding the body.
type nUserAbort struct{}
type nConflict struct{}

func (x *nativeTx) Read(addr int) uint64 {
	x.t.checkAddr(addr)
	if i, ok := x.wIdx[addr]; ok {
		return x.writes[i].val
	}
	st := x.s.stripe(addr)
	v1 := atomic.LoadUint64(&x.s.locks[st])
	val := atomic.LoadUint64(&x.s.mem[addr])
	v2 := atomic.LoadUint64(&x.s.locks[st])
	if v1 != v2 || v1&1 != 0 || v1>>1 > x.rv {
		panic(nConflict{})
	}
	x.reads = append(x.reads, addr)
	return val
}

func (x *nativeTx) Write(addr int, v uint64) {
	x.t.checkAddr(addr)
	if i, ok := x.wIdx[addr]; ok {
		x.writes[i].val = v
		return
	}
	x.wIdx[addr] = len(x.writes)
	x.writes = append(x.writes, htmWrite{addr: addr, val: v})
}

// ReadROData is capacity accounting for the simulator; immutable data
// needs no STM tracking on the native backend.
func (x *nativeTx) ReadROData(n int) {}

func (x *nativeTx) Abort() { panic(nUserAbort{}) }

var _ exec.Tx = (*nativeTx)(nil)

// Tx runs body as a software transaction; see stmNode for the semantics.
func (t *nthread) Tx(p *exec.HTMProfile, body func(tx exec.Tx) error) exec.TxResult {
	if t.inTx {
		panic("native: nested transactions are not supported")
	}
	t.inTx = true
	defer func() { t.inTx = false }()

	s := t.node.stm
	t.st.TxStarted++
	var res exec.TxResult
	for attempt := 1; ; attempt++ {
		t.st.TxAttempts++
		serialized := attempt > maxSpecRetries
		if serialized {
			s.fallback.Lock()
		}
		outcome, err := t.tryOnce(s, body)
		if serialized {
			s.fallback.Unlock()
		}
		switch outcome {
		case nOutCommit:
			t.st.TxCommitted++
			if serialized {
				t.st.TxSerialized++
			}
			res.Committed = true
			res.Serialized = serialized
			return res
		case nOutUser, nOutErr:
			t.st.Aborts[stats.AbortExplicit]++
			t.st.TxUserFailed++
			res.UserAbort = outcome == nOutUser
			res.Err = err
			res.Serialized = serialized
			return res
		case nOutConflict:
			t.st.Aborts[stats.AbortConflict]++
			t.st.Retries++
			// Exponential backoff with jitter to avoid livelock.
			spins := 1 << uint(min(attempt, 10))
			spins += t.rng.Intn(spins)
			for i := 0; i < spins; i++ {
				runtime.Gosched()
			}
		}
	}
}

type nOutcome int

const (
	nOutCommit nOutcome = iota
	nOutConflict
	nOutUser
	nOutErr
)

func (t *nthread) tryOnce(s *stmNode, body func(tx exec.Tx) error) (out nOutcome, err error) {
	x := &t.tx
	for _, w := range x.writes {
		delete(x.wIdx, w.addr)
	}
	x.reads, x.writes = x.reads[:0], x.writes[:0]
	x.rv = atomic.LoadUint64(&s.clock)
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case nConflict:
				out = nOutConflict
			case nUserAbort:
				out = nOutUser
			default:
				panic(r)
			}
		}
	}()
	if e := body(x); e != nil {
		return nOutErr, e
	}
	if len(x.writes) == 0 {
		return nOutCommit, nil // read-only transactions validated on the fly
	}
	return x.commit(), nil
}

func (x *nativeTx) commit() nOutcome {
	s := x.s
	// Lock write stripes in address order to avoid deadlock.
	for _, st := range x.order {
		delete(x.stripes, st)
	}
	order := x.order[:0]
	for _, w := range x.writes {
		st := s.stripe(w.addr)
		if _, dup := x.stripes[st]; !dup {
			x.stripes[st] = struct{}{}
			order = append(order, st)
		}
	}
	x.order = order
	sort.Ints(order)
	locked := order[:0]
	for _, st := range order {
		v := atomic.LoadUint64(&s.locks[st])
		if v&1 != 0 || !atomic.CompareAndSwapUint64(&s.locks[st], v, v|1) {
			for _, l := range locked {
				atomic.StoreUint64(&s.locks[l], atomic.LoadUint64(&s.locks[l])&^1)
			}
			return nOutConflict
		}
		locked = append(locked, st)
	}
	wv := atomic.AddUint64(&s.clock, 1)
	// Validate the read set unless nothing committed since we started.
	if wv != x.rv+1 {
		for _, addr := range x.reads {
			st := s.stripe(addr)
			v := atomic.LoadUint64(&s.locks[st])
			if _, mine := x.stripes[st]; v&1 != 0 && !mine {
				x.unlockAll(locked, 0, false)
				return nOutConflict
			}
			if v>>1 > x.rv {
				x.unlockAll(locked, 0, false)
				return nOutConflict
			}
		}
	}
	for _, w := range x.writes {
		atomic.StoreUint64(&s.mem[w.addr], w.val)
	}
	x.unlockAll(locked, wv, true)
	return nOutCommit
}

func (x *nativeTx) unlockAll(locked []int, wv uint64, committed bool) {
	for _, st := range locked {
		if committed {
			atomic.StoreUint64(&x.s.locks[st], wv<<1)
		} else {
			atomic.StoreUint64(&x.s.locks[st], atomic.LoadUint64(&x.s.locks[st])&^1)
		}
	}
}
