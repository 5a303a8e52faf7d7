package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"aamgo/internal/aam"
)

// apply executes operator op on owner-local vertex lv under the shard's
// isolation mechanism and reports whether it committed (false = May-Fail
// failure). Every mechanism linearizes the single-word read-modify-write,
// so every mechanism converges to the same state; they differ in how
// conflicts surface in the counters (aborts, retries, serializations,
// combined batches).
func (s *Shard) apply(w *Worker, op, lv int, arg uint64) bool {
	o := s.ex.ops[op]
	switch s.mech {
	case aam.MechAtomic:
		return s.applyAtomic(w, o, lv, arg)
	case aam.MechHTM:
		return s.applyHTM(w, o, lv, arg)
	case aam.MechLock:
		return s.applyLock(w, o, lv, arg)
	case aam.MechOptimistic:
		return s.applyOCC(w, o, lv, arg)
	case aam.MechFlatCombining:
		return s.applyFC(w, op, o, lv, arg)
	default:
		panic(fmt.Sprintf("shard: unknown mechanism %v", s.mech))
	}
}

// applyAtomic is the paper's atomics mechanism: an unbounded CAS loop on
// the target word. Failed CASes are retries, never aborts — the operator
// re-executes against the fresh value.
func (s *Shard) applyAtomic(w *Worker, o *Op, lv int, arg uint64) bool {
	addr := o.Addr(lv, arg)
	for {
		cur := s.Load(addr)
		next, ok := o.Mutate(cur, arg)
		if !ok {
			return false
		}
		if s.cas(addr, cur, next) {
			s.commit(w, o, lv, arg)
			return true
		}
		w.stats.Retries++
	}
}

// htmRetries bounds the emulated-HTM optimistic attempts before the
// serialized fallback, mirroring the simulator's Haswell retry policy.
const htmRetries = 8

// applyHTM emulates the hardware-transactional path on coherent shared
// memory: optimistic attempts whose conflicts count as aborts, then the
// serialized fallback under the shard's fallback lock once htmRetries are
// exhausted — the same retry-then-serialize policy the simulator applies
// to Haswell RTM. The fallback still CASes because fast-path workers keep
// racing.
func (s *Shard) applyHTM(w *Worker, o *Op, lv int, arg uint64) bool {
	addr := o.Addr(lv, arg)
	for attempt := 0; attempt < htmRetries; attempt++ {
		cur := s.Load(addr)
		next, ok := o.Mutate(cur, arg)
		if !ok {
			return false
		}
		if s.cas(addr, cur, next) {
			s.commit(w, o, lv, arg)
			return true
		}
		w.stats.Aborts++
	}
	w.stats.Serialized++
	s.fallbackMu.Lock()
	defer s.fallbackMu.Unlock()
	for {
		cur := s.Load(addr)
		next, ok := o.Mutate(cur, arg)
		if !ok {
			return false
		}
		if s.cas(addr, cur, next) {
			s.commit(w, o, lv, arg)
			return true
		}
		w.stats.Retries++
	}
}

// applyLock takes the per-vertex spinlock. A contended first acquisition
// counts one retry (matching how the simulator's lock mechanism reports
// contention, not spin iterations).
func (s *Shard) applyLock(w *Worker, o *Op, lv int, arg uint64) bool {
	if !atomic.CompareAndSwapUint32(&s.locks[lv], 0, 1) {
		w.stats.Retries++
		for !atomic.CompareAndSwapUint32(&s.locks[lv], 0, 1) {
			runtime.Gosched()
		}
	}
	addr := o.Addr(lv, arg)
	next, ok := o.Mutate(s.Load(addr), arg)
	if ok {
		s.Store(addr, next)
	}
	atomic.StoreUint32(&s.locks[lv], 0)
	if ok {
		s.commit(w, o, lv, arg)
	}
	return ok
}

// applyOCC is Kung-Robinson optimistic concurrency over a per-vertex
// seqlock-style version cell: read the version (even = unlocked), execute
// speculatively, then commit by bumping the version to odd, writing, and
// releasing to even. A version that moved underneath is a validation
// abort; a May-Fail failure only stands if the version was still current
// when the failure was observed.
func (s *Shard) applyOCC(w *Worker, o *Op, lv int, arg uint64) bool {
	addr := o.Addr(lv, arg)
	for {
		v0 := atomic.LoadUint64(&s.vers[lv])
		if v0&1 == 1 {
			runtime.Gosched()
			continue
		}
		cur := s.Load(addr)
		next, ok := o.Mutate(cur, arg)
		if !ok {
			if atomic.LoadUint64(&s.vers[lv]) == v0 {
				return false
			}
			w.stats.Aborts++
			continue
		}
		if !atomic.CompareAndSwapUint64(&s.vers[lv], v0, v0+1) {
			w.stats.Aborts++
			continue
		}
		s.Store(addr, next)
		atomic.StoreUint64(&s.vers[lv], v0+2)
		s.commit(w, o, lv, arg)
		return true
	}
}

// Flat-combining publication slot states.
const (
	fcEmpty uint32 = iota
	fcPending
	fcDoneOK
	fcDoneFail
)

// fcSlot is one worker's publication record, padded to its own cache line
// (4+4+8+4 payload bytes + 44 = 64).
type fcSlot struct {
	op    uint32
	lv    int32
	arg   uint64
	state atomic.Uint32
	_     [11]uint32
}

// applyFC publishes the operator in this worker's slot and then either
// combines (applying every published operator of the shard in one
// combiner-lock acquisition) or waits for a concurrent combiner to apply
// it. OnCommit always runs on the publishing worker, so per-worker
// algorithm scratch stays single-writer.
func (s *Shard) applyFC(w *Worker, opID int, o *Op, lv int, arg uint64) bool {
	slot := &s.fcSlots[w.ID]
	slot.op = uint32(opID)
	slot.lv = int32(lv)
	slot.arg = arg
	slot.state.Store(fcPending)
	for slot.state.Load() == fcPending {
		if s.fcLock.CompareAndSwap(false, true) {
			s.combine(w)
			s.fcLock.Store(false)
		} else {
			runtime.Gosched()
		}
	}
	ok := slot.state.Load() == fcDoneOK
	slot.state.Store(fcEmpty)
	if ok {
		s.commit(w, o, lv, arg)
	}
	return ok
}

// combine executes every pending published operator. Only the combiner
// mutates state while it holds the flag, so plain load→mutate→store (via
// the atomic accessors, for the benefit of concurrent readers) suffices.
func (s *Shard) combine(w *Worker) {
	for i := range s.fcSlots {
		slot := &s.fcSlots[i]
		if slot.state.Load() != fcPending {
			continue
		}
		o := s.ex.ops[slot.op]
		addr := o.Addr(int(slot.lv), slot.arg)
		next, ok := o.Mutate(s.Load(addr), slot.arg)
		if ok {
			s.Store(addr, next)
			slot.state.Store(fcDoneOK)
		} else {
			slot.state.Store(fcDoneFail)
		}
		if i != w.ID {
			w.stats.Combined++
		}
	}
}

// commit runs the operator's post-commit hook on the applying worker.
func (s *Shard) commit(w *Worker, o *Op, lv int, arg uint64) {
	if o.OnCommit != nil {
		o.OnCommit(w, lv, arg)
	}
}
