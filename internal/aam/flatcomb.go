package aam

import (
	"fmt"
	"sync"

	"aamgo/internal/exec"
	"aamgo/internal/vtime"
)

// Flat combining (Hendler, Incze, Shavit & Tzafrir [17], named in the
// paper's conclusion as an alternative isolation mechanism): instead of
// every thread fighting for per-vertex locks or speculating, each thread
// publishes its activity in a per-node publication array and the current
// holder of a single combiner lock executes every published activity. One
// lock acquisition amortizes over all concurrently published batches, so
// synchronization traffic collapses to a single contended word.
//
// Memory layout: the mechanism repurposes the per-vertex lock region
// (Config.LockBase) — MechLock and MechFlatCombining cannot be mixed in one
// run. Word 0 is the combiner lock; words 1..T are the per-thread "ready"
// flags; words T+1..2T are the per-thread "done" flags. The flags carry the
// cross-thread visibility on both backends (they are plain sim words and
// sync/atomic words natively), while the operator records themselves travel
// through a host-side publication slot.
//
// Like the lock mechanism, flat combining executes bodies directly (no
// rollback), so AbortOnFail operators are rejected. Operator bodies run on
// the combiner's engine: per-thread resources they touch (e.g. a BFS
// frontier segment) are the combiner's, which is exactly the semantics of
// flat combining — the combiner does the work.

// fcSlot is one thread's publication record. recs/rets are written by the
// publishing thread before it raises its ready flag and read by the
// combiner after observing the flag (atomic flag accesses on the native
// backend give the necessary happens-before ordering).
type fcSlot struct {
	recs []rec
	rets []retSlot
}

// fcNode is the per-node combining structure shared by the node's engines.
type fcNode struct {
	base  int // == Config.LockBase
	T     int
	slots []fcSlot
}

func (f *fcNode) lockAddr() int       { return f.base }
func (f *fcNode) readyAddr(t int) int { return f.base + 1 + t }
func (f *fcNode) doneAddr(t int) int  { return f.base + 1 + f.T + t }

// fcWords returns the number of lock-region words flat combining needs for
// T threads.
func fcWords(T int) int { return 1 + 2*T }

// LockWords returns the size of the lock region at Config.LockBase for a
// node that owns L vertices and runs T threads: one word per vertex for
// MechLock and MechOptimistic, and the combining structure for
// MechFlatCombining. A program's memory ends there.
func LockWords(L, T int) int { return max(L, fcWords(T)) }

// fcFor returns (creating on first use) the combining structure of ctx's
// node. Engines of one node share one fcNode; the runtime mutex guards only
// creation.
func (rt *Runtime) fcFor(ctx exec.Context, lockBase int) *fcNode {
	T := ctx.ThreadsPerNode()
	if lockBase+fcWords(T) > ctx.MemSize() {
		panic(fmt.Sprintf("aam: flat combining needs %d words at LockBase %d but node memory has %d",
			fcWords(T), lockBase, ctx.MemSize()))
	}
	rt.fcMu.Lock()
	defer rt.fcMu.Unlock()
	if rt.fcNodes == nil {
		rt.fcNodes = make(map[int]*fcNode)
	}
	f := rt.fcNodes[ctx.NodeID()]
	if f == nil {
		f = &fcNode{base: lockBase, T: T, slots: make([]fcSlot, T)}
		rt.fcNodes[ctx.NodeID()] = f
	} else if f.base != lockBase {
		panic("aam: engines of one node disagree on LockBase")
	}
	return f
}

// fcMu and fcNodes live on the Runtime; declared here to keep the flat-
// combining state in one file.
type fcState struct {
	fcMu    sync.Mutex
	fcNodes map[int]*fcNode
}

// fcSpinQuantum is the virtual time one failed combiner-lock probe costs
// while waiting for the combiner to finish.
const fcSpinQuantum = 30 * vtime.Nanosecond

// runFlatCombined publishes the batch and either waits for a combiner to
// execute it or becomes the combiner itself.
func (e *Engine) runFlatCombined(recs []rec, rets []retSlot) {
	ctx := e.ctx
	f := e.fc
	if f == nil {
		f = e.rt.fcFor(ctx, e.cfg.LockBase)
		e.fc = f
	}
	lid := ctx.LocalID()
	slot := &f.slots[lid]
	for _, r := range recs {
		if op := e.rt.ops[r.op]; op.AbortOnFail {
			panic(fmt.Sprintf("aam: operator %q needs rollback; not expressible with flat combining", op.Name))
		}
	}
	slot.recs, slot.rets = recs, rets
	ctx.Store(f.readyAddr(lid), 1)

	for {
		if ctx.Load(f.doneAddr(lid)) == 1 {
			// A combiner executed our batch.
			ctx.Store(f.doneAddr(lid), 0)
			slot.recs, slot.rets = nil, nil
			return
		}
		if ctx.CAS(f.lockAddr(), 0, 1) {
			break // we are the combiner
		}
		ctx.Compute(fcSpinQuantum)
	}
	ctx.Stats().LockAcqs++

	// Re-check under the lock: the previous combiner may have finished our
	// batch between the flag probe and the CAS.
	if ctx.Load(f.doneAddr(lid)) == 1 {
		ctx.Store(f.doneAddr(lid), 0)
		slot.recs, slot.rets = nil, nil
		ctx.Store(f.lockAddr(), 0)
		return
	}

	// Combining pass: execute every published batch, our own included.
	tx := directTx{ctx: ctx}
	for t := 0; t < f.T; t++ {
		if ctx.Load(f.readyAddr(t)) != 1 {
			continue
		}
		s := &f.slots[t]
		for i, r := range s.recs {
			op := e.rt.ops[r.op]
			ret, fail := op.Body(tx, e, int(r.v), r.arg)
			s.rets[i] = retSlot{ret: ret, fail: fail}
		}
		ctx.Store(f.readyAddr(t), 0)
		if t != lid {
			ctx.Stats().FlatCombined += uint64(len(s.recs))
			ctx.Store(f.doneAddr(t), 1)
		}
	}
	slot.recs, slot.rets = nil, nil
	ctx.Store(f.lockAddr(), 0)
}
