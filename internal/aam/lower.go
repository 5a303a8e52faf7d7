package aam

import "aamgo/internal/exec"

// The §7 future-work "compiler pass": pattern-match each single-vertex
// transaction against the set of atomic operations and transform it when
// possible. Lacking a compiler in the loop, the engine performs the
// analysis online: the first few committed single-operator activities of
// each operator run under a footprint recorder, and an operator whose
// observed transactional footprint is a single word that is both read and
// written (the CAS/fetch-and-op shape of §2.3) with an available atomic
// implementation is thereafter lowered — single-operator activities call
// BodyAtomic directly, skipping transaction begin/commit.
//
// The analysis is conservative: a single observation outside the pattern
// (a second word touched, an explicit abort) disqualifies the operator
// permanently, and coarse activities (len > 1) are never lowered —
// coarsening is exactly the case where transactions win.

// lowerVerdict is the per-operator analysis state.
type lowerVerdict uint8

const (
	lowerUnknown lowerVerdict = iota // still observing
	lowerYes                         // footprint matches an atomic; lower
	lowerNo                          // disqualified
)

// lowerObservations is how many committed in-pattern executions are
// required before an operator is lowered.
const lowerObservations = 3

type lowerState struct {
	verdict lowerVerdict
	seen    uint8
}

// probeTx forwards to the live transaction while recording the footprint.
type probeTx struct {
	inner      exec.Tx
	readAddrs  [2]int
	writeAddrs [2]int
	nReads     int
	nWrites    int
}

func (p *probeTx) noteRead(addr int) {
	for i := 0; i < p.nReads && i < len(p.readAddrs); i++ {
		if p.readAddrs[i] == addr {
			return
		}
	}
	if p.nReads < len(p.readAddrs) {
		p.readAddrs[p.nReads] = addr
	}
	p.nReads++
}

func (p *probeTx) noteWrite(addr int) {
	for i := 0; i < p.nWrites && i < len(p.writeAddrs); i++ {
		if p.writeAddrs[i] == addr {
			return
		}
	}
	if p.nWrites < len(p.writeAddrs) {
		p.writeAddrs[p.nWrites] = addr
	}
	p.nWrites++
}

func (p *probeTx) Read(addr int) uint64 {
	p.noteRead(addr)
	return p.inner.Read(addr)
}

func (p *probeTx) Write(addr int, v uint64) {
	p.noteWrite(addr)
	p.inner.Write(addr, v)
}

func (p *probeTx) ReadROData(n int) {
	// Immutable data never conflicts; reading it does not widen the
	// mutable footprint, so it does not disqualify lowering.
	p.inner.ReadROData(n)
}

func (p *probeTx) Abort() { p.inner.Abort() }

var _ exec.Tx = (*probeTx)(nil)

// matchesAtomic reports whether the recorded footprint is one word, read
// and written (or write-only): the shape of CAS, fetch-and-op, and plain
// atomic stores.
func (p *probeTx) matchesAtomic() bool {
	if p.nWrites != 1 || p.nReads > 1 {
		return false
	}
	return p.nReads == 0 || p.readAddrs[0] == p.writeAddrs[0]
}

// probeWrap prepares the engine's recorder around the live transaction.
func (e *Engine) probeWrap(tx exec.Tx) exec.Tx {
	if e.probe == nil {
		e.probe = &probeTx{}
	}
	*e.probe = probeTx{inner: tx}
	return e.probe
}

func (e *Engine) lowerStateFor(op int32) *lowerState {
	if len(e.lower) <= int(op) {
		grown := make([]lowerState, len(e.rt.ops))
		copy(grown, e.lower)
		e.lower = grown
	}
	return &e.lower[op]
}

// observeLowered records the committed probe run of a single-operator
// activity and promotes or disqualifies the operator.
func (e *Engine) observeLowered(r rec) {
	st := e.lowerStateFor(r.op)
	if st.verdict != lowerUnknown {
		return
	}
	op := e.rt.ops[r.op]
	if op.BodyAtomic == nil || op.AbortOnFail || !e.probe.matchesAtomic() {
		st.verdict = lowerNo
		return
	}
	st.seen++
	if st.seen >= lowerObservations {
		st.verdict = lowerYes
	}
}

// tryLowered executes a single-operator activity through its atomic
// implementation when the operator has been promoted by the analysis. It
// reports whether the activity was handled.
func (e *Engine) tryLowered(r rec, rets []retSlot) bool {
	st := e.lowerStateFor(r.op)
	if st.verdict != lowerYes {
		return false
	}
	op := e.rt.ops[r.op]
	ret, fail := op.BodyAtomic(e.ctx, e, int(r.v), r.arg)
	rets[0] = retSlot{ret: ret, fail: fail}
	e.ctx.Stats().LoweredOps++
	return true
}
