package aam

import (
	"sort"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// Optimistic-locking activity execution (Kung & Robinson [24], named in the
// paper's conclusion as an alternative isolation mechanism to HTM). An
// activity executes speculatively against a private write buffer, then
// commits by acquiring versioned per-vertex locks over its declared
// footprint: a CAS that installs the lock only if the version is unchanged
// since the read phase fuses validation and acquisition, so a successful
// lock phase proves no conflicting activity committed in between.
//
// Footprint contract: as with MechLock, the operator's LockAddrs (default
// LockBase+v) must cover every shared mutable word the body touches. The
// version words live in the same lock region the lock mechanism uses; the
// two mechanisms cannot be mixed in one run. Unlike locks, OCC supports
// AbortOnFail operators — a user abort simply discards the write buffer.
//
// Version cells are even when free (node memory starts at 0 == free) and
// odd while a committer holds them.

// occTx is the speculative memory view: reads go to the write buffer first
// and fall through to node memory; writes are buffered until commit.
type occTx struct {
	ctx    exec.Context
	writes []occWriteEntry
	idx    map[int]int
}

type occWriteEntry struct {
	addr int
	val  uint64
}

func (x *occTx) Read(addr int) uint64 {
	if i, ok := x.idx[addr]; ok {
		return x.writes[i].val
	}
	return x.ctx.Load(addr)
}

func (x *occTx) Write(addr int, v uint64) {
	if i, ok := x.idx[addr]; ok {
		x.writes[i].val = v
		return
	}
	x.idx[addr] = len(x.writes)
	x.writes = append(x.writes, occWriteEntry{addr: addr, val: v})
}

func (x *occTx) ReadROData(n int) {
	lines := (n + 7) / 8
	x.ctx.Compute(vtime.Time(lines) * x.ctx.Profile().LoadCost)
}

// occUserAbort unwinds the body on Tx.Abort.
type occUserAbort struct{}

func (x *occTx) Abort() { panic(occUserAbort{}) }

var _ exec.Tx = (*occTx)(nil)

func (x *occTx) reset() {
	x.writes = x.writes[:0]
	for k := range x.idx {
		delete(x.idx, k)
	}
}

// occCellsInto collects the batch's footprint cells (sorted, deduplicated
// version-word addresses) into dst.
func (e *Engine) occCellsInto(dst []int, recs []rec) []int {
	for _, r := range recs {
		op := e.rt.ops[r.op]
		if op.LockAddrs != nil {
			dst = append(dst, op.LockAddrs(e, int(r.v), r.arg)...)
		} else {
			dst = append(dst, e.cfg.LockBase+int(r.v))
		}
	}
	sort.Ints(dst)
	uniq := dst[:0]
	for i, a := range dst {
		if i == 0 || a != dst[i-1] {
			uniq = append(uniq, a)
		}
	}
	return uniq
}

// runOCC executes the batch under optimistic locking. It retries on
// validation failure with jittered exponential backoff; progress is
// guaranteed because a validation failure implies another activity
// committed. The backoff polls the network (which also yields to the
// simulator's scheduler — a non-yielding spin would starve the lock
// holder), and a polled handler may re-enter runOCC on this engine, so all
// scratch state is detached for the duration.
func (e *Engine) runOCC(recs []rec, rets []retSlot) {
	ctx := e.ctx
	st := ctx.Stats()

	occ := e.occ
	e.occ = nil
	if occ == nil {
		occ = &occTx{ctx: ctx, idx: make(map[int]int, 16)}
	}
	cells := e.occCellsInto(e.occCells[:0], recs)
	e.occCells = nil
	vers := e.occVers[:0]
	e.occVers = nil
	defer func() {
		occ.reset()
		e.occ = occ
		e.occCells = cells[:0]
		e.occVers = vers[:0]
	}()

	st.TxStarted++
	for attempt := 1; ; attempt++ {
		st.TxAttempts++
		// Read phase: snapshot versions; odd means another activity holds
		// the cell, which would doom validation, so fail fast.
		vers = vers[:0]
		busy := false
		for _, c := range cells {
			v := ctx.Load(c)
			if v&1 != 0 {
				busy = true
				break
			}
			vers = append(vers, v)
		}
		if busy {
			st.Aborts[stats.AbortConflict]++
			st.Retries++
			e.occBackoff(attempt)
			continue
		}

		// Execution phase, against the private buffer.
		occ.reset()
		if occRunBody(occ, e, recs, rets) {
			// The whole activity rolled back at the algorithm level:
			// nothing to validate or write.
			for i := range rets {
				rets[i] = retSlot{fail: true}
			}
			st.TxUserFailed++
			st.Aborts[stats.AbortExplicit]++
			return
		}

		// Validation + lock phase: install odd (locked) versions only
		// where the version still matches the read phase.
		locked := 0
		ok := true
		for i, c := range cells {
			if !ctx.CAS(c, vers[i], vers[i]+1) {
				ok = false
				break
			}
			locked++
		}
		if !ok {
			for i := 0; i < locked; i++ {
				ctx.Store(cells[i], vers[i])
			}
			st.Aborts[stats.AbortConflict]++
			st.Retries++
			e.occBackoff(attempt)
			continue
		}

		// Write phase, then unlock with bumped (even) versions.
		for _, w := range occ.writes {
			ctx.Store(w.addr, w.val)
		}
		for i, c := range cells {
			ctx.Store(c, vers[i]+2)
		}
		st.TxCommitted++
		return
	}
}

// occRunBody executes every operator of the batch against the speculative
// buffer, reporting whether an AbortOnFail operator unwound the activity.
func occRunBody(occ *occTx, e *Engine, recs []rec, rets []retSlot) (userAborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(occUserAbort); ok {
				userAborted = true
				return
			}
			panic(r)
		}
	}()
	for i, r := range recs {
		op := e.rt.ops[r.op]
		ret, fail := op.Body(occ, e, int(r.v), r.arg)
		rets[i] = retSlot{ret: ret, fail: fail}
		if fail && op.AbortOnFail {
			occ.Abort()
		}
	}
	return false
}

// occBackoff pauses before re-running a failed validation, draining the
// network while waiting (Poll also yields to the scheduler; the jitter
// avoids convoys between activities with identical footprints).
func (e *Engine) occBackoff(attempt int) {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	base := vtime.Time(100*vtime.Nanosecond) << uint(shift)
	d := base/2 + vtime.Time(e.ctx.Rand().Int63n(int64(base)))
	deadline := e.ctx.Now() + d
	for e.ctx.Now() < deadline {
		if e.ctx.Poll() == 0 {
			e.ctx.Compute(50 * vtime.Nanosecond)
		}
	}
}
