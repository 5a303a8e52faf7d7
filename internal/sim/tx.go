package sim

import (
	"errors"

	"aamgo/internal/exec"
	"aamgo/internal/htm"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// txRuntime is the per-(thread, profile) reusable transaction machinery.
// serialSet has capacity limits disabled: the fallback path is
// non-speculative, so footprints are unbounded there.
type txRuntime struct {
	set       *htm.TxSet
	serialSet *htm.TxSet
}

// sentinel panics used to unwind a transaction body.
type capacityAbort struct{ at vtime.Time }
type conflictAbort struct{ at vtime.Time }
type userAbort struct{}

// simTx implements exec.Tx for speculative attempts.
type simTx struct {
	t     *thread
	set   *htm.TxSet
	prof  *exec.HTMProfile
	start vtime.Time
	clock vtime.Time
	// snapSeq is the global apply-sequence value at the body's snapshot
	// point. The body executes as one scheduler slice, so every read
	// observes state as of snapSeq; validation aborts iff a read word
	// was overwritten later (a hardware read-set invalidation).
	snapSeq uint64
	// smt is true when SMT siblings share the transactional cache; each
	// access then risks a sibling-induced speculative eviction.
	smt bool
	// serialized marks the non-speculative fallback path: it runs
	// exclusively, so conflict and eviction checks do not apply.
	serialized bool
	// roNext hands out synthetic line addresses for ReadROData
	// accounting (far beyond any real node memory).
	roNext int
}

// smtEvict plays the co-resident-thread eviction lottery (Fig. 5a/b).
func (x *simTx) smtEvict() {
	if x.smt && x.prof.SMTCapacityProb > 0 &&
		x.t.rng.Float64() < x.prof.SMTCapacityProb {
		panic(capacityAbort{at: x.clock})
	}
}

func (x *simTx) Read(addr int) uint64 {
	x.t.checkAddr(addr)
	if v, ok := x.set.LookupWrite(addr); ok {
		return v
	}
	nl, ok := x.set.NoteRead(addr)
	x.clock += vtime.Time(nl) * x.prof.PerAccessCost
	if !ok {
		panic(capacityAbort{at: x.clock})
	}
	x.smtEvict()
	return x.t.node.mem[addr]
}

func (x *simTx) Write(addr int, v uint64) {
	x.t.checkAddr(addr)
	nl, ok := x.set.NoteWrite(addr, v)
	x.clock += vtime.Time(nl) * x.prof.PerAccessCost
	if !ok {
		panic(capacityAbort{at: x.clock})
	}
	x.smtEvict()
}

// roBase is the synthetic address region used to account read-only data
// footprint (CSR adjacency) in the capacity trackers.
const roBase = 1 << 40

func (x *simTx) ReadROData(n int) {
	if n <= 0 {
		return
	}
	if x.roNext == 0 {
		x.roNext = roBase
	}
	nl, ok := x.set.NoteReadRange(x.roNext, n)
	x.roNext += (n + 7) &^ 7
	x.clock += vtime.Time(nl) * x.prof.PerAccessCost
	if !ok {
		panic(capacityAbort{at: x.clock})
	}
}

func (x *simTx) Abort() { panic(userAbort{}) }

var _ exec.Tx = (*simTx)(nil)

// bodyOutcome classifies how a speculative attempt's body ended.
type bodyOutcome int

const (
	bodyOK bodyOutcome = iota
	bodyCapacity
	bodyConflict
	bodyUser
	bodyErr
)

func runTxBody(x *simTx, body func(exec.Tx) error) (out bodyOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch a := r.(type) {
			case capacityAbort:
				x.clock = a.at
				out = bodyCapacity
			case conflictAbort:
				x.clock = a.at
				out = bodyConflict
			case userAbort:
				out = bodyUser
			default:
				panic(r)
			}
		}
	}()
	if e := body(x); e != nil {
		return bodyErr, e
	}
	return bodyOK, nil
}

func (t *thread) txRuntimeFor(p *exec.HTMProfile) *txRuntime {
	rt, ok := t.txsets[p]
	if !ok {
		unlimited := *p
		unlimited.WriteGeo.MaxLines = 0
		unlimited.WriteGeo.Sets = 0
		unlimited.ReadGeo.MaxLines = 0
		unlimited.ReadGeo.Sets = 0
		rt = &txRuntime{set: htm.NewTxSet(p), serialSet: htm.NewTxSet(&unlimited)}
		t.txsets[p] = rt
	}
	return rt
}

// Tx executes body as an emulated hardware transaction under profile p.
func (t *thread) Tx(p *exec.HTMProfile, body func(exec.Tx) error) exec.TxResult {
	if t.inTx {
		panic("sim: nested transactions are not supported")
	}
	if p == nil {
		p = t.m.prof.HTMVariant("")
	}
	rt := t.txRuntimeFor(p)
	set := rt.set

	t.inTx = true
	defer func() { t.inTx = false }()

	smt := t.m.prof.Cores > 0 && t.m.cfg.ThreadsPerNode > t.m.prof.Cores

	var res exec.TxResult
	t.st.TxStarted++
	attempt := 0
	for {
		attempt++
		t.st.TxAttempts++
		t.yield()
		set.Reset()
		if p.ArbCost > 0 {
			// Shared-resource implementations funnel every begin through
			// the node's HTM arbitration point (BG/Q L2 controller). The
			// extra yield after the forward jump lets lower-clock threads
			// apply pending commits first, so the attempt's start time
			// stays a consistent observation point for validation.
			start := vtime.Max(t.clock, t.node.htmArb) + p.ArbCost
			t.node.htmArb = start
			t.clock = start
			t.yield()
		}
		x := &simTx{t: t, set: set, prof: p, start: t.clock, clock: t.clock + p.BeginCost,
			snapSeq: t.m.applySeq, smt: smt}

		out, err := runTxBody(x, body)

		switch out {
		case bodyUser, bodyErr:
			// Explicit algorithm-level abort: roll back, do not retry.
			t.clock = x.clock + p.AbortCost
			t.st.Aborts[stats.AbortExplicit]++
			t.st.TxUserFailed++
			res.UserAbort = out == bodyUser
			res.Err = err
			return res

		case bodyOK:
			// Spurious-abort lottery (interrupts etc.).
			if p.OtherAbortProb > 0 && t.rng.Float64() < p.OtherAbortProb {
				res.HWAborts++
				t.st.Aborts[stats.AbortOther]++
				t.clock = x.clock + p.AbortCost
				if !t.retryOrSerialize(p, attempt, stats.AbortOther, body, rt, &res) {
					continue
				}
				return res
			}
			// Commit arbitration at commit time.
			t.clock = x.clock + p.CommitCost
			t.yield()
			if t.validate(p, set, x.snapSeq) {
				t.applyCommit(set)
				t.st.TxCommitted++
				res.Committed = true
				return res
			}
			res.HWAborts++
			t.st.Aborts[stats.AbortConflict]++
			t.clock += p.AbortCost
			if !t.retryOrSerialize(p, attempt, stats.AbortConflict, body, rt, &res) {
				continue
			}
			return res

		case bodyCapacity:
			res.HWAborts++
			t.st.Aborts[stats.AbortCapacity]++
			t.clock = x.clock + p.AbortCost
			if !t.retryOrSerialize(p, attempt, stats.AbortCapacity, body, rt, &res) {
				continue
			}
			return res

		case bodyConflict:
			res.HWAborts++
			t.st.Aborts[stats.AbortConflict]++
			t.clock = x.clock + p.AbortCost
			if !t.retryOrSerialize(p, attempt, stats.AbortConflict, body, rt, &res) {
				continue
			}
			return res
		}
	}
}

// retryOrSerialize applies the profile's post-abort policy. It returns true
// when the transaction has reached a final outcome (serialized), false when
// the caller should re-attempt speculatively.
func (t *thread) retryOrSerialize(p *exec.HTMProfile, attempt int, reason stats.AbortReason, body func(exec.Tx) error, rt *txRuntime, res *exec.TxResult) bool {
	switch htm.NextAction(p, attempt, reason) {
	case htm.ActRetry:
		t.clock += p.RetryDelay
		t.st.Retries++
		return false
	case htm.ActBackoff:
		t.clock += htm.BackoffDelay(p, attempt, t.rng)
		t.st.Retries++
		return false
	default:
		*res = t.serialize(p, body, rt.serialSet)
		return true
	}
}

// validate performs commit-time conflict detection: the transaction
// aborts iff a word it read was overwritten (by another thread, or a
// serialized section under a subscribed fallback lock) after its body's
// snapshot point — a hardware read-set invalidation. The body observed a
// consistent snapshot at snapSeq and its writes linearize at the apply
// point, so an untouched read set makes the transaction serializable.
func (t *thread) validate(p *exec.HTMProfile, set *htm.TxSet, snapSeq uint64) bool {
	self := int32(t.gid)
	n := t.node
	if p.LockSubscription && n.lockSeq > snapSeq {
		// A fallback-serialized section committed during our window;
		// subscribing transactions abort wholesale (the RTM/HLE lemming
		// effect).
		return false
	}
	meta := n.meta
	shift := uint(0)
	if p.LineConflicts {
		meta = n.lineMeta
		shift = 3
	}
	for _, addr := range set.Reads() {
		mt := &meta[addr>>shift]
		if mt.wrSeq > snapSeq && mt.wrBy != self {
			return false
		}
	}
	// Write-write: a concurrent commit to a word (or, under line
	// granularity, a line) in our write set is a WAW conflict (duplicate
	// marks racing on one vertex, §6.1); hardware aborts one of the two.
	for _, w := range set.Writes() {
		mt := &meta[w.Addr>>shift]
		if mt.wrSeq > snapSeq && mt.wrBy != self {
			return false
		}
	}
	return true
}

// applyCommit publishes the write buffer and stamps the written words so
// later validations detect the invalidation.
func (t *thread) applyCommit(set *htm.TxSet) {
	n := t.node
	for _, w := range set.Writes() {
		t.m.applySeq++
		n.mem[w.Addr] = w.Val
		mt := &n.meta[w.Addr]
		mt.wrSeq = t.m.applySeq
		mt.wrBy = int32(t.gid)
		lm := &n.lineMeta[w.Addr>>3]
		lm.wrSeq = t.m.applySeq
		lm.wrBy = int32(t.gid)
	}
}

// serialize runs the region under the node's fallback lock: non-speculative,
// always succeeds (unless the body aborts explicitly), and stamps write
// metadata so overlapping speculative transactions detect the conflict —
// the moral equivalent of an RTM fallback lock that every transaction
// subscribes to.
func (t *thread) serialize(p *exec.HTMProfile, body func(exec.Tx) error, set *htm.TxSet) exec.TxResult {
	t.yield()
	n := t.node
	// Serialized sections never validate, so the body must observe a
	// consistent snapshot: after the forward jump to the lock handoff
	// point, yield until no lower-clock thread can still commit before
	// our start (and re-queue if another serializer slipped ahead).
	start := vtime.Max(t.clock, n.lockBusy) + p.SerializeCost
	for {
		t.clock = start
		t.yield()
		if n.lockBusy <= start {
			break
		}
		start = vtime.Max(t.clock, n.lockBusy)
	}
	set.Reset()
	x := &simTx{t: t, set: set, prof: p, start: start, clock: start, serialized: true}

	out, err := runSerializedBody(x, body)

	end := x.clock
	n.lockBusy = end
	t.clock = end
	var res exec.TxResult
	res.Serialized = true
	t.st.TxSerialized++
	switch out {
	case bodyUser, bodyErr:
		t.st.Aborts[stats.AbortExplicit]++
		t.st.TxUserFailed++
		res.UserAbort = out == bodyUser
		res.Err = err
		return res
	default:
		t.applyCommit(set)
		n.lockSeq = t.m.applySeq
		res.Committed = true
		return res
	}
}

// runSerializedBody executes the body with capacity limits disabled (the
// fallback path is non-speculative); explicit aborts still unwind.
func runSerializedBody(x *simTx, body func(exec.Tx) error) (out bodyOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case capacityAbort, conflictAbort:
				// Neither capacity nor conflicts can abort the fallback
				// path (it is non-speculative and runs exclusively);
				// reaching here indicates a modeling bug — surface it.
				err = errSerializedOverflow
				out = bodyErr
			case userAbort:
				out = bodyUser
			default:
				panic(r)
			}
		}
	}()
	if e := body(x); e != nil {
		return bodyErr, e
	}
	return bodyOK, nil
}

var errSerializedOverflow = errors.New("sim: speculative footprint overflow while serialized")
