package aam

import (
	"fmt"
	"sort"

	"aamgo/internal/am"
	"aamgo/internal/exec"
	"aamgo/internal/vtime"
)

// rec is one pending operator invocation.
type rec struct {
	op  int32
	v   int32 // owner-local vertex index
	arg uint64
}

// Engine is the per-thread AAM spawner/executor. Spawn routes operators to
// the owner node: local operators are coarsened into activities of M, and
// remote operators are coalesced into messages of C. Flush forces both
// buffers out; Drain additionally runs the machine to quiescence.
type Engine struct {
	rt  *Runtime
	ctx exec.Context
	cfg Config

	local      []rec
	out        *am.Coalescer
	recScratch []rec
	retScratch []retSlot
	lockAddrs  []int

	// curM is the live coarsening factor: cfg.M unless AutoM retunes it.
	curM int
	tun  *tuner

	// Optimistic-locking scratch (MechOptimistic).
	occ      *occTx
	occVers  []uint64
	occCells []int

	// Flat-combining node state (MechFlatCombining).
	fc *fcNode

	// Lowering-pass observations (Config.LowerSingle), indexed by op id.
	lower []lowerState
	probe *probeTx
}

type retSlot struct {
	ret  uint64
	fail bool
}

// NewEngine creates the engine for this thread and registers it with the
// runtime so that incoming handlers can find it.
func NewEngine(rt *Runtime, ctx exec.Context, cfg Config) *Engine {
	cfg.normalize()
	if rt.execH < 0 {
		panic("aam: Runtime.Handlers was not spliced into the machine config")
	}
	e := &Engine{
		rt:   rt,
		ctx:  ctx,
		cfg:  cfg,
		out:  am.NewCoalescer(ctx, rt.execH, cfg.C),
		curM: cfg.M,
	}
	if cfg.AutoM {
		e.tun = newTuner(1, cfg.AutoMaxM, 0)
	}
	rt.register(e)
	return e
}

// M returns the engine's live coarsening factor (cfg.M, or the current
// auto-tuned value when Config.AutoM is set).
func (e *Engine) M() int { return e.curM }

// Ctx returns the engine's thread context.
func (e *Engine) Ctx() exec.Context { return e.ctx }

// Cfg returns the engine configuration.
func (e *Engine) Cfg() Config { return e.cfg }

// Spawn issues operator op on global vertex v with argument arg. Ownership
// (§3.1) decides the path: the local coarsening buffer or the remote
// coalescer.
func (e *Engine) Spawn(op int, globalV int, arg uint64) {
	dst := e.cfg.Part.Owner(globalV)
	lv := e.cfg.Part.Local(globalV)
	if dst == e.ctx.NodeID() {
		e.local = append(e.local, rec{op: int32(op), v: int32(lv), arg: arg})
		if len(e.local) >= e.curM {
			e.flushLocal()
		}
		return
	}
	e.out.Add(dst, uint64(op), uint64(lv), arg)
}

// flushLocal executes the buffered local operators as one activity. The
// buffer is detached first: OnDone callbacks may spawn recursively.
func (e *Engine) flushLocal() {
	for len(e.local) > 0 {
		batch := e.local
		e.local = nil
		reply := e.runBatch(batch, -1, nil)
		if reply != nil {
			panic("aam: local batch produced a wire reply")
		}
	}
}

// Flush executes pending local activities and sends pending remote
// messages.
func (e *Engine) Flush() {
	e.flushLocal()
	e.out.FlushAll()
}

// Drain flushes and runs the machine to quiescence. All threads must call
// Drain collectively. Handlers and OnDone callbacks may keep spawning; the
// protocol only terminates when no work is buffered or in flight anywhere.
func (e *Engine) Drain() {
	if e.ctx.Nodes() == 1 {
		// Single node: all work is local, a flush plus one barrier
		// quiesces the phase (no messages can be in flight).
		e.flushLocal()
		e.ctx.Barrier()
		return
	}
	st := e.ctx.Stats()
	prevSent, prevHandled := ^uint64(0), ^uint64(0)
	for {
		e.Flush()
		e.ctx.Poll()
		e.Flush()
		sent := e.ctx.AllReduceSum(st.MsgsSent)
		handled := e.ctx.AllReduceSum(st.HandlersRun)
		if sent == handled && sent == prevSent && handled == prevHandled {
			return
		}
		prevSent, prevHandled = sent, handled
	}
}

// runBatch executes one activity of len(recs) operators under the
// configured mechanism. src is the requesting node for remote batches (-1
// for local ones); Fire-and-Return results for remote batches are appended
// to reply (three words per record) and returned.
func (e *Engine) runBatch(recs []rec, src int, reply []uint64) []uint64 {
	if len(recs) == 0 {
		return reply
	}
	rets := e.retScratch
	e.retScratch = nil // detach: OnDone may spawn and re-enter runBatch
	if cap(rets) < len(recs) {
		rets = make([]retSlot, len(recs))
	} else {
		rets = rets[:len(recs)]
	}

	switch e.cfg.Mechanism {
	case MechAtomic:
		for i, r := range recs {
			op := e.rt.ops[r.op]
			if op.BodyAtomic == nil {
				panic(fmt.Sprintf("aam: operator %q has no atomic implementation", op.Name))
			}
			ret, fail := op.BodyAtomic(e.ctx, e, int(r.v), r.arg)
			rets[i] = retSlot{ret: ret, fail: fail}
		}

	case MechHTM:
		if e.cfg.LowerSingle && len(recs) == 1 && e.tryLowered(recs[0], rets) {
			break
		}
		res := e.ctx.Tx(e.cfg.HTM, func(tx exec.Tx) error {
			body := exec.Tx(tx)
			if e.cfg.LowerSingle && len(recs) == 1 {
				body = e.probeWrap(tx)
			}
			for i, r := range recs {
				op := e.rt.ops[r.op]
				ret, fail := op.Body(body, e, int(r.v), r.arg)
				rets[i] = retSlot{ret: ret, fail: fail}
				if fail && op.AbortOnFail {
					body.Abort()
				}
			}
			return nil
		})
		if res.UserAbort {
			// The whole activity rolled back: every operator failed.
			for i := range rets {
				rets[i] = retSlot{fail: true}
			}
		}
		if e.cfg.LowerSingle && len(recs) == 1 && res.Committed {
			e.observeLowered(recs[0])
		}

	case MechLock:
		e.runLocked(recs, rets)

	case MechOptimistic:
		e.runOCC(recs, rets)

	case MechFlatCombining:
		e.runFlatCombined(recs, rets)

	default:
		panic("aam: unknown mechanism")
	}

	e.ctx.Stats().OpsExecuted += uint64(len(recs))
	e.ctx.Compute(e.ctx.Profile().TaskOverhead)
	if e.tun != nil {
		e.curM = e.tun.observe(e.ctx.Now(), len(recs), e.curM)
	}

	// Post-processing: OnDone at the executor, OnReturn locally or via
	// the reply packet.
	for i, r := range recs {
		op := e.rt.ops[r.op]
		gv := e.cfg.Part.Global(e.ctx.NodeID(), int(r.v))
		if op.OnDone != nil {
			op.OnDone(e, gv, rets[i].ret, rets[i].fail)
		}
		if op.Return {
			if src < 0 {
				if op.OnReturn != nil {
					op.OnReturn(e, gv, rets[i].ret, rets[i].fail)
				}
			} else {
				enc := rets[i].ret << 1
				if rets[i].fail {
					enc |= 1
				}
				reply = append(reply, uint64(r.op), uint64(gv), enc)
			}
		}
	}
	e.retScratch = rets[:0]
	return reply
}

// runLocked executes the batch under sorted per-vertex spinlocks. Locks
// cannot roll back partial effects, so AbortOnFail operators are rejected.
type directTx struct {
	ctx exec.Context
}

func (d directTx) Read(addr int) uint64     { return d.ctx.Load(addr) }
func (d directTx) Write(addr int, v uint64) { d.ctx.Store(addr, v) }
func (d directTx) ReadROData(n int) {
	lines := (n + 7) / 8
	d.ctx.Compute(vtime.Time(lines) * d.ctx.Profile().LoadCost)
}
func (d directTx) Abort() {
	panic("aam: Tx.Abort is not supported under the lock mechanism")
}

func (e *Engine) runLocked(recs []rec, rets []retSlot) {
	addrs := e.lockAddrs[:0]
	for _, r := range recs {
		op := e.rt.ops[r.op]
		if op.AbortOnFail {
			panic(fmt.Sprintf("aam: operator %q needs rollback; not expressible with locks", op.Name))
		}
		if op.LockAddrs != nil {
			addrs = append(addrs, op.LockAddrs(e, int(r.v), r.arg)...)
		} else {
			addrs = append(addrs, e.cfg.LockBase+int(r.v))
		}
	}
	sort.Ints(addrs)
	uniq := addrs[:0]
	for i, a := range addrs {
		if i == 0 || a != addrs[i-1] {
			uniq = append(uniq, a)
		}
	}
	for _, a := range uniq {
		e.ctx.Lock(a)
	}
	tx := directTx{ctx: e.ctx}
	for i, r := range recs {
		op := e.rt.ops[r.op]
		ret, fail := op.Body(tx, e, int(r.v), r.arg)
		rets[i] = retSlot{ret: ret, fail: fail}
	}
	for i := len(uniq) - 1; i >= 0; i-- {
		e.ctx.Unlock(uniq[i])
	}
	e.lockAddrs = addrs[:0]
}
