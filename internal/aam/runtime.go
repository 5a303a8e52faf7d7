package aam

import (
	"fmt"
	"sync"

	"aamgo/internal/exec"
)

// Runtime owns the operator registry and the active-message handlers. One
// Runtime serves one machine run: register operators, splice the handlers
// into the machine config with Handlers, then create one Engine per thread
// inside the run body.
//
// Wire format. An exec packet carries len/3 operator records, each three
// words: [opID, localVertex, arg]. A reply packet carries len/3 records
// [opID, globalVertex, ret<<1|fail].
type Runtime struct {
	ops    []*Op
	execH  int
	replyH int

	mu      sync.Mutex
	engines map[int]*Engine

	fcState // per-node flat-combining structures (MechFlatCombining)
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{execH: -1, replyH: -1, engines: make(map[int]*Engine)}
}

// Register adds an operator and returns its id.
func (rt *Runtime) Register(op *Op) int {
	if op.Body == nil && op.BodyAtomic == nil {
		panic("aam: operator needs Body or BodyAtomic")
	}
	rt.ops = append(rt.ops, op)
	return len(rt.ops) - 1
}

// Handlers appends the runtime's two handlers to existing and returns the
// extended slice for exec.Config.Handlers.
func (rt *Runtime) Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc {
	rt.execH = len(existing)
	rt.replyH = rt.execH + 1
	return append(existing,
		func(ctx exec.Context, src int, payload []uint64) { rt.handleExec(ctx, src, payload) },
		func(ctx exec.Context, src int, payload []uint64) { rt.handleReply(ctx, src, payload) },
	)
}

func (rt *Runtime) register(e *Engine) {
	rt.mu.Lock()
	rt.engines[e.ctx.GlobalID()] = e
	rt.mu.Unlock()
}

func (rt *Runtime) engineFor(ctx exec.Context) *Engine {
	rt.mu.Lock()
	e := rt.engines[ctx.GlobalID()]
	rt.mu.Unlock()
	if e == nil {
		panic(fmt.Sprintf("aam: no engine on thread %d (create one with NewEngine before polling)", ctx.GlobalID()))
	}
	return e
}

// handleExec decodes a coalesced packet and executes its records as
// activities of at most M operators each, sending one coalesced reply for
// Fire-and-Return records.
func (rt *Runtime) handleExec(ctx exec.Context, src int, payload []uint64) {
	if len(payload)%3 != 0 {
		panic(fmt.Sprintf("aam: malformed exec packet of %d words", len(payload)))
	}
	if src != ctx.NodeID() {
		// Software AM dispatch: matching, handler lookup, unpacking —
		// the per-packet overhead that coalescing amortizes (§5.6).
		ctx.Compute(ctx.Profile().AMStackCost)
	}
	e := rt.engineFor(ctx)
	n := len(payload) / 3
	recs := e.recScratch[:0]
	for i := 0; i < n; i++ {
		recs = append(recs, rec{
			op:  int32(payload[3*i]),
			v:   int32(payload[3*i+1]),
			arg: payload[3*i+2],
		})
	}
	var reply []uint64
	m := e.curM
	for lo := 0; lo < len(recs); lo += m {
		hi := lo + m
		if hi > len(recs) {
			hi = len(recs)
		}
		reply = e.runBatch(recs[lo:hi], src, reply)
	}
	e.recScratch = recs[:0]
	if len(reply) > 0 {
		ctx.Send(src, rt.replyH, reply)
		ctx.Stats().RepliesSent += uint64(len(reply) / 3)
	}
}

// handleReply dispatches Fire-and-Return results to their failure handlers.
func (rt *Runtime) handleReply(ctx exec.Context, src int, payload []uint64) {
	if len(payload)%3 != 0 {
		panic(fmt.Sprintf("aam: malformed reply packet of %d words", len(payload)))
	}
	if src != ctx.NodeID() {
		ctx.Compute(ctx.Profile().AMStackCost)
	}
	e := rt.engineFor(ctx)
	for i := 0; i < len(payload); i += 3 {
		op := rt.ops[payload[i]]
		v := int(payload[i+1])
		ret := payload[i+2] >> 1
		fail := payload[i+2]&1 != 0
		if op.OnReturn != nil {
			op.OnReturn(e, v, ret, fail)
		}
	}
}
