package aam_test

import (
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/sim"
)

// countingWorkload registers an operator that adds arg into word v and
// records batch sizes through OnDone ordering.
type countingWorkload struct {
	rt *aam.Runtime
	op int
}

func newCounting() *countingWorkload {
	w := &countingWorkload{rt: aam.NewRuntime()}
	w.op = w.rt.Register(&aam.Op{
		Name: "count",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, tx.Read(v)+arg)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			ctx.FetchAdd(v, arg)
			return 0, false
		},
	})
	return w
}

func engineMachine(t *testing.T, w *countingWorkload, nodes, threads int, seed int64) exec.Machine {
	t.Helper()
	prof := exec.BGQ()
	return sim.New(exec.Config{
		Nodes: nodes, ThreadsPerNode: threads, MemWords: 1 << 12,
		Profile: &prof, Handlers: w.rt.Handlers(nil), Seed: seed,
	})
}

func TestEngineCoarsensIntoBatches(t *testing.T) {
	w := newCounting()
	m := engineMachine(t, w, 1, 1, 1)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 16, Mechanism: aam.MechHTM, Part: graph.NewPartition(1<<10, 1),
		})
		for i := 0; i < 160; i++ {
			eng.Spawn(w.op, i%100, 1)
		}
		eng.Drain()
	})
	// 160 operators at M=16: exactly 10 transactions.
	if res.Stats.TxStarted != 10 {
		t.Fatalf("transactions = %d, want 10", res.Stats.TxStarted)
	}
	if res.Stats.OpsExecuted != 160 {
		t.Fatalf("operators = %d, want 160", res.Stats.OpsExecuted)
	}
	sum := uint64(0)
	for i := 0; i < 100; i++ {
		sum += m.Mem(0)[i]
	}
	if sum != 160 {
		t.Fatalf("applied sum = %d, want 160", sum)
	}
}

func TestEngineRoutesRemoteSpawns(t *testing.T) {
	w := newCounting()
	m := engineMachine(t, w, 4, 2, 2)
	part := graph.NewPartition(1<<10, 4)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 4, C: 8, Mechanism: aam.MechHTM, Part: part,
		})
		if ctx.GlobalID() == 0 {
			// One increment per global vertex id 0..1023: every node's
			// local words 0..255 must end at 1.
			for v := 0; v < 1<<10; v++ {
				eng.Spawn(w.op, v, 1)
			}
		}
		eng.Drain()
	})
	for n := 0; n < 4; n++ {
		for lv := 0; lv < 256; lv++ {
			if got := m.Mem(n)[lv]; got != 1 {
				t.Fatalf("node %d word %d = %d, want 1", n, lv, got)
			}
		}
	}
	if res.Stats.MsgsSent == 0 {
		t.Fatal("remote spawns sent no messages")
	}
	// C=8 coalescing: far fewer packets than the 768 remote operators.
	if res.Stats.MsgsSent > 200 {
		t.Fatalf("messages = %d; coalescing ineffective", res.Stats.MsgsSent)
	}
}

func TestEngineMechanismsProduceSameState(t *testing.T) {
	for _, mech := range []aam.Mechanism{aam.MechHTM, aam.MechAtomic, aam.MechLock} {
		w := newCounting()
		m := engineMachine(t, w, 1, 4, 3)
		m.Run(func(ctx exec.Context) {
			eng := aam.NewEngine(w.rt, ctx, aam.Config{
				M: 8, Mechanism: mech, Part: graph.NewPartition(1<<10, 1),
				LockBase: 1 << 11,
			})
			for i := 0; i < 100; i++ {
				eng.Spawn(w.op, (ctx.GlobalID()*100+i)%37, 1)
			}
			eng.Drain()
		})
		sum := uint64(0)
		for i := 0; i < 37; i++ {
			sum += m.Mem(0)[i]
		}
		if sum != 400 {
			t.Fatalf("%v: applied sum = %d, want 400", mech, sum)
		}
	}
}

// TestFireAndReturnReachesSpawner exercises the FR path: the operator
// returns v+arg and the spawner-side failure handler accumulates results —
// across nodes, so replies travel the wire.
func TestFireAndReturnReachesSpawner(t *testing.T) {
	rt := aam.NewRuntime()
	var got []uint64
	op := rt.Register(&aam.Op{
		Name:   "echo",
		Return: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			return uint64(v) + arg, arg%2 == 1 // odd args fail (May-Fail)
		},
		OnReturn: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			if e.Ctx().GlobalID() != 0 {
				t.Errorf("OnReturn ran on thread %d, want spawner", e.Ctx().GlobalID())
			}
			if !fail {
				got = append(got, ret)
			}
		},
	})
	prof := exec.BGQ()
	m := sim.New(exec.Config{
		Nodes: 2, ThreadsPerNode: 1, MemWords: 1 << 10,
		Profile: &prof, Handlers: rt.Handlers(nil), Seed: 4,
	})
	part := graph.NewPartition(512, 2)
	m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(rt, ctx, aam.Config{M: 4, C: 4, Mechanism: aam.MechHTM, Part: part})
		if ctx.GlobalID() == 0 {
			for i := 0; i < 8; i++ {
				eng.Spawn(op, 256+i, uint64(i)) // all remote (node 1)
			}
		}
		eng.Drain()
	})
	// Even args 0,2,4,6 succeed: rets are local(v)+arg = i+arg = 2i.
	if len(got) != 4 {
		t.Fatalf("successful returns = %d, want 4 (%v)", len(got), got)
	}
	for i, r := range got {
		if r != uint64(4*i) {
			t.Fatalf("ret[%d] = %d, want %d", i, r, 4*i)
		}
	}
}

func TestAbortOnFailRollsBackWholeActivity(t *testing.T) {
	rt := aam.NewRuntime()
	op := rt.Register(&aam.Op{
		Name:        "all-or-nothing",
		AbortOnFail: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, arg)
			return 0, arg == 13 // the poisoned operator fails
		},
	})
	prof := exec.BGQ()
	m := sim.New(exec.Config{
		Nodes: 1, ThreadsPerNode: 1, MemWords: 256,
		Profile: &prof, Handlers: rt.Handlers(nil), Seed: 5,
	})
	m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(rt, ctx, aam.Config{M: 4, Mechanism: aam.MechHTM, Part: graph.NewPartition(256, 1)})
		// One batch of four: the third is poisoned, so none may commit.
		eng.Spawn(op, 0, 7)
		eng.Spawn(op, 1, 8)
		eng.Spawn(op, 2, 13)
		eng.Spawn(op, 3, 9)
		eng.Drain()
	})
	for i := 0; i < 4; i++ {
		if got := m.Mem(0)[i]; got != 0 {
			t.Fatalf("word %d = %d after rolled-back activity", i, got)
		}
	}
}

func TestAutoMTunerMovesM(t *testing.T) {
	w := newCounting()
	m := engineMachine(t, w, 1, 1, 6)
	var first, last int
	m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 2, AutoM: true, Mechanism: aam.MechHTM,
			Part: graph.NewPartition(1<<10, 1),
		})
		first = eng.M()
		for i := 0; i < 8000; i++ {
			eng.Spawn(w.op, i%1000, 1)
		}
		eng.Drain()
		last = eng.M()
	})
	if first != 2 {
		t.Fatalf("initial M = %d", first)
	}
	if last == 2 {
		t.Fatal("AutoM never moved M despite a clearly-too-fine start")
	}
	if last < 1 || last > 320 {
		t.Fatalf("tuned M = %d out of bounds", last)
	}
}
