package aam_test

import (
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/sim"
)

// Tests for the §7 lowering pass: single-operator activities whose
// transactional footprint pattern-matches an atomic are rerouted to
// BodyAtomic after a few observations.

// lowerMachine builds a 1-node machine for lowering tests.
func lowerMachine(rt *aam.Runtime, threads int, seed int64) exec.Machine {
	prof := exec.HaswellC()
	return sim.New(exec.Config{
		Nodes: 1, ThreadsPerNode: threads, MemWords: 1 << 12,
		Profile: &prof, Handlers: rt.Handlers(nil), Seed: seed,
	})
}

func TestLowerSingleWordOperator(t *testing.T) {
	// The counting operator reads and writes exactly word v: the atomic
	// pattern. With M=1 and LowerSingle, all but the first few activities
	// must run as atomics, not transactions.
	w := newCounting()
	m := lowerMachine(w.rt, 1, 21)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 1, Mechanism: aam.MechHTM, LowerSingle: true,
			Part: graph.NewPartition(1<<10, 1),
		})
		for i := 0; i < 100; i++ {
			eng.Spawn(w.op, i%50, 1)
		}
		eng.Drain()
	})
	if res.Stats.LoweredOps != 97 {
		t.Fatalf("lowered = %d, want 97 (100 minus 3 observations)", res.Stats.LoweredOps)
	}
	if res.Stats.TxStarted != 3 {
		t.Fatalf("transactions = %d, want only the 3 observation runs", res.Stats.TxStarted)
	}
	sum := uint64(0)
	for i := 0; i < 50; i++ {
		sum += m.Mem(0)[i]
	}
	if sum != 100 {
		t.Fatalf("applied sum = %d, want 100", sum)
	}
}

func TestLowerNeverFiresForMultiWordOperator(t *testing.T) {
	// An operator touching two words must be disqualified even though it
	// has a BodyAtomic.
	rt := aam.NewRuntime()
	op := rt.Register(&aam.Op{
		Name: "two-words",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, tx.Read(v)+arg)
			tx.Write(v+512, arg)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			ctx.FetchAdd(v, arg)
			ctx.Store(v+512, arg)
			return 0, false
		},
	})
	m := lowerMachine(rt, 1, 22)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(rt, ctx, aam.Config{
			M: 1, Mechanism: aam.MechHTM, LowerSingle: true,
			Part: graph.NewPartition(512, 1),
		})
		for i := 0; i < 50; i++ {
			eng.Spawn(op, i%10, 1)
		}
		eng.Drain()
	})
	if res.Stats.LoweredOps != 0 {
		t.Fatalf("lowered = %d, want 0 for a two-word footprint", res.Stats.LoweredOps)
	}
	if res.Stats.TxStarted != 50 {
		t.Fatalf("transactions = %d, want 50", res.Stats.TxStarted)
	}
}

func TestLowerNeverFiresWithoutBodyAtomic(t *testing.T) {
	rt := aam.NewRuntime()
	op := rt.Register(&aam.Op{
		Name: "tx-only",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, tx.Read(v)+arg)
			return 0, false
		},
	})
	m := lowerMachine(rt, 1, 23)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(rt, ctx, aam.Config{
			M: 1, Mechanism: aam.MechHTM, LowerSingle: true,
			Part: graph.NewPartition(512, 1),
		})
		for i := 0; i < 20; i++ {
			eng.Spawn(op, i, 1)
		}
		eng.Drain()
	})
	if res.Stats.LoweredOps != 0 {
		t.Fatalf("lowered = %d, want 0 without BodyAtomic", res.Stats.LoweredOps)
	}
}

func TestLowerSkipsCoarseActivities(t *testing.T) {
	// With M=8 the engine must keep using transactions: coarsening is the
	// case transactions win, and the pass only matches single-vertex
	// activities (§7).
	w := newCounting()
	m := lowerMachine(w.rt, 1, 24)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 8, Mechanism: aam.MechHTM, LowerSingle: true,
			Part: graph.NewPartition(1<<10, 1),
		})
		for i := 0; i < 80; i++ {
			eng.Spawn(w.op, i%40, 1)
		}
		eng.Drain()
	})
	if res.Stats.LoweredOps != 0 {
		t.Fatalf("lowered = %d, want 0 at M=8", res.Stats.LoweredOps)
	}
	if res.Stats.TxStarted != 10 {
		t.Fatalf("transactions = %d, want 10", res.Stats.TxStarted)
	}
}

// TestLowerProbeForwardsROReadsAndAborts: the footprint recorder passes
// read-only data reads and explicit aborts through to the live
// transaction. A read of immutable data does not disqualify an otherwise
// single-word operator, and an AbortOnFail operator's abort still rolls
// its activity back.
func TestLowerProbeForwardsROReadsAndAborts(t *testing.T) {
	rt := aam.NewRuntime()
	ro := rt.Register(&aam.Op{
		Name: "ro-then-inc",
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.ReadROData(16)
			tx.Write(v, tx.Read(v)+arg)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			ctx.FetchAdd(v, arg)
			return 0, false
		},
	})
	veto := rt.Register(&aam.Op{
		Name:        "veto",
		AbortOnFail: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, arg)
			return 0, true
		},
	})
	m := lowerMachine(rt, 1, 26)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(rt, ctx, aam.Config{
			M: 1, Mechanism: aam.MechHTM, LowerSingle: true,
			Part: graph.NewPartition(512, 1),
		})
		for i := 0; i < 10; i++ {
			eng.Spawn(ro, i, 1)
		}
		for i := 0; i < 5; i++ {
			eng.Spawn(veto, 100+i, 7)
		}
		eng.Drain()
	})
	if res.Stats.LoweredOps != 7 {
		t.Fatalf("lowered = %d, want 7 (10 minus 3 observations)", res.Stats.LoweredOps)
	}
	if res.Stats.TxUserFailed != 5 {
		t.Fatalf("user-failed transactions = %d, want 5", res.Stats.TxUserFailed)
	}
	for i := 0; i < 10; i++ {
		if got := m.Mem(0)[i]; got != 1 {
			t.Fatalf("word %d = %d, want 1", i, got)
		}
	}
	for i := 100; i < 105; i++ {
		if got := m.Mem(0)[i]; got != 0 {
			t.Fatalf("aborted write visible at word %d: %d", i, got)
		}
	}
}

func TestLowerMatchesUnloweredResults(t *testing.T) {
	// Lowered and unlowered runs of a contended workload must agree.
	run := func(lower bool) []uint64 {
		w := newCounting()
		m := lowerMachine(w.rt, 4, 25)
		m.Run(func(ctx exec.Context) {
			eng := aam.NewEngine(w.rt, ctx, aam.Config{
				M: 1, Mechanism: aam.MechHTM, LowerSingle: lower,
				Part: graph.NewPartition(1<<10, 1),
			})
			for i := 0; i < 100; i++ {
				eng.Spawn(w.op, (ctx.GlobalID()*31+i)%23, 1)
			}
			eng.Drain()
		})
		out := make([]uint64, 23)
		for i := range out {
			out[i] = m.Mem(0)[i]
		}
		return out
	}
	plain, lowered := run(false), run(true)
	for i := range plain {
		if plain[i] != lowered[i] {
			t.Fatalf("word %d: unlowered %d != lowered %d", i, plain[i], lowered[i])
		}
	}
}
