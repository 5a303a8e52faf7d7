package aam_test

import (
	"testing"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/sim"
)

// The extension mechanisms of the paper's conclusion (optimistic locking,
// flat combining) and the §7 lowering pass must preserve the semantics of
// the reference mechanisms. These tests run the same contended workloads
// under every mechanism and compare final memory states.

func TestOCCProducesSameStateAsHTM(t *testing.T) {
	for _, threads := range []int{1, 4, 8} {
		w := newCounting()
		m := engineMachine(t, w, 1, threads, 11)
		m.Run(func(ctx exec.Context) {
			eng := aam.NewEngine(w.rt, ctx, aam.Config{
				M: 8, Mechanism: aam.MechOptimistic,
				Part:     graph.NewPartition(1<<10, 1),
				LockBase: 1 << 11,
			})
			for i := 0; i < 100; i++ {
				eng.Spawn(w.op, (ctx.GlobalID()*13+i)%37, 1)
			}
			eng.Drain()
		})
		sum := uint64(0)
		for i := 0; i < 37; i++ {
			sum += m.Mem(0)[i]
		}
		if want := uint64(100 * threads); sum != want {
			t.Fatalf("T=%d: applied sum = %d, want %d", threads, sum, want)
		}
	}
}

// TestOCCRemoteBatchesUnderContention sends every operator to the other
// node onto a few hot words: an activity's validation then fails often,
// and its backoff polls and runs further packets on the same engine
// before the first one is done. Each operator must still be applied
// exactly once.
func TestOCCRemoteBatchesUnderContention(t *testing.T) {
	w := newCounting()
	m := engineMachine(t, w, 2, 4, 13)
	part := graph.NewPartition(1<<10, 2)
	m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 2, C: 2, Mechanism: aam.MechOptimistic,
			Part: part, LockBase: 1 << 11,
		})
		other := 1 - ctx.NodeID()
		for i := 0; i < 200; i++ {
			eng.Spawn(w.op, other*512+i%5, 1)
		}
		eng.Drain()
	})
	for node := range 2 {
		sum := uint64(0)
		for i := 0; i < 5; i++ {
			sum += m.Mem(node)[i]
		}
		if sum != 800 {
			t.Fatalf("node %d: applied sum = %d, want 800", node, sum)
		}
	}
}

func TestOCCCountsValidationConflicts(t *testing.T) {
	// All threads hammer a single vertex: validation failures must be
	// visible as conflict aborts with retries.
	w := newCounting()
	m := engineMachine(t, w, 1, 8, 12)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 1, Mechanism: aam.MechOptimistic,
			Part:     graph.NewPartition(1<<10, 1),
			LockBase: 1 << 11,
		})
		for i := 0; i < 200; i++ {
			eng.Spawn(w.op, 0, 1)
		}
		eng.Drain()
	})
	if got := m.Mem(0)[0]; got != 1600 {
		t.Fatalf("contended counter = %d, want 1600", got)
	}
	if res.Stats.TxCommitted != 1600 {
		t.Fatalf("commits = %d, want 1600", res.Stats.TxCommitted)
	}
	if res.Stats.Retries == 0 {
		t.Fatal("8 threads on one vertex produced no OCC validation retries")
	}
}

func TestOCCSupportsAbortOnFail(t *testing.T) {
	// Unlike locks and flat combining, OCC can roll back a whole activity:
	// the buffered writes are simply discarded.
	rt := aam.NewRuntime()
	op := rt.Register(&aam.Op{
		Name:        "occ-all-or-nothing",
		AbortOnFail: true,
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, arg)
			return 0, arg == 13
		},
	})
	prof := exec.BGQ()
	m := sim.New(exec.Config{
		Nodes: 1, ThreadsPerNode: 1, MemWords: 1 << 10,
		Profile: &prof, Handlers: rt.Handlers(nil), Seed: 13,
	})
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(rt, ctx, aam.Config{
			M: 4, Mechanism: aam.MechOptimistic,
			Part: graph.NewPartition(256, 1), LockBase: 512,
		})
		eng.Spawn(op, 0, 7)
		eng.Spawn(op, 1, 8)
		eng.Spawn(op, 2, 13) // poisons the whole batch
		eng.Spawn(op, 3, 9)
		eng.Drain()
	})
	for i := 0; i < 4; i++ {
		if got := m.Mem(0)[i]; got != 0 {
			t.Fatalf("word %d = %d after rolled-back OCC activity", i, got)
		}
	}
	if res.Stats.TxUserFailed != 1 {
		t.Fatalf("user-failed activities = %d, want 1", res.Stats.TxUserFailed)
	}
}

func TestOCCVersionsEndEven(t *testing.T) {
	// After quiescence every version cell must be even (unlocked).
	w := newCounting()
	m := engineMachine(t, w, 1, 4, 14)
	m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 4, Mechanism: aam.MechOptimistic,
			Part:     graph.NewPartition(1<<10, 1),
			LockBase: 1 << 11,
		})
		for i := 0; i < 64; i++ {
			eng.Spawn(w.op, i%16, 1)
		}
		eng.Drain()
	})
	for i := 0; i < 16; i++ {
		if v := m.Mem(0)[(1<<11)+i]; v&1 != 0 {
			t.Fatalf("version cell %d = %d still locked after quiescence", i, v)
		}
	}
}

func TestFlatCombiningProducesSameState(t *testing.T) {
	for _, threads := range []int{1, 4, 8} {
		w := newCounting()
		m := engineMachine(t, w, 1, threads, 15)
		m.Run(func(ctx exec.Context) {
			eng := aam.NewEngine(w.rt, ctx, aam.Config{
				M: 8, Mechanism: aam.MechFlatCombining,
				Part:     graph.NewPartition(1<<10, 1),
				LockBase: 1 << 11,
			})
			for i := 0; i < 100; i++ {
				eng.Spawn(w.op, (ctx.GlobalID()*7+i)%37, 1)
			}
			eng.Drain()
		})
		sum := uint64(0)
		for i := 0; i < 37; i++ {
			sum += m.Mem(0)[i]
		}
		if want := uint64(100 * threads); sum != want {
			t.Fatalf("T=%d: applied sum = %d, want %d", threads, sum, want)
		}
	}
}

func TestFlatCombiningCombines(t *testing.T) {
	// With many threads publishing concurrently, some batches must be
	// executed by a combiner on another thread's behalf.
	w := newCounting()
	m := engineMachine(t, w, 1, 8, 16)
	res := m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(w.rt, ctx, aam.Config{
			M: 2, Mechanism: aam.MechFlatCombining,
			Part:     graph.NewPartition(1<<10, 1),
			LockBase: 1 << 11,
		})
		for i := 0; i < 400; i++ {
			eng.Spawn(w.op, i%64, 1)
		}
		eng.Drain()
	})
	if got := res.Stats.OpsExecuted; got != 3200 {
		t.Fatalf("operators = %d, want 3200", got)
	}
	if res.Stats.FlatCombined == 0 {
		t.Fatal("no operator was flat-combined despite 8 contending threads")
	}
	sum := uint64(0)
	for i := 0; i < 64; i++ {
		sum += m.Mem(0)[i]
	}
	if sum != 3200 {
		t.Fatalf("applied sum = %d, want 3200", sum)
	}
}

func TestMechanismStringNames(t *testing.T) {
	names := map[aam.Mechanism]string{
		aam.MechHTM:           "htm",
		aam.MechAtomic:        "atomic",
		aam.MechLock:          "lock",
		aam.MechOptimistic:    "occ",
		aam.MechFlatCombining: "flatcomb",
	}
	for mech, want := range names {
		if got := mech.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(mech), got, want)
		}
	}
}

func TestAllMechanismsAgreeUnderContention(t *testing.T) {
	// The five mechanisms must converge to identical final counters on an
	// identical contended workload.
	mechs := []aam.Mechanism{
		aam.MechHTM, aam.MechAtomic, aam.MechLock,
		aam.MechOptimistic, aam.MechFlatCombining,
	}
	var ref []uint64
	for _, mech := range mechs {
		w := newCounting()
		m := engineMachine(t, w, 1, 6, 18)
		m.Run(func(ctx exec.Context) {
			eng := aam.NewEngine(w.rt, ctx, aam.Config{
				M: 4, Mechanism: mech,
				Part:     graph.NewPartition(1<<10, 1),
				LockBase: 1 << 11,
			})
			for i := 0; i < 150; i++ {
				eng.Spawn(w.op, (ctx.GlobalID()+i*i)%29, uint64(1+i%3))
			}
			eng.Drain()
		})
		state := make([]uint64, 29)
		for i := range state {
			state[i] = m.Mem(0)[i]
		}
		if ref == nil {
			ref = state
			continue
		}
		for i := range state {
			if state[i] != ref[i] {
				t.Fatalf("%v: word %d = %d, HTM reference has %d", mech, i, state[i], ref[i])
			}
		}
	}
}

func TestMechanismByName(t *testing.T) {
	for _, name := range []string{"htm", "atomic", "lock", "occ", "flatcomb"} {
		if m, err := aam.MechanismByName(name); err != nil || m.String() != name {
			t.Fatalf("MechanismByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := aam.MechanismByName("tsx"); err == nil {
		t.Fatal("unknown mechanism resolved")
	}
}
