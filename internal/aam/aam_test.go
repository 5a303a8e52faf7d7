package aam

import (
	"fmt"
	"strings"
	"testing"

	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/sim"
)

// testSetup wires a Runtime into a sim machine with the given topology.
func testSetup(nodes, threads int, rt *Runtime, extra ...exec.HandlerFunc) *sim.Machine {
	prof := exec.HaswellC()
	cfg := exec.Config{
		Nodes:          nodes,
		ThreadsPerNode: threads,
		MemWords:       1 << 14,
		Profile:        &prof,
		Seed:           11,
		Handlers:       rt.Handlers(extra),
	}
	return sim.New(cfg)
}

// incOp returns an operator that transactionally increments word v at
// the given base.
func incOp(base int) *Op {
	return &Op{
		Name: "inc",
		Body: func(tx exec.Tx, e *Engine, v int, arg uint64) (uint64, bool) {
			addr := base + v
			tx.Write(addr, tx.Read(addr)+arg)
			return 0, false
		},
		BodyAtomic: func(ctx exec.Context, e *Engine, v int, arg uint64) (uint64, bool) {
			ctx.FetchAdd(base+v, arg)
			return 0, false
		},
	}
}

// TestLockTxAbortPanics: the lock mechanism applies writes in place and
// cannot roll them back, so a body that calls Tx.Abort under it is a
// programming error, reported by a panic.
func TestLockTxAbortPanics(t *testing.T) {
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "not supported under the lock mechanism") {
			t.Fatalf("recovered %v, want the lock mechanism's Abort panic", r)
		}
	}()
	directTx{}.Abort()
}

func TestLocalSpawnCoarsening(t *testing.T) {
	const V, M = 64, 8
	rt := NewRuntime()
	inc := rt.Register(incOp(0))
	m := testSetup(1, 1, rt)
	res := m.Run(func(ctx exec.Context) {
		e := NewEngine(rt, ctx, Config{M: M, Mechanism: MechHTM, Part: graph.NewPartition(V, 1)})
		for v := 0; v < V; v++ {
			e.Spawn(inc, v, 1)
		}
		e.Flush()
	})
	for v := 0; v < V; v++ {
		if m.Mem(0)[v] != 1 {
			t.Fatalf("vertex %d not incremented", v)
		}
	}
	// 64 ops at M=8 -> exactly 8 transactions.
	if res.Stats.TxStarted != V/M {
		t.Fatalf("TxStarted = %d, want %d", res.Stats.TxStarted, V/M)
	}
	if res.Stats.OpsExecuted != V {
		t.Fatalf("OpsExecuted = %d, want %d", res.Stats.OpsExecuted, V)
	}
}

func TestCoarseningAmortizesTxOverhead(t *testing.T) {
	// The headline effect: more ops per transaction => less virtual time.
	elapsed := func(M int) int64 {
		rt := NewRuntime()
		inc := rt.Register(incOp(0))
		m := testSetup(1, 1, rt)
		res := m.Run(func(ctx exec.Context) {
			e := NewEngine(rt, ctx, Config{M: M, Mechanism: MechHTM, Part: graph.NewPartition(4096, 1)})
			for v := 0; v < 4096; v++ {
				e.Spawn(inc, v, 1)
			}
			e.Flush()
		})
		return int64(res.Elapsed)
	}
	if e32, e1 := elapsed(32), elapsed(1); e32 >= e1 {
		t.Fatalf("M=32 (%d) should beat M=1 (%d)", e32, e1)
	}
}

func TestRemoteSpawnAndCoalescing(t *testing.T) {
	const V, C = 128, 16
	for _, mech := range []Mechanism{MechHTM, MechAtomic} {
		rt := NewRuntime()
		inc := rt.Register(incOp(0))
		m := testSetup(2, 1, rt)
		part := graph.NewPartition(V, 2)
		res := m.Run(func(ctx exec.Context) {
			e := NewEngine(rt, ctx, Config{M: 4, C: C, Mechanism: mech, Part: part})
			if ctx.NodeID() == 0 {
				// Node 0 increments every vertex, half of them remote.
				for v := 0; v < V; v++ {
					e.Spawn(inc, v, 1)
				}
			}
			e.Drain()
		})
		for v := 0; v < V; v++ {
			owner := part.Owner(v)
			lv := part.Local(v)
			if m.Mem(owner)[lv] != 1 {
				t.Fatalf("%v: vertex %d (node %d local %d) = %d, want 1",
					mech, v, owner, lv, m.Mem(owner)[lv])
			}
		}
		// 64 remote ops at C=16 -> 4 packets.
		if res.Stats.MsgsSent < 4 || res.Stats.MsgsSent > 6 {
			t.Fatalf("%v: MsgsSent = %d, want ~4", mech, res.Stats.MsgsSent)
		}
	}
}

func TestFireAndReturn(t *testing.T) {
	const V = 32
	rt := NewRuntime()
	returned := make([]uint64, V)
	failCount := 0
	op := rt.Register(&Op{
		Name:   "probe",
		Return: true,
		Body: func(tx exec.Tx, e *Engine, v int, arg uint64) (uint64, bool) {
			// Return v*10; odd vertices report failure.
			return uint64(v) * 10, v%2 == 1
		},
		OnReturn: func(e *Engine, vGlobal int, ret uint64, fail bool) {
			returned[vGlobal] = ret
			if fail {
				failCount++
			}
		},
	})
	m := testSetup(2, 1, rt)
	part := graph.NewPartition(V, 2)
	m.Run(func(ctx exec.Context) {
		e := NewEngine(rt, ctx, Config{M: 4, C: 8, Mechanism: MechHTM, Part: part})
		if ctx.NodeID() == 0 {
			for v := 0; v < V; v++ {
				e.Spawn(op, v, 0)
			}
		}
		e.Drain()
	})
	for v := 0; v < V; v++ {
		if returned[v] != uint64(part.Local(v))*10 {
			t.Fatalf("vertex %d returned %d, want %d", v, returned[v], part.Local(v)*10)
		}
	}
	if failCount != V/2 {
		t.Fatalf("failures = %d, want %d", failCount, V/2)
	}
}

func TestAbortOnFailRollsBackActivity(t *testing.T) {
	rt := NewRuntime()
	op := rt.Register(&Op{
		Name:        "guarded",
		AbortOnFail: true,
		Return:      true,
		Body: func(tx exec.Tx, e *Engine, v int, arg uint64) (uint64, bool) {
			tx.Write(v, 77)
			return 0, arg == 1 // fail when asked
		},
		OnReturn: func(e *Engine, vGlobal int, ret uint64, fail bool) {},
	})
	m := testSetup(1, 1, rt)
	m.Run(func(ctx exec.Context) {
		e := NewEngine(rt, ctx, Config{M: 2, Mechanism: MechHTM, Part: graph.NewPartition(8, 1)})
		e.Spawn(op, 0, 0) // would succeed...
		e.Spawn(op, 1, 1) // ...but batchmate fails: whole activity rolls back
		e.Flush()
	})
	if m.Mem(0)[0] != 0 || m.Mem(0)[1] != 0 {
		t.Fatalf("rolled-back writes visible: %d %d", m.Mem(0)[0], m.Mem(0)[1])
	}
}

func TestMechanismsAgree(t *testing.T) {
	// HTM, atomics and locks must produce identical final state.
	final := func(mech Mechanism) []uint64 {
		const V = 100
		rt := NewRuntime()
		inc := rt.Register(incOp(0))
		m := testSetup(1, 4, rt)
		m.Run(func(ctx exec.Context) {
			e := NewEngine(rt, ctx, Config{
				M: 4, Mechanism: mech,
				Part:     graph.NewPartition(V, 1),
				LockBase: 1 << 10,
			})
			for i := 0; i < 50; i++ {
				e.Spawn(inc, (ctx.GlobalID()*50+i)%V, 1)
			}
			e.Flush()
			ctx.Barrier()
		})
		out := make([]uint64, V)
		copy(out, m.Mem(0)[:V])
		return out
	}
	want := final(MechHTM)
	for _, mech := range []Mechanism{MechAtomic, MechLock} {
		got := final(mech)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v disagrees with HTM at %d: %d vs %d", mech, v, got[v], want[v])
			}
		}
	}
}

func TestDrainWithChainedSpawns(t *testing.T) {
	// OnDone chains another spawn until a depth is exhausted; Drain must
	// run the machine to full quiescence across nodes.
	const V = 16
	rt := NewRuntime()
	var chain int
	chain = rt.Register(&Op{
		Name: "chain",
		Body: func(tx exec.Tx, e *Engine, v int, arg uint64) (uint64, bool) {
			addr := v
			tx.Write(addr, tx.Read(addr)+1)
			return arg, false
		},
		OnDone: func(e *Engine, vGlobal int, ret uint64, fail bool) {
			if ret > 0 {
				// Bounce to the partner node.
				next := (vGlobal + V/2) % V
				e.Spawn(chain, next, ret-1)
			}
		},
	})
	m := testSetup(2, 2, rt)
	part := graph.NewPartition(V, 2)
	m.Run(func(ctx exec.Context) {
		e := NewEngine(rt, ctx, Config{M: 1, C: 1, Mechanism: MechHTM, Part: part})
		if ctx.GlobalID() == 0 {
			for v := 0; v < V/2; v++ {
				e.Spawn(chain, v, 5) // each chain performs 6 increments
			}
		}
		e.Drain()
	})
	var total uint64
	for node := 0; node < 2; node++ {
		for lv := 0; lv < part.MaxLocal(); lv++ {
			total += m.Mem(node)[lv]
		}
	}
	if total != uint64(V/2*6) {
		t.Fatalf("chained increments = %d, want %d", total, V/2*6)
	}
}
