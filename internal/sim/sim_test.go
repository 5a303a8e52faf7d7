package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"aamgo/internal/exec"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

func newTestMachine(nodes, threads int, prof exec.MachineProfile) *Machine {
	return New(exec.Config{
		Nodes:          nodes,
		ThreadsPerNode: threads,
		MemWords:       1 << 13,
		Profile:        &prof,
		Seed:           42,
	})
}

func TestFetchAddSumsAcrossThreads(t *testing.T) {
	const T = 8
	const per = 100
	m := newTestMachine(1, T, exec.HaswellC())
	res := m.Run(func(ctx exec.Context) {
		for i := 0; i < per; i++ {
			ctx.FetchAdd(0, 1)
		}
	})
	if got := m.Mem(0)[0]; got != T*per {
		t.Fatalf("FetchAdd sum = %d, want %d", got, T*per)
	}
	if res.Stats.AtomicOps != T*per {
		t.Fatalf("AtomicOps = %d, want %d", res.Stats.AtomicOps, T*per)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed time not positive")
	}
}

func TestCASExactlyOneWinner(t *testing.T) {
	const T = 8
	m := newTestMachine(1, T, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		if ctx.CAS(0, 0, uint64(ctx.GlobalID())+1) {
			ctx.FetchAdd(1, 1)
		}
	})
	if winners := m.Mem(0)[1]; winners != 1 {
		t.Fatalf("CAS winners = %d, want 1", winners)
	}
	if v := m.Mem(0)[0]; v == 0 || v > T {
		t.Fatalf("CAS result = %d, want in [1,%d]", v, T)
	}
}

func TestContentionGrowsWithThreads(t *testing.T) {
	// T threads hammering one word must take longer (in virtual time)
	// than a single thread doing the same per-thread count, because
	// atomics serialize on the line.
	elapsed := func(T int) vtime.Time {
		m := newTestMachine(1, T, exec.HaswellC())
		return m.Run(func(ctx exec.Context) {
			for i := 0; i < 50; i++ {
				ctx.FetchAdd(0, 1)
			}
		}).Elapsed
	}
	e1, e8 := elapsed(1), elapsed(8)
	if e8 < 4*e1 {
		t.Fatalf("contended latency %v not >= 4x uncontended %v", e8, e1)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (vtime.Time, uint64) {
		m := newTestMachine(2, 4, exec.BGQ())
		res := m.Run(func(ctx exec.Context) {
			for i := 0; i < 20; i++ {
				ctx.Tx(nil, func(tx exec.Tx) error {
					v := tx.Read(i % 5)
					tx.Write(i%5, v+1)
					return nil
				})
			}
			ctx.Barrier()
		})
		return res.Elapsed, res.Stats.TotalAborts()
	}
	e1, a1 := run()
	e2, a2 := run()
	if e1 != e2 || a1 != a2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, a1, e2, a2)
	}
}

func TestTxIncrementsAreAtomic(t *testing.T) {
	const T = 8
	const per = 60
	for _, variant := range []string{"rtm", "hle"} {
		prof := exec.HaswellC()
		m := newTestMachine(1, T, prof)
		htmProf := prof.HTMVariant(variant)
		m.Run(func(ctx exec.Context) {
			for i := 0; i < per; i++ {
				r := ctx.Tx(htmProf, func(tx exec.Tx) error {
					v := tx.Read(3)
					tx.Write(3, v+1)
					return nil
				})
				if !r.Committed {
					t.Errorf("%s: increment tx did not commit: %+v", variant, r)
				}
			}
		})
		if got := m.Mem(0)[3]; got != T*per {
			t.Fatalf("%s: tx increments = %d, want %d", variant, got, T*per)
		}
	}
}

func TestTxConflictsAreDetected(t *testing.T) {
	// With many threads incrementing one word transactionally on BGQ
	// (expensive, overlapping transactions), conflicts must occur.
	prof := exec.BGQ()
	m := newTestMachine(1, 16, prof)
	res := m.Run(func(ctx exec.Context) {
		for i := 0; i < 30; i++ {
			ctx.Tx(nil, func(tx exec.Tx) error {
				v := tx.Read(0)
				tx.Write(0, v+1)
				return nil
			})
		}
	})
	if got := m.Mem(0)[0]; got != 16*30 {
		t.Fatalf("sum = %d, want %d", got, 16*30)
	}
	if res.Stats.Aborts[stats.AbortConflict] == 0 {
		t.Fatal("expected conflict aborts under contention, got none")
	}
}

func TestCapacityAbortAndSerialization(t *testing.T) {
	// A transaction writing more lines than the Has-C L1 budget must
	// abort with a capacity reason and then serialize (RTM policy).
	prof := exec.HaswellC()
	m := newTestMachine(1, 1, prof)
	geo := prof.HTMVariant("rtm").WriteGeo
	words := (geo.MaxLines + 8) * geo.LineWords
	res := m.Run(func(ctx exec.Context) {
		r := ctx.Tx(nil, func(tx exec.Tx) error {
			for w := 0; w < words; w += geo.LineWords {
				tx.Write(w, 7)
			}
			return nil
		})
		if !r.Committed || !r.Serialized {
			t.Errorf("overflowing tx: want committed+serialized, got %+v", r)
		}
	})
	if res.Stats.Aborts[stats.AbortCapacity] == 0 {
		t.Fatal("expected a capacity abort")
	}
	if res.Stats.TxSerialized != 1 {
		t.Fatalf("TxSerialized = %d, want 1", res.Stats.TxSerialized)
	}
	// The fallback path must still publish every write.
	for w := 0; w < words; w += 8 {
		if m.Mem(0)[w] != 7 {
			t.Fatalf("serialized write lost at %d", w)
		}
	}
}

func TestHLESerializesAfterFirstAbort(t *testing.T) {
	prof := exec.HaswellC()
	hle := prof.HTMVariant("hle")
	m := newTestMachine(1, 8, prof)
	res := m.Run(func(ctx exec.Context) {
		for i := 0; i < 40; i++ {
			ctx.Tx(hle, func(tx exec.Tx) error {
				v := tx.Read(0)
				tx.Write(0, v+1)
				return nil
			})
		}
	})
	if got := m.Mem(0)[0]; got != 8*40 {
		t.Fatalf("sum = %d, want %d", got, 8*40)
	}
	if res.Stats.TxSerialized == 0 {
		t.Fatal("HLE under contention must serialize")
	}
	if res.Stats.Retries != 0 {
		t.Fatalf("HLE must not retry speculatively, got %d retries", res.Stats.Retries)
	}
}

func TestExplicitAbortRollsBack(t *testing.T) {
	m := newTestMachine(1, 1, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		ctx.Store(5, 99)
		r := ctx.Tx(nil, func(tx exec.Tx) error {
			tx.Write(5, 1)
			tx.Abort()
			return nil
		})
		if r.Committed || !r.UserAbort {
			t.Errorf("want user abort without commit, got %+v", r)
		}
	})
	if got := m.Mem(0)[5]; got != 99 {
		t.Fatalf("aborted write visible: mem=%d, want 99", got)
	}
}

func TestTxReadYourOwnWrite(t *testing.T) {
	m := newTestMachine(1, 1, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		ctx.Tx(nil, func(tx exec.Tx) error {
			tx.Write(9, 123)
			if got := tx.Read(9); got != 123 {
				t.Errorf("read-your-own-write = %d, want 123", got)
			}
			return nil
		})
	})
}

func TestMessagesAndWaitPoll(t *testing.T) {
	const N = 3
	received := make([]uint64, N)
	cfg := exec.Config{
		Nodes:          N,
		ThreadsPerNode: 1,
		MemWords:       64,
		Seed:           1,
	}
	prof := exec.BGQ()
	cfg.Profile = &prof
	cfg.Handlers = []exec.HandlerFunc{
		func(ctx exec.Context, src int, payload []uint64) {
			received[ctx.NodeID()] += payload[0]
			ctx.FetchAdd(0, 1)
		},
	}
	m := New(cfg)
	m.Run(func(ctx exec.Context) {
		next := (ctx.NodeID() + 1) % N
		ctx.Send(next, 0, []uint64{uint64(ctx.NodeID() + 1)})
		// Drain as am.Drain does: a bare Poll spin never advances virtual
		// time to a delivery, the sum-reductions do. No handler sends, so
		// one round with every sent message handled is quiescence.
		for {
			ctx.Poll()
			if ctx.AllReduceSum(ctx.Stats().MsgsSent) == ctx.AllReduceSum(ctx.Stats().HandlersRun) {
				return
			}
		}
	})
	for n := 0; n < N; n++ {
		if got := m.Mem(n)[0]; got != 1 {
			t.Fatalf("node %d ran %d handlers, want 1", n, got)
		}
		want := uint64(n) // predecessor id + 1 = ((n-1+N)%N)+1
		if want == 0 {
			want = N
		}
		if received[n] != want {
			t.Fatalf("node %d received %d, want %d", n, received[n], want)
		}
	}
}

func TestBarrierAndAllReduce(t *testing.T) {
	const T = 6
	m := newTestMachine(1, T, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		sum := ctx.AllReduceSum(uint64(ctx.GlobalID() + 1))
		if sum != T*(T+1)/2 {
			t.Errorf("allreduce sum = %d, want %d", sum, T*(T+1)/2)
		}
		ctx.Barrier()
	})
}

// TestDeadlockPanicDumpsThreads: a thread parked in a barrier that the
// other thread never reaches leaves nothing runnable; Run panics with the
// per-thread dump instead of hanging.
func TestDeadlockPanicDumpsThreads(t *testing.T) {
	m := newTestMachine(1, 2, exec.HaswellC())
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "sim: deadlock\n") ||
			!strings.Contains(msg, "thread 0 (node 0): state=") ||
			!strings.Contains(msg, "thread 1 (node 0): state=") {
			t.Fatalf("recovered %q, want the deadlock panic with a dump of both threads", msg)
		}
	}()
	m.Run(func(ctx exec.Context) {
		if ctx.GlobalID() == 0 {
			ctx.Barrier()
		}
	})
	t.Fatal("Run returned from a deadlocked machine")
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := newTestMachine(1, 4, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		// Unequal work, then a barrier: everyone must leave at a common
		// time at least as late as the slowest arrival.
		ctx.Compute(vtime.Time(ctx.GlobalID()) * vtime.Millisecond)
		before := ctx.Now()
		ctx.Barrier()
		after := ctx.Now()
		if after < 3*vtime.Millisecond {
			t.Errorf("thread %d released at %v, want >= slowest arrival 3ms (before=%v)", ctx.GlobalID(), after, before)
		}
	})
}

func TestLockMutualExclusion(t *testing.T) {
	const T = 6
	const per = 40
	m := newTestMachine(1, T, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		for i := 0; i < per; i++ {
			ctx.Lock(0)
			// Non-atomic read-modify-write protected by the lock.
			v := ctx.Load(1)
			ctx.Compute(5 * vtime.Nanosecond)
			ctx.Store(1, v+1)
			ctx.Unlock(0)
		}
	})
	if got := m.Mem(0)[1]; got != T*per {
		t.Fatalf("locked counter = %d, want %d", got, T*per)
	}
}

func TestQuickTxSumMatchesSequential(t *testing.T) {
	// Property: for any small program shape (threads, increments per
	// thread, words), transactional increments produce exactly the
	// sequential sum.
	f := func(threads, per, words uint8) bool {
		T := int(threads%6) + 1
		P := int(per%30) + 1
		W := int(words%7) + 1
		prof := exec.HaswellC()
		m := New(exec.Config{Nodes: 1, ThreadsPerNode: T, MemWords: 256, Profile: &prof, Seed: int64(threads) + 1})
		m.Run(func(ctx exec.Context) {
			for i := 0; i < P; i++ {
				w := (ctx.GlobalID() + i) % W
				ctx.Tx(nil, func(tx exec.Tx) error {
					tx.Write(w, tx.Read(w)+1)
					return nil
				})
			}
		})
		var sum uint64
		for w := 0; w < W; w++ {
			sum += m.Mem(0)[w]
		}
		return sum == uint64(T*P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHTMHasHigherBaseCostButAmortizes(t *testing.T) {
	// The paper's performance model (§5.3): B_HTM > B_AT but A_HTM <
	// A_AT, so a coarse transaction over many vertices beats a series of
	// atomics past a crossover. Verify both ends on Has-C.
	one := func(mech string, n int) vtime.Time {
		prof := exec.HaswellC()
		m := newTestMachine(1, 1, prof)
		return m.Run(func(ctx exec.Context) {
			for rep := 0; rep < 50; rep++ {
				if mech == "cas" {
					for i := 0; i < n; i++ {
						ctx.CAS(i, 0, 1)
					}
				} else {
					ctx.Tx(nil, func(tx exec.Tx) error {
						for i := 0; i < n; i++ {
							tx.Write(i, 1)
						}
						return nil
					})
				}
			}
		}).Elapsed
	}
	if one("htm", 1) <= one("cas", 1) {
		t.Error("single-word HTM should cost more than single CAS")
	}
	if one("htm", 64) >= one("cas", 64) {
		t.Error("coarse HTM over 64 words should beat 64 CAS ops")
	}
}
