package native

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"aamgo/internal/exec"
)

func newTestMachine(nodes, threads int) *Machine {
	prof := exec.HaswellC()
	return New(exec.Config{
		Nodes:          nodes,
		ThreadsPerNode: threads,
		MemWords:       1 << 13,
		Profile:        &prof,
		Seed:           7,
	})
}

func TestFetchAddSums(t *testing.T) {
	const T, per = 8, 500
	m := newTestMachine(1, T)
	m.Run(func(ctx exec.Context) {
		for i := 0; i < per; i++ {
			ctx.FetchAdd(0, 1)
		}
	})
	if got := m.Mem(0)[0]; got != T*per {
		t.Fatalf("sum = %d, want %d", got, T*per)
	}
}

func TestCASSingleWinner(t *testing.T) {
	const T = 8
	m := newTestMachine(1, T)
	m.Run(func(ctx exec.Context) {
		if ctx.CAS(0, 0, uint64(ctx.GlobalID())+1) {
			ctx.FetchAdd(1, 1)
		}
	})
	if got := m.Mem(0)[1]; got != 1 {
		t.Fatalf("winners = %d, want 1", got)
	}
}

func TestSTMIncrementsAreAtomic(t *testing.T) {
	const T, per = 8, 300
	m := newTestMachine(1, T)
	res := m.Run(func(ctx exec.Context) {
		for i := 0; i < per; i++ {
			r := ctx.Tx(nil, func(tx exec.Tx) error {
				tx.Write(3, tx.Read(3)+1)
				return nil
			})
			if !r.Committed {
				t.Errorf("tx did not commit: %+v", r)
			}
		}
	})
	if got := m.Mem(0)[3]; got != T*per {
		t.Fatalf("tx increments = %d, want %d", got, T*per)
	}
	if res.Stats.TxCommitted != T*per {
		t.Fatalf("TxCommitted = %d, want %d", res.Stats.TxCommitted, T*per)
	}
}

func TestSTMMultiWordInvariant(t *testing.T) {
	// Transfer between two cells: the sum must stay constant under any
	// interleaving; a torn read inside a transaction would break it.
	const T, per, total = 6, 200, 1000
	m := newTestMachine(1, T)
	m.Mem(0)[0] = total
	m.Run(func(ctx exec.Context) {
		for i := 0; i < per; i++ {
			ctx.Tx(nil, func(tx exec.Tx) error {
				a, b := tx.Read(0), tx.Read(1)
				if a+b != total {
					t.Errorf("invariant broken inside tx: %d + %d != %d", a, b, total)
				}
				if a > 0 {
					tx.Write(0, a-1)
					tx.Write(1, b+1)
				} else {
					tx.Write(0, a+b)
					tx.Write(1, 0)
				}
				return nil
			})
		}
	})
	if a, b := m.Mem(0)[0], m.Mem(0)[1]; a+b != total {
		t.Fatalf("final invariant broken: %d + %d != %d", a, b, total)
	}
}

func TestExplicitAbortRollsBack(t *testing.T) {
	m := newTestMachine(1, 1)
	m.Run(func(ctx exec.Context) {
		ctx.Store(5, 99)
		r := ctx.Tx(nil, func(tx exec.Tx) error {
			tx.Write(5, 1)
			tx.Abort()
			return nil
		})
		if r.Committed || !r.UserAbort {
			t.Errorf("want user abort, got %+v", r)
		}
	})
	if got := m.Mem(0)[5]; got != 99 {
		t.Fatalf("aborted write visible: %d", got)
	}
}

func TestMessaging(t *testing.T) {
	const N = 4
	var delivered atomic.Uint64
	prof := exec.BGQ()
	cfg := exec.Config{
		Nodes: N, ThreadsPerNode: 2, MemWords: 64, Profile: &prof, Seed: 3,
		Handlers: []exec.HandlerFunc{
			func(ctx exec.Context, src int, payload []uint64) {
				delivered.Add(payload[0])
				ctx.FetchAdd(0, 1)
			},
		},
	}
	m := New(cfg)
	m.Run(func(ctx exec.Context) {
		if ctx.LocalID() == 0 {
			for d := 0; d < N; d++ {
				if d != ctx.NodeID() {
					ctx.Send(d, 0, []uint64{1})
				}
			}
		}
		// Each node expects N-1 messages; both threads may consume them.
		// Drain as am.Drain does; no handler sends, so one round with every
		// sent message handled is quiescence.
		for {
			ctx.Poll()
			if ctx.AllReduceSum(ctx.Stats().MsgsSent) == ctx.AllReduceSum(ctx.Stats().HandlersRun) {
				return
			}
		}
	})
	if got := delivered.Load(); got != N*(N-1) {
		t.Fatalf("delivered = %d, want %d", got, N*(N-1))
	}
	for n := 0; n < N; n++ {
		if got := m.Mem(n)[0]; got != N-1 {
			t.Fatalf("node %d ran %d handlers, want %d", n, got, N-1)
		}
	}
}

func TestBarrierAndAllReduce(t *testing.T) {
	const T = 8
	m := newTestMachine(1, T)
	m.Run(func(ctx exec.Context) {
		for round := 0; round < 5; round++ {
			sum := ctx.AllReduceSum(uint64(ctx.GlobalID() + 1))
			if sum != T*(T+1)/2 {
				t.Errorf("round %d: sum = %d, want %d", round, sum, T*(T+1)/2)
			}
		}
	})
}

// TestRandIsSeededPerThread: each thread's generator is a function of the
// machine seed and the thread id, so two runs draw the same values and no
// two threads share a stream.
func TestRandIsSeededPerThread(t *testing.T) {
	draw := func() []int64 {
		m := newTestMachine(2, 2)
		out := make([]int64, 4)
		m.Run(func(ctx exec.Context) { out[ctx.GlobalID()] = ctx.Rand().Int63() })
		return out
	}
	a, b := draw(), draw()
	if !slices.Equal(a, b) {
		t.Fatalf("two runs of one seed drew %v and %v", a, b)
	}
	seen := map[int64]bool{}
	for gid, v := range a {
		if seen[v] {
			t.Fatalf("thread %d repeats another thread's draw %d: %v", gid, v, a)
		}
		seen[v] = true
	}
}

func TestLockMutualExclusion(t *testing.T) {
	const T, per = 8, 200
	m := newTestMachine(1, T)
	m.Run(func(ctx exec.Context) {
		for i := 0; i < per; i++ {
			ctx.Lock(0)
			v := m.Mem(0)[1] // plain, unsynchronized access under the lock
			m.Mem(0)[1] = v + 1
			ctx.Unlock(0)
		}
	})
	if got := m.Mem(0)[1]; got != T*per {
		t.Fatalf("locked counter = %d, want %d", got, T*per)
	}
}

func TestQuickSTMSumMatchesSequential(t *testing.T) {
	f := func(threads, per, words uint8) bool {
		T := int(threads%4) + 1
		P := int(per%40) + 1
		W := int(words%7) + 1
		m := newTestMachine(1, T)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
