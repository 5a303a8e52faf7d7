package sim

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"aamgo/internal/exec"
	"aamgo/internal/native"
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

// TestFalseSharingAbortsOnlyOnLineMachines: four threads each increment
// their own word. Haswell detects conflicts per 64-byte line, so words 0-3
// false-share and abort. BG/Q detects them per word and shows no conflict
// abort, and neither does Haswell when the words are 8 apart, a line each.
func TestFalseSharingAbortsOnlyOnLineMachines(t *testing.T) {
	const T, per = 4, 50
	for _, c := range []struct {
		prof   exec.MachineProfile
		stride int
		abort  bool
	}{
		{exec.HaswellC(), 1, true},
		{exec.BGQ(), 1, false},
		{exec.HaswellC(), 8, false},
	} {
		m := newTestMachine(1, T, c.prof)
		res := m.Run(func(ctx exec.Context) {
			addr := ctx.GlobalID() * c.stride
			for i := 0; i < per; i++ {
				ctx.Tx(nil, func(tx exec.Tx) error {
					tx.Write(addr, tx.Read(addr)+1)
					return nil
				})
			}
		})
		for g := 0; g < T; g++ {
			if got := m.Mem(0)[g*c.stride]; got != per {
				t.Fatalf("%s stride %d: word %d = %d, want %d", c.prof.Name, c.stride, g*c.stride, got, per)
			}
		}
		if got := res.Stats.Aborts[stats.AbortConflict]; (got > 0) != c.abort {
			t.Fatalf("%s stride %d: %d conflict aborts, want aborts: %v", c.prof.Name, c.stride, got, c.abort)
		}
	}
}

// TestNewAllocatesPerConflictUnit: a node holds one stamp per conflict
// unit, a line on Haswell and a word on BG/Q, beside its memory and its
// line-ownership clocks.
func TestNewAllocatesPerConflictUnit(t *testing.T) {
	const words = 1 << 16
	for _, c := range []struct {
		prof    exec.MachineProfile
		perWord uint64
	}{
		{exec.HaswellC(), 12},
		{exec.BGQ(), 26},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(exec.Config{Nodes: 1, ThreadsPerNode: 1, MemWords: words, Profile: &c.prof})
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.perWord*words {
			t.Fatalf("%s: New allocated %.1f B/word, want at most %d", c.prof.Name, float64(got)/words, c.perWord)
		}
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

// TestBodyPanicSurfacesFromRun: a body that panics after a barrier, with
// the other threads parked at the next one, spinning on a lock that is
// never released or polling forever, panics out of Run with its own value,
// where the caller can recover it, on the sim and the native runtime
// alike; every thread the run started ends.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	type bodyPanic struct{ gid int }
	body := func(ctx exec.Context) {
		if ctx.GlobalID() == 0 {
			ctx.Lock(0)
		}
		ctx.Barrier()
		switch ctx.GlobalID() {
		case 1:
			ctx.Lock(0)
		case 2:
			panic(bodyPanic{gid: 2})
		case 3:
			for {
				ctx.Poll()
			}
		}
		ctx.Barrier()
	}
	prof := exec.HaswellC()
	cfg := exec.Config{Nodes: 1, ThreadsPerNode: 4, MemWords: 64, Profile: &prof, Seed: 42}
	for name, m := range map[string]exec.Machine{"sim": New(cfg), "native": native.New(cfg)} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); r != (bodyPanic{gid: 2}) {
					t.Errorf("%s: recovered %v, want the body's bodyPanic{2}", name, r)
				}
			}()
			m.Run(body)
			t.Errorf("%s: Run returned after a body panicked", name)
		}()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines 5 s after Run, %d before", name, runtime.NumGoroutine(), before)
				break
			}
		}
	}
}

// TestRunReleasesEveryThread: whether Run returns or panics, every
// simulated thread's coroutine has ended when Run is over. The count may
// fall below its start (an earlier test's goroutine can still be exiting),
// never rise above it.
func TestRunReleasesEveryThread(t *testing.T) {
	cases := []struct {
		name    string
		threads int
		body    func(ctx exec.Context)
	}{
		{"normal", 4, func(ctx exec.Context) {
			ctx.FetchAdd(0, 1)
			ctx.Barrier()
		}},
		{"deadlock", 2, func(ctx exec.Context) {
			if ctx.GlobalID() == 0 {
				ctx.Barrier()
			}
		}},
		{"body panic", 4, func(ctx exec.Context) {
			if ctx.GlobalID() == 3 {
				ctx.Compute(vtime.Microsecond)
				panic("thread 3")
			}
			ctx.Barrier()
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		func() {
			defer func() { recover() }()
			newTestMachine(1, c.threads, exec.HaswellC()).Run(c.body)
		}()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, after, before)
		}
	}
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

// TestEqualKeysPopInOrder pins how the simulator breaks ties: two messages
// to one node with equal delivery times run in send order, a message sent
// later but delivered earlier runs first, and threads whose clocks tie
// resume in global-id order whatever order they were readied in.
func TestEqualKeysPopInOrder(t *testing.T) {
	prof := exec.BGQ()
	prof.NetBeta = 10 * vtime.Nanosecond
	prof.SendOverhead = 3 * prof.NetBeta
	var order []uint64
	cfg := exec.Config{
		Nodes:          2,
		ThreadsPerNode: 1,
		MemWords:       64,
		Profile:        &prof,
		Seed:           1,
		Handlers: []exec.HandlerFunc{func(ctx exec.Context, src int, payload []uint64) {
			order = append(order, payload[0])
		}},
	}
	New(cfg).Run(func(ctx exec.Context) {
		if ctx.NodeID() == 0 {
			// One send's overhead is three words of transfer: an 8-word
			// message delivers when a 5-word one sent right after it does,
			// and a 1-word one sent after that delivers before both.
			ctx.Send(1, 0, []uint64{1, 0, 0, 0, 0, 0, 0, 0})
			ctx.Send(1, 0, []uint64{2, 0, 0, 0, 0})
			ctx.Send(1, 0, []uint64{3})
			return
		}
		ctx.Compute(vtime.Millisecond)
		ctx.Poll()
	})
	if want := []uint64{3, 1, 2}; !slices.Equal(order, want) {
		t.Errorf("handlers ran for messages %v, want %v", order, want)
	}

	const T = 6
	m := newTestMachine(1, T, exec.HaswellC())
	m.Run(func(ctx exec.Context) {
		// The highest id arrives at the barrier first and is readied
		// first; every clock is the release time after it.
		ctx.Compute(vtime.Time(T-ctx.GlobalID()) * vtime.Nanosecond)
		ctx.Barrier()
		if got := ctx.FetchAdd(0, 1); got != uint64(ctx.GlobalID()) {
			t.Errorf("thread %d made the FetchAdd number %d", ctx.GlobalID(), got)
		}
	})
}

// TestSendPollAllocatesThePayload pins the cost of one message: in the
// steady state a Send and the Poll that runs its handler allocate one
// object, Send's copy of the payload. The fixed cost of a machine cancels
// between two runs that differ only in their message count.
func TestSendPollAllocatesThePayload(t *testing.T) {
	mallocs := func(msgs int) uint64 {
		cfg := exec.Config{
			MemWords: 64,
			Seed:     1,
			Handlers: []exec.HandlerFunc{func(exec.Context, int, []uint64) {}},
		}
		payload := []uint64{1, 2, 3, 4}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(cfg).Run(func(ctx exec.Context) {
			for i := 0; i < msgs; i++ {
				ctx.Send(0, 0, payload)
				ctx.Compute(vtime.Microsecond)
				ctx.Poll()
			}
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const n = 1000
	mallocs(n) // warm up: the first run pays for one-time runtime state
	if per := float64(mallocs(2*n)-mallocs(n)) / n; math.Round(per) != 1 {
		t.Errorf("a Send and its Poll allocate %.3f objects, want 1 (the payload copy)", per)
	}
}

// TestEventsPopInKeyOrder drives the event heap with seeded random
// interleavings of push and pop over few distinct times, so most keys tie
// on at, and checks every pop against a sorted reference. A pop also
// leaves no payload behind in the vacated slot.
func TestEventsPopInKeyOrder(t *testing.T) {
	byKey := func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h events
		var ref []event
		seq := uint64(0)
		for step := 0; step < 2000; step++ {
			if len(h) == 0 || rng.Intn(3) > 0 {
				seq++
				e := event{at: vtime.Time(rng.Intn(8)), seq: seq, payload: []uint64{seq}}
				h.push(e)
				ref = append(ref, e)
				continue
			}
			slices.SortFunc(ref, byKey)
			got, want := h.pop(), ref[0]
			ref = ref[1:]
			if got.at != want.at || got.seq != want.seq || got.payload[0] != want.seq {
				t.Fatalf("seed %d step %d: popped (%v, %d), want (%v, %d)", seed, step, got.at, got.seq, want.at, want.seq)
			}
			if h[:len(h)+1][len(h)].payload != nil {
				t.Fatalf("seed %d step %d: the vacated slot still holds a payload", seed, step)
			}
		}
		if len(h) != len(ref) {
			t.Fatalf("seed %d: heap holds %d events, reference %d", seed, len(h), len(ref))
		}
	}
}
