package aam

import (
	"slices"
	"testing"

	"aamgo/internal/exec"
	"aamgo/internal/sim"
)

// TestFrontierLayout pins the address rule: two queues, then queue 0's
// tails, queue 1's tails and the parity word, Stride apart, with nothing
// between them.
func TestFrontierLayout(t *testing.T) {
	f := Frontier{Base: 10, Segs: 4, SegLen: 7, Stride: 8}
	got := []int{f.Queue(0), f.Queue(1), f.Tail(0, 0), f.Tail(0, 3), f.Tail(1, 0), f.Parity(), f.End()}
	if want := []int{10, 38, 66, 90, 98, 130, 138}; !slices.Equal(got, want) {
		t.Errorf("segmented layout %v, want %v", got, want)
	}
	// One shared segment, packed: the words 3L, 3L+1, 3L+2 after two
	// queues of L from L.
	f = Frontier{Base: 100, Segs: 1, SegLen: 100, Stride: 1}
	got = []int{f.Queue(0), f.Queue(1), f.Tail(0, 0), f.Tail(1, 0), f.Parity(), f.End()}
	if want := []int{100, 200, 300, 301, 302, 303}; !slices.Equal(got, want) {
		t.Errorf("shared layout %v, want %v", got, want)
	}
}

// TestFrontierLevel runs a level through the queue on both segment
// shapes: uneven pushes to the queue that is not current, a Flip that
// makes it current, a Walk that hands every entry to exactly one thread in
// balanced shares, Len on thread 0 only, and a Flip that empties the
// walked queue.
func TestFrontierLevel(t *testing.T) {
	const T = 3
	for _, segs := range []int{T, 1} {
		f := Frontier{Base: 0, Segs: segs, SegLen: 16, Stride: 8}
		prof := exec.HaswellC()
		seen := make([][]int, T)
		lens := make([]uint64, T)
		m := sim.New(exec.Config{ThreadsPerNode: T, MemWords: f.End(), Profile: &prof})
		m.Run(func(ctx exec.Context) {
			lid := ctx.LocalID()
			for i := range lid + 2 { // 2, 3 and 4 entries
				f.PushNext(ctx, 10*lid+i)
			}
			ctx.Barrier()
			f.Flip(ctx, 0)
			ctx.Barrier()
			cur := int(ctx.Load(f.Parity()))
			f.Walk(ctx, cur, make([]int, segs), func(v int) { seen[lid] = append(seen[lid], v) })
			lens[lid] = f.Len(ctx, cur)
			ctx.Barrier()
			f.Flip(ctx, cur)
		})
		var all []int
		for lid, s := range seen {
			if len(s) != 3 {
				t.Errorf("segs=%d: thread %d walked %v, want 3 of the 9 entries", segs, lid, s)
			}
			all = append(all, s...)
		}
		slices.Sort(all)
		if want := []int{0, 1, 10, 11, 12, 20, 21, 22, 23}; !slices.Equal(all, want) {
			t.Errorf("segs=%d: walked %v, want %v", segs, all, want)
		}
		if !slices.Equal(lens, []uint64{9, 0, 0}) {
			t.Errorf("segs=%d: Len %v, want 9 on thread 0 only", segs, lens)
		}
		mem := m.Mem(0)
		for s := range segs {
			if mem[f.Tail(1, s)] != 0 {
				t.Errorf("segs=%d: tail %d of the flipped queue is %d", segs, s, mem[f.Tail(1, s)])
			}
		}
		if mem[f.Parity()] != 0 {
			t.Errorf("segs=%d: parity %d after flipping queue 1, want 0", segs, mem[f.Parity()])
		}
	}
}
