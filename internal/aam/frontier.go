package aam

import "aamgo/internal/exec"

// Frontier is the double-buffered vertex queue in node memory that the
// level-synchronous programs share (BFS, max-flow's searches, the
// GraphBLAS system's steps, Boman coloring's rounds, s–t connectivity's
// waves). From Base it holds
//
//	Queue(0), Queue(1)   two queues of Segs segments, SegLen words each
//	Tail(0, s)           Segs tail counters of queue 0, Stride words apart
//	Tail(1, s)           the same for queue 1
//	Parity()             the current queue, 0 or 1
//
// and a program's own words start at End(). With Segs equal to the thread
// count each thread appends to its own segment, as in the Graph500
// reference code (§4.2), and a Stride of 8 keeps every tail on its own
// cache line; with Segs 1 every thread appends to one shared segment. A
// queue entry is a local vertex id, or whatever the program packs into
// one word.
type Frontier struct {
	Base, Segs, SegLen, Stride int
}

// Queue returns the address of queue q's first segment.
func (f Frontier) Queue(q int) int { return f.Base + q*f.Segs*f.SegLen }

// Tail returns the address of the tail counter of queue q's segment s.
func (f Frontier) Tail(q, s int) int {
	return f.Base + 2*f.Segs*f.SegLen + (q*f.Segs+s)*f.Stride
}

// Parity returns the address of the word naming the current queue.
func (f Frontier) Parity() int { return f.Tail(2, 0) }

// End returns the first address past the frontier.
func (f Frontier) End() int { return f.Parity() + f.Stride }

// seg returns the segment the calling thread appends to.
func (f Frontier) seg(ctx exec.Context) int {
	if f.Segs == 1 {
		return 0
	}
	return ctx.LocalID()
}

// Push appends v to queue q: a FetchAdd of the thread's tail, then a
// store to the claimed slot.
func (f Frontier) Push(ctx exec.Context, q, v int) {
	s := f.seg(ctx)
	idx := ctx.FetchAdd(f.Tail(q, s), 1)
	ctx.Store(f.Queue(q)+s*f.SegLen+int(idx), uint64(v))
}

// PushNext appends v to the queue that is not current.
func (f Frontier) PushNext(ctx exec.Context, v int) {
	f.Push(ctx, int(ctx.Load(f.Parity()))^1, v)
}

// TxPush appends v to the queue that is not current inside transaction
// tx: the parity word, the tail and the slot join the activity's
// footprint and roll back with it. ctx is the executing engine's thread.
// With per-thread segments, the parity word (read-only within a level) is
// the only word of the push that other threads touch.
func (f Frontier) TxPush(tx exec.Tx, ctx exec.Context, v int) {
	next := int(tx.Read(f.Parity())) ^ 1
	s := f.seg(ctx)
	ta := f.Tail(next, s)
	idx := int(tx.Read(ta))
	tx.Write(ta, uint64(idx)+1)
	tx.Write(f.Queue(next)+s*f.SegLen+idx, uint64(v))
}

// Walk calls visit for the calling thread's share of queue cur. Every
// thread loads all Segs tails into tails (host-side scratch of at least
// Segs entries); thread i of T then takes entries [i·n/T, (i+1)·n/T) of
// the queue's n, counted across the segments in order, loading each one.
func (f Frontier) Walk(ctx exec.Context, cur int, tails []int, visit func(v int)) {
	n := 0
	for s := range f.Segs {
		tails[s] = int(ctx.Load(f.Tail(cur, s)))
		n += tails[s]
	}
	T, lid := ctx.ThreadsPerNode(), ctx.LocalID()
	lo, hi := lid*n/T, (lid+1)*n/T
	pos := 0
	for s := 0; s < f.Segs && pos < hi; s++ {
		segLo := pos
		pos += tails[s]
		base := f.Queue(cur) + s*f.SegLen - segLo
		for i := max(lo, segLo); i < min(hi, pos); i++ {
			visit(int(ctx.Load(base + i)))
		}
	}
}

// Len returns the number of entries in queue q on thread 0, which loads
// every tail, and 0 on every other thread: the local term of the
// all-reduce that sizes the next level.
func (f Frontier) Len(ctx exec.Context, q int) uint64 {
	if ctx.LocalID() != 0 {
		return 0
	}
	n := uint64(0)
	for s := range f.Segs {
		n += ctx.Load(f.Tail(q, s))
	}
	return n
}

// Flip empties queue cur, each thread its own segment (thread 0 the
// shared one), and then thread 0 makes the other queue current.
func (f Frontier) Flip(ctx exec.Context, cur int) {
	lid := ctx.LocalID()
	if f.Segs > 1 || lid == 0 {
		ctx.Store(f.Tail(cur, f.seg(ctx)), 0)
	}
	if lid == 0 {
		ctx.Store(f.Parity(), uint64(cur^1))
	}
}

// Reset empties both queues, storing each segment's two tails in turn, and
// makes queue 0 current. One thread calls it.
func (f Frontier) Reset(ctx exec.Context) {
	for s := range f.Segs {
		ctx.Store(f.Tail(0, s), 0)
		ctx.Store(f.Tail(1, s), 0)
	}
	ctx.Store(f.Parity(), 0)
}
