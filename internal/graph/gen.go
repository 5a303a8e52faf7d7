package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Kronecker generates a Graph500-style R-MAT/Kronecker graph with 2^scale
// vertices and edgeFactor·2^scale edges and a power-law degree
// distribution. Initiator probabilities follow the Graph500 specification
// (A=0.57, B=0.19, C=0.19). Vertex labels are randomly permuted, as in the
// reference generator, so that vertex id gives no locality hint.
func Kronecker(scale int, edgeFactor int, seed int64) *Graph {
	return KroneckerABC(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// KroneckerABC is Kronecker with explicit initiator probabilities. The
// graph is a function of the seed alone: its edges are the ones a plain loop
// over one rand.New(rand.NewSource(seed)) draws — Perm, then per bit one
// Float64 and, in the lower half, a second. The values after Perm are not
// drawn through the source, though: its next lfLen outputs are its whole
// state (lfStream), and rmatEdges continues the stream from them.
func KroneckerABC(scale, edgeFactor int, a, b, c float64, seed int64) *Graph {
	if scale < 0 || scale > 30 || edgeFactor < 0 || edgeFactor > maxEdgeFactor(scale) {
		panic(fmt.Sprintf("graph: Kronecker scale %d outside [0,30], or edge factor %d negative or so large the edges' draws overflow int", scale, edgeFactor))
	}
	n := 1 << uint(scale)
	src := rand.NewSource(seed).(rand.Source64)
	perm := make([]int32, n)
	for i, p := range rand.New(src).Perm(n) {
		perm[i] = int32(p)
	}
	bld := NewBuilder(n)
	bld.edges = rmatEdges(lfStream(src), perm, scale, edgeFactor*n, a+b, a, c/(1-a-b), 0)
	return bld.Build()
}

// maxEdgeFactor is the largest edge factor for which edges × 2·scale is an int.
func maxEdgeFactor(scale int) int { return math.MaxInt >> scale / max(2*scale, 1) }

// math/rand's seeded source is the additive lagged-Fibonacci generator
// x[n] = x[n-lfLen] + x[n-lfTap] mod 2^64 and returns x[n] itself, so any
// lfLen consecutive outputs determine the rest. lfBlock values are computed
// at a time: they and the bytes made of them stay in L1.
const lfLen, lfTap, lfBlock = 607, 273, 2048

// lfStream reads the next lfLen outputs of src into the buffer lfAdvance
// continues them in.
func lfStream(src rand.Source64) []uint64 {
	vals := make([]uint64, lfBlock+lfLen)
	for i := range vals[lfBlock:] {
		vals[lfBlock+i] = src.Uint64()
	}
	return vals
}

// lfAdvance returns the next lfBlock values of the stream whose next lfLen
// values are vals[lfBlock:], and leaves the lfLen after those in that place.
func lfAdvance(vals []uint64) []uint64 {
	copy(vals, vals[lfBlock:lfBlock+lfLen])
	for i := lfLen; i < lfLen+lfBlock; i++ {
		vals[i] = vals[i-lfLen] + vals[i-lfTap]
	}
	return vals[:lfBlock]
}

// lfJump returns the lfStream of x[k:], x being the stream's first 2·lfLen-1
// values: x[k+j] = Σ r[i]·x[i+j] for r = z^k mod z^lfLen - z^(lfLen-lfTap) - 1,
// squared and multiplied up one bit of k a step from k's leading nine.
func lfJump(x []uint64, k int) []uint64 {
	s := max(0, bits.Len(uint(k))-9) // k>>s < 512 < lfLen
	r, sq := make([]uint64, lfLen), make([]uint64, 2*lfLen)
	r[k>>s] = 1
	for s--; s >= 0; s-- {
		clear(sq)
		for i, ri := range r {
			if ri != 0 {
				sq[2*i] += ri * ri
				t, ri2 := sq[2*i+1:i+lfLen], 2*ri
				for j, rj := range r[i+1:] {
					t[j] += ri2 * rj
				}
			}
		}
		top := 2*lfLen - 2
		if k>>s&1 != 0 {
			copy(sq[1:], sq[:top+1])
			sq[0], top = 0, top+1
		}
		for d := top; d >= lfLen; d-- { // z^lfLen = z^(lfLen-lfTap) + 1
			sq[d-lfTap] += sq[d]
			sq[d-lfLen] += sq[d]
		}
		copy(r, sq)
	}
	vals := make([]uint64, lfBlock+lfLen)
	for i, ri := range r {
		if ri != 0 {
			for j, xj := range x[i : i+lfLen] {
				vals[lfBlock+j] += ri * xj
			}
		}
	}
	return vals
}

// floatThreshold returns the least x with float64(x)/(1<<63) >= t, or 1<<63
// when no x below that has it (t > 1, NaN): for x < 1<<63, x >=
// floatThreshold(t) is the comparison (*rand.Rand).Float64() >= t makes of
// the source's x. The division is exact and the conversion monotone, so
// there is one such bound, at most a rounding step (512) under ceil(t·2^63).
func floatThreshold(t float64) uint64 {
	s := t * (1 << 63)
	if !(s <= 1<<63) {
		return 1 << 63
	}
	x := uint64(math.Ceil(max(s, 0)))
	for x > 0 && float64(x-1) >= s {
		x--
	}
	return x
}

const rmatCut = 1 << 20 // the fewest values a worker of rmatEdges descends (a jump costs about a third)

// rmatEdges draws m R-MAT edges over 2^scale vertices from the stream vals
// (an lfStream) holds and labels them through perm, on workers goroutines (0:
// one per rmatCut values, at most GOMAXPROCS). After a sync value, a kept one
// in the upper half, the descent's state is always the same: worker w jumps
// to value w·values/workers and starts after the first sync value there, and
// worker w-1 stops on it (a range with none merges into its predecessor's).
func rmatEdges(vals []uint64, perm []int32, scale, m int, ab, a, cNorm float64, workers int) []Edge {
	one := floatThreshold(1)
	proto := rmatPiece{one: one, sync: min(floatThreshold(ab), one), side: [2]uint64{floatThreshold(a) - 1, floatThreshold(cNorm) - 1}}
	nbits := m * scale
	values := rmatValues(nbits, proto.sync, one)
	if workers == 0 {
		workers = max(1, min(runtime.GOMAXPROCS(0), values/rmatCut))
	}
	x := lfAdvance(slices.Clone(vals)) // the stream's first values
	words := (nbits+lfBlock)/64 + 3    // piece 0, in place: a block past nbits, two end words, one read past
	pieces := make([]*rmatPiece, workers)
	parallel(workers, func(w int) {
		p, c := proto, words
		p.vals, p.buf = vals, make([]uint8, 64+lfBlock)
		if w > 0 {
			p.next, p.vals = chunk(values, workers, w), lfJump(x, chunk(values, workers, w))
			if !p.seek(chunk(values, workers, w+1)) {
				return
			}
			c = (chunk(values, workers, w+1)-p.next+lfBlock)/64 + 2 // a value descends at most a bit
		}
		p.u, p.v = make([]uint64, 0, c), make([]uint64, 0, c)
		pieces[w] = &p
	})
	pieces = slices.DeleteFunc(pieces, func(p *rmatPiece) bool { return p == nil })
	for i, p := range pieces {
		if p.end = values; i > 0 {
			pieces[i-1].end = p.next
		}
	}
	parallel(len(pieces), func(i int) { pieces[i].descend(nbits) })
	offs := make([]int, len(pieces)+1)
	for i, p := range pieces {
		if i == len(pieces)-1 && offs[i]+p.len() < nbits { // the estimate fell short
			p.end = math.MaxInt
			p.descend(nbits - offs[i] - p.len())
		}
		offs[i+1] = offs[i] + p.len()
		clear(p.buf[p.have:64]) // the bytes left make a last word; then a zero one
		u, v := gather64(p.buf)
		p.u, p.v = append(p.u, u, 0), append(p.v, v, 0)
	}
	u, v := pieces[0].u[:cap(pieces[0].u)], pieces[0].v[:cap(pieces[0].v)] // zero past piece 0
	parallel(len(pieces), func(i int) {
		if i > 0 && offs[i] < nbits {
			orBits(u, offs[i], min(offs[i+1], nbits), pieces[i].u)
			orBits(v, offs[i], min(offs[i+1], nbits), pieces[i].v)
		}
	})
	edges, mask := make([]Edge, m), uint64(1)<<scale-1
	parallel(workers, func(w int) {
		lo, hi := chunk(m, workers, w), chunk(m, workers, w+1)
		for e, off := lo, lo*scale; e < hi; e, off = e+1, off+scale {
			i, sh := off/64, uint(off%64) // a shift by 64 is 0
			edges[e] = Edge{perm[(u[i]>>sh|u[i+1]<<(64-sh))&mask], perm[(v[i]>>sh|v[i+1]<<(64-sh))&mask]}
		}
	})
	return edges
}

// rmatValues is about how many values n bits take: one, and a second in the lower half.
func rmatValues(n int, sync, one uint64) int {
	return n + min(n, int(float64(n)*(1-float64(sync)/float64(one))))
}

// rmatPiece is one worker's stretch of the stream, to index end, and its bits:
// bit i of u (v) is the half (side) of the i-th. From one a value is drawn
// again, below sync it is in the upper half, and past side[second] (a
// threshold less one: 0 wraps to every value) it goes to the side.
type rmatPiece struct {
	one, sync, second uint64
	side              [2]uint64
	vals, blk         []uint64 // an lfStream, and what is unread of its block vals[:lfBlock]
	next, end, have   int      // the stream index of blk[0]; how many of buf are descended bits not yet in u and v
	buf               []uint8
	u, v              []uint64
}

func (p *rmatPiece) len() int { return 64*len(p.u) + p.have }

// block returns the next values of the stream, up to index end (exclusive),
// every value of a block and the lfLen after it computed.
func (p *rmatPiece) block(end int) []uint64 {
	if len(p.blk) == 0 {
		p.blk = lfAdvance(p.vals)
	}
	b := p.blk[:min(len(p.blk), end-p.next)]
	p.blk, p.next = p.blk[len(b):], p.next+len(b)
	return b
}

// seek moves p past the first sync value before index end, if there is one.
func (p *rmatPiece) seek(end int) bool {
	for p.next < end {
		b := p.block(end)
		for i, x := range b {
			if x&(1<<63-1) < p.sync {
				p.blk, p.next = b[i+1:len(b)+len(p.blk)], p.next-len(b)+i+1
				return true
			}
		}
	}
	return false
}

// descend runs the machine to p.end or until it adds need bits, a block of
// the stream at a time: the rest of the one seek left partly read, then fresh
// ones, each started as lfAdvance starts it and computed by descendBlock.
func (p *rmatPiece) descend(need int) {
	need += p.len()
	for p.len() < need && p.next < p.end {
		if len(p.blk) == 0 {
			copy(p.vals, p.vals[lfBlock:lfBlock+lfLen])
			p.blk = p.vals[:lfBlock]
		}
		i, n := lfBlock-len(p.blk), min(len(p.blk), p.end-p.next)
		have, second := descendBlock(p.vals[i:i+lfLen+n], p.buf, p.have, p.second, p.one, p.sync, p.side)
		p.blk, p.next = p.blk[n:], p.next+n
		done := 0
		for ; have-done >= 64; done += 64 {
			u, v := gather64(p.buf[done:])
			p.u, p.v = append(p.u, u), append(p.v, v)
		}
		p.have, p.second = copy(p.buf, p.buf[done:have]), second
	}
}

// descendBlock runs the machine over vals[:len(vals)-lfLen], storing the
// value lfLen on from each as it reads it, as lfAdvance would (over values
// seek read, again: the same values). Its state is second (a second draw is
// due); per value it stores a byte at buf[have] (bit 0 the half, bit 1 the
// side) and keeps it by advancing, loading and branching on nothing. It is a
// function of its own so that its loop keeps every operand in a register.
func descendBlock(vals []uint64, buf []uint8, have int, second, one, sync uint64, side [2]uint64) (int, uint64) {
	// For x < 1<<63 and a bound b ≤ 1<<63, (x-b)>>63 is 1 if x < b, else 0,
	// and (b-1-x)>>63 is 1 if x ≥ b, else 0.
	xs := vals[:len(vals)-lfLen]
	tap, out := vals[lfLen-lfTap:][:len(xs)], vals[lfLen:][:len(xs)]
	for j, x := range xs {
		out[j] = x + tap[j]
		x &= 1<<63 - 1
		if x >= one {
			continue // Float64 draws again on 1
		}
		upper := (x - sync) >> 63
		buf[have] = uint8(second | (side[second&1]-x)>>63<<1)
		have += int(second | upper)
		second = (second | upper) ^ 1
	}
	return have, second
}

// gather64 returns bits 0 and 1 of b[0:64] as two words: bit 0 of byte i times
// 1<<(7·(8-i)) is bit 56+i, and no two of the 64 partial products share a bit.
func gather64(b []uint8) (u, v uint64) {
	for i := 0; i < 64; i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		u |= x & 0x0101010101010101 * 0x0102040810204080 >> 56 << i
		v |= x >> 1 & 0x0101010101010101 * 0x0102040810204080 >> 56 << i
	}
	return u, v
}

// orBits ors src into bits [lo, hi) of dst (and past hi in hi's word); a word
// another piece shares is ored atomically.
func orBits(dst []uint64, lo, hi int, src []uint64) {
	sh, prev := uint(lo%64), uint64(0)
	for q, k := lo/64, 0; q <= (hi-1)/64; q, k = q+1, k+1 {
		w := src[k]<<sh | prev>>(64-sh)
		if prev = src[k]; 64*q >= lo && 64*q+64 <= hi {
			dst[q] = w
		} else {
			atomic.OrUint64(&dst[q], w)
		}
	}
}

// chunk returns where the i-th of parts near-equal chunks of n items starts.
func chunk(n, parts, i int) int {
	return n/parts*i + min(i, n%parts)
}

// parallel calls f(0), …, f(n-1) on n goroutines, the caller's among them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() { defer wg.Done(); f(i) }()
	}
	f(0)
	wg.Wait()
}

// ErdosRenyi generates an undirected G(n, p) graph by geometric skipping,
// so the cost is proportional to the number of edges rather than n².
func ErdosRenyi(n int, p float64, seed int64) *Graph {
	bld := NewBuilder(n)
	if p > 0 {
		rng := rand.New(rand.NewSource(seed))
		logQ := math.Log1p(-p)
		// Iterate over the strict upper triangle in row-major order,
		// skipping geometrically distributed gaps.
		var idx int64 = -1
		total := int64(n) * int64(n-1) / 2
		for {
			r := rng.Float64()
			skip := int64(math.Floor(math.Log1p(-r) / logQ))
			idx += skip + 1
			if idx >= total {
				break
			}
			// Map linear index to (u,v) in the upper triangle.
			u := int((math.Sqrt(float64(8*idx+1)) - 1) / 2)
			// Guard against floating point at triangle boundaries.
			for int64(u+1)*int64(u+2)/2 <= idx {
				u++
			}
			for int64(u)*int64(u+1)/2 > idx {
				u--
			}
			v := int(idx - int64(u)*int64(u+1)/2)
			bld.AddEdge(int32(u+1), int32(v))
		}
	}
	return bld.Build()
}

// RoadGrid generates a road-network proxy: a w×h lattice with a fraction of
// edges removed and a few diagonal shortcuts, giving degree ≈ 2–4 and a
// very large diameter — the regime of roadNet-CA/TX/PA in Table 1. The graph
// is the one a plain loop over rand.New(rand.NewSource(seed)) draws: per cell
// in row-major order a Float64 each for the edge right and the edge down (kept
// when ≥ dropFrac) and for the diagonal (kept when < 0.02), where they exist.
func RoadGrid(w, h int, dropFrac float64, seed int64) *Graph {
	if w < 0 || h < 0 || w > 0 && h > math.MaxInt32/w {
		panic(fmt.Sprintf("graph: road grid %d×%d: negative side or more than 2^31-1 vertices", w, h))
	}
	return roadGridCSR(w, h, dropFrac, lfStream(rand.NewSource(seed).(rand.Source64)), 0)
}

// roadGridCSR is RoadGrid over the stream vals (an lfStream) holds, in bands
// of rows on workers goroutines (0: one per rmatCut values, at most
// GOMAXPROCS). Vertex v = y·w+x has at most the neighbours v-w-1, v-w, v-1,
// v+1, v+w, v+w+1, each through one edge, so pass one draws, keeps a cell's
// three bits (1 right, 2 down, 4 diagonal) at cells[w+1+v] and counts edges,
// and pass two writes each segment ascending from the bits of the cell and of
// those up-left, up and left of it: no edge list, no sort. Off the grid those
// read 0: cells starts with a zero row, and a last column or row never has the
// bit that would wrap. Every row but the last takes 3w-2 values, so a band
// jumps the stream to its first row's; that is exact unless a value before it
// was drawn again, and then the bands after the first such are drawn again in
// order, each continuing the stream where the one before it stopped.
func roadGridCSR(w, h int, dropFrac float64, vals []uint64, workers int) *Graph {
	if w == 0 {
		h = 0 // no cells, so no rows to split
	}
	n, rowVals := w*h, 3*w-2
	if workers == 0 {
		workers = max(1, min(runtime.GOMAXPROCS(0), ((h-1)*rowVals+w-1)/rmatCut))
	}
	workers = min(workers, max(h, 1))
	t := [3]uint64{floatThreshold(dropFrac), floatThreshold(0.02), floatThreshold(1)}
	cells := make([]uint8, w+1+n)
	x := lfAdvance(slices.Clone(vals)) // the stream's first values
	bands := make([]roadBand, workers)
	parallel(workers, func(i int) {
		b := &bands[i]
		b.y0, b.y1, b.vals = chunk(h, workers, i), chunk(h, workers, i+1), vals
		if i > 0 {
			b.vals = lfJump(x, b.y0*rowVals)
		}
		b.draw(cells, w, h, t)
	})
	for i := 1; i < workers; i++ {
		if prev, b := &bands[i-1], &bands[i]; prev.redraws > 0 { // b jumped short of its first value
			b.vals, b.blk, b.redraws = prev.vals, prev.blk, prev.redraws
			b.draw(cells, w, h, t)
		}
	}
	arcs, in := 0, 0 // in: the arcs of the band's first row whose edges the band before it drew
	for i := range bands {
		b := &bands[i]
		b.arc, arcs, in = arcs, arcs+2*b.edges-b.cross+in, b.cross
	}
	// The runtime zeroes memory it reuses on the goroutine that allocates
	// it, and once that memory went back to the OS this costs several times
	// writing it: the two arrays are allocated side by side.
	var offs []int64
	var adj []int32
	parallel(2, func(i int) {
		if i == 0 {
			adj = make([]int32, arcs)
		} else {
			offs = make([]int64, n+1)
		}
	})
	parallel(workers, func(i int) {
		// Pass two. A vertex stores one slot past its arcs at most, and past
		// the band's that is the next band's first, so from the first vertex
		// that could reach it on, the band's arcs go to tail and are copied
		// in after. The band's last vertex is in the last column, with four
		// arcs at most, so every band gets there.
		var tail [6]int32
		b, end := &bands[i], arcs
		if i+1 < workers {
			end = bands[i+1].arc
		}
		v, j := roadArcs(adj, b.arc, end-len(tail), 0, b.y0*w, b.y1*w, cells, offs, w)
		_, k := roadArcs(tail[:], 0, math.MaxInt, j, v, b.y1*w, cells, offs, w)
		copy(adj[j:], tail[:k])
	})
	return &Graph{N: n, Offsets: offs, Adj: adj}
}

// roadBand is one worker's rows [y0, y1) of a road grid.
type roadBand struct {
	y0, y1    int
	vals, blk []uint64 // an lfStream, and what is unread of the block lfAdvance last returned
	redraws   int      // values drawn again, here and in every band the stream ran through before
	edges     int      // the edges of the band's cells
	cross     int      // of those, the ones down or diagonal from its last row, into the next band
	arc       int      // the index in Adj of the band's first arc
}

// draw is pass one over the band's rows, with the thresholds t for dropFrac,
// the diagonal and 1: a row but the last draws right, down and diagonal for
// each cell but its last and down for that, the last row right for each but
// its last, 3w-2 values and w-1.
func (b *roadBand) draw(cells []uint8, w, h int, t [3]uint64) {
	tDrop, tDiag, tOne := t[0], t[1], t[2]
	blk, vals, redraws := b.blk, b.vals, b.redraws
	draw := func() uint64 { // the x behind the next Float64, which draws again on 1
		for {
			if len(blk) == 0 {
				blk = lfAdvance(vals)
			}
			x := blk[0] & (1<<63 - 1)
			if blk = blk[1:]; x < tOne {
				return x
			}
			redraws++
		}
	}
	edges, cross := 0, 0
	for y, c := b.y0, cells[w+1+b.y0*w:]; y < b.y1; y, c = y+1, c[w:] {
		cross = 0
		if y+1 < h {
			for x := 0; x < w-1; x++ {
				f := (draw()-tDrop)>>63 ^ 1 // (x-t)>>63 is x < t: neither passes 1<<63
				f |= ((draw()-tDrop)>>63 ^ 1) << 1
				f |= (draw() - tDiag) >> 63 << 2
				c[x] = uint8(f)
				edges += int(f & 1)
				cross += int(f>>1&1 + f>>2)
			}
			f := (draw()-tDrop)>>63 ^ 1
			c[w-1] = uint8(f << 1)
			cross += int(f)
		} else {
			for x := 0; x < w-1; x++ {
				f := (draw()-tDrop)>>63 ^ 1
				c[x] = uint8(f)
				edges += int(f)
			}
		}
		edges += cross
	}
	b.blk, b.redraws, b.edges, b.cross = blk, redraws, edges, cross
}

// roadArcs writes the arcs of vertex v and those after it, up to last, from
// a[j] on, and each vertex's end, plus off, into offs. Each arc is stored to
// its slot and kept by advancing, so a slot that was not kept is overwritten
// by the next store. It stops at the first vertex whose arcs start past cut,
// and returns that vertex and where its arcs start.
func roadArcs(a []int32, j, cut, off, v, last int, cells []uint8, offs []int64, w int) (int, int) {
	for ; v < last && j <= cut; v++ {
		upLeft, up, left, here := int(cells[v]), int(cells[v+1]), int(cells[v+w]), int(cells[v+w+1])
		a[j], j = int32(v-w-1), j+upLeft>>2
		a[j], j = int32(v-w), j+up>>1&1
		a[j], j = int32(v-1), j+left&1
		a[j], j = int32(v+1), j+here&1
		a[j], j = int32(v+w), j+here>>1&1
		a[j], j = int32(v+w+1), j+here>>2
		offs[v+1] = int64(off + j)
	}
	return v, j
}

// BarabasiAlbert generates a social-network proxy by preferential
// attachment: each new vertex attaches m edges to endpoints sampled
// proportionally to degree. Models soc-LiveJournal/orkut-style skew.
func BarabasiAlbert(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportional to degree.
	endpoints := make([]int32, 0, 2*n*m)
	start := m + 1
	if start > n {
		start = n
	}
	// Small seed clique.
	for v := 1; v < start; v++ {
		bld.AddEdge(int32(v), int32(v-1))
		endpoints = append(endpoints, int32(v), int32(v-1))
	}
	for v := start; v < n; v++ {
		for e := 0; e < m; e++ {
			var dst int32
			if len(endpoints) == 0 {
				dst = int32(rng.Intn(v))
			} else {
				dst = endpoints[rng.Intn(len(endpoints))]
			}
			bld.AddEdge(int32(v), dst)
			endpoints = append(endpoints, int32(v), dst)
		}
	}
	return bld.Build()
}

// HubSpoke generates a communication-network proxy (wiki-Talk,
// email-EuAll): a tiny core of hubs receives edges from almost everyone,
// most vertices have degree 1–2, and the degree distribution is extremely
// skewed.
func HubSpoke(n, hubs, avgDeg int, seed int64) *Graph {
	if hubs < 1 {
		hubs = 1
	}
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	for v := hubs; v < n; v++ {
		d := 1 + rng.Intn(avgDeg*2-1)
		for e := 0; e < d; e++ {
			// Zipf-ish hub choice: hub k with probability ∝ 1/(k+1).
			h := int32(zipfPick(rng, hubs))
			bld.AddEdge(int32(v), h)
		}
	}
	return bld.Directed().Build()
}

func zipfPick(rng *rand.Rand, n int) int {
	// Inverse-CDF sampling of P(k) ∝ 1/(k+1) via the harmonic sum.
	hn := harmonic(n)
	target := rng.Float64() * hn
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += 1.0 / float64(k+1)
		if acc >= target {
			return k
		}
	}
	return n - 1
}

func harmonic(n int) float64 {
	s := 0.0
	for k := 1; k <= n; k++ {
		s += 1.0 / float64(k)
	}
	return s
}

// WebGraph generates a web-graph proxy (web-Google/BerkStan/Stanford)
// using a more skewed R-MAT initiator, which yields the hub-and-authority
// structure and short effective diameter of web crawls.
func WebGraph(scale, edgeFactor int, seed int64) *Graph {
	return KroneckerABC(scale, edgeFactor, 0.65, 0.15, 0.15, seed)
}

// CitationDAG generates a citation-graph proxy (cit-Patents): vertex v
// cites earlier vertices with a bias toward recent and popular ones; the
// result is a DAG with moderate degree and moderate diameter.
func CitationDAG(n, avgCites int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	for v := 1; v < n; v++ {
		d := rng.Intn(2*avgCites + 1)
		for e := 0; e < d; e++ {
			// Recency bias: sample an offset with a squared-uniform
			// pull toward small values.
			f := rng.Float64()
			off := 1 + int(f*f*float64(v-1))
			u := v - off
			if u < 0 {
				u = 0
			}
			bld.AddEdge(int32(v), int32(u))
		}
	}
	return bld.Directed().Build()
}

// Community generates a purchase/co-occurrence proxy (com-amazon,
// amazon0601): dense clusters of size ~clusterSize with sparse
// inter-cluster edges, giving high clustering and mid-size diameter.
func Community(n, clusterSize, intraDeg int, interFrac float64, seed int64) *Graph {
	if clusterSize < 2 {
		clusterSize = 2
	}
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	clusters := (n + clusterSize - 1) / clusterSize
	for v := 0; v < n; v++ {
		c := v / clusterSize
		lo := c * clusterSize
		hi := lo + clusterSize
		if hi > n {
			hi = n
		}
		for e := 0; e < intraDeg; e++ {
			if rng.Float64() < interFrac && clusters > 1 {
				// Inter-cluster long link.
				u := rng.Intn(n)
				bld.AddEdge(int32(v), int32(u))
			} else if hi-lo > 1 {
				u := lo + rng.Intn(hi-lo)
				bld.AddEdge(int32(v), int32(u))
			}
		}
	}
	return bld.Dedup().Build()
}

// GenParams sizes a generator picked by name, in the terms of the flags
// aam-run and aam-graphgen share.
type GenParams struct {
	Scale int     // kron: log2 of the vertex count
	Deg   int     // kron, ba, community: average degree
	N     int     // er, road, ba, community: vertex count
	P     float64 // er: edge probability
	Seed  int64
}

// CheckGenParams rejects a Scale, Deg or N no generator takes, worded for
// the flag it came from: the generators word their own check as a panic. A
// road grid rounds N up to a square, and 46340² is the largest that 32-bit
// ids number; Kronecker's -deg is bounded by maxEdgeFactor.
func CheckGenParams(kind string, p GenParams) error {
	if p.Scale < 0 || p.Scale > 30 {
		return fmt.Errorf("-scale %d: want 0 to 30 (2^scale vertices, 32-bit ids)", p.Scale)
	}
	if p.Deg < 0 {
		return fmt.Errorf("-deg %d: want 0 or more", p.Deg)
	}
	if (kind == "kron" || kind == "web") && p.Deg > maxEdgeFactor(p.Scale) {
		return fmt.Errorf("-deg %d: want at most %d at -scale %d (the edges' draws overflow int)", p.Deg, maxEdgeFactor(p.Scale), p.Scale)
	}
	limit := math.MaxInt32
	if kind == "road" {
		limit = 46340 * 46340
	}
	if p.N < 0 || p.N > limit {
		return fmt.Errorf("-n %d: want 0 to %d (32-bit ids)", p.N, limit)
	}
	return nil
}

// Generate builds the graph the command-line tools call kind — kron, er,
// road (the smallest square grid of at least N vertices, a tenth of its
// links dropped), ba or community (clusters of 64, a twentieth of the
// links between them) — over parameters CheckGenParams has passed.
func Generate(kind string, p GenParams) (*Graph, error) {
	switch kind {
	case "kron":
		return Kronecker(p.Scale, p.Deg, p.Seed), nil
	case "er":
		return ErdosRenyi(p.N, p.P, p.Seed), nil
	case "road":
		side := 0
		for side*side < p.N {
			side++
		}
		return RoadGrid(side, side, 0.1, p.Seed), nil
	case "ba":
		return BarabasiAlbert(p.N, p.Deg, p.Seed), nil
	case "community":
		return Community(p.N, 64, p.Deg, 0.05, p.Seed), nil
	}
	return nil, fmt.Errorf("unknown graph kind %q", kind)
}
