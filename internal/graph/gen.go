package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
	if scale < 0 || scale > 30 || edgeFactor < 0 {
		panic(fmt.Sprintf("graph: Kronecker scale %d outside [0,30] or edge factor %d negative", scale, edgeFactor))
	}
	n := 1 << uint(scale)
	src := rand.NewSource(seed).(rand.Source64)
	perm := make([]int32, n)
	for i, p := range rand.New(src).Perm(n) {
		perm[i] = int32(p)
	}
	bld := NewBuilder(n)
	bld.edges = rmatEdges(lfStream(src), perm, scale, edgeFactor*n, a+b, a, c/(1-a-b))
	return bld.Build()
}

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

// rmatEdges draws m R-MAT edges over 2^scale vertices from the stream vals
// (an lfStream) holds and labels them through perm. A value is one step of a
// machine whose state is one bit, second (the value is the second draw of a
// lower-half bit), and whose output is one byte per descended bit — bit 0 the
// half, bit 1 the side — stored always and kept by advancing: nothing the next
// value waits for is loaded or branched on. Every scale bytes are then packed
// into an edge, eight to a multiplication.
func rmatEdges(vals []uint64, perm []int32, scale, m int, ab, a, cNorm float64) []Edge {
	// For x < 1<<63 and a bound t ≤ 1<<63, (x-t)>>63 is 1 if x < t, else 0.
	tAB, tOne := floatThreshold(ab), floatThreshold(1)
	tSide := [2]uint64{floatThreshold(a), floatThreshold(cNorm)}
	edges := make([]Edge, 0, m)
	bits := make([]uint8, scale+lfBlock+8) // the bytes of an unfinished edge, then a block's; packing reads 8 at a time
	have, second := 0, uint64(0)
	for {
		done := 0
		for ; len(edges) < m && have-done >= scale; done += scale {
			// Bit 0 of byte i times 1<<(7·(8-i)) is bit 56+i, and no two of
			// the 64 partial products share a bit: nothing carries into it.
			u, v := uint64(0), uint64(0)
			for i := 0; i < scale; i += 8 {
				x := binary.LittleEndian.Uint64(bits[done+i:])
				u |= x & 0x0101010101010101 * 0x0102040810204080 >> 56 << i
				v |= x >> 1 & 0x0101010101010101 * 0x0102040810204080 >> 56 << i
			}
			edges = append(edges, Edge{perm[u&(1<<scale-1)], perm[v&(1<<scale-1)]}) // less what was read of the next edge
		}
		if len(edges) == m {
			return edges
		}
		have = copy(bits, bits[done:have])
		for _, x := range lfAdvance(vals) {
			x &= 1<<63 - 1
			if x >= tOne {
				continue // Float64 draws again on 1
			}
			upper := (x - tAB) >> 63
			bits[have] = uint8(second | ((x-tSide[second])>>63^1)<<1)
			have += int(second | upper)
			second = (second | upper) ^ 1
		}
	}
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
	return roadGridCSR(w, h, dropFrac, lfStream(rand.NewSource(seed).(rand.Source64)))
}

// roadGridCSR is RoadGrid over the stream vals (an lfStream) holds. Vertex
// v = y·w+x has at most the neighbours v-w-1, v-w, v-1, v+1, v+w, v+w+1, each
// through one edge, so pass one draws, keeps a cell's three bits (1 right, 2
// down, 4 diagonal) at cells[w+1+v] and counts arcs, and pass two writes each
// segment ascending from the bits of the cell and of those up-left, up and
// left of it: no edge list, no sort. Off the grid those read 0: cells starts
// with a zero row, and a last column or row never has the bit that would wrap.
func roadGridCSR(w, h int, dropFrac float64, vals []uint64) *Graph {
	tDrop, tDiag, tOne := floatThreshold(dropFrac), floatThreshold(0.02), floatThreshold(1)
	var blk []uint64
	draw := func() uint64 { // the x behind the next Float64, which draws again on 1
		for {
			if len(blk) == 0 {
				blk = lfAdvance(vals)
			}
			x := blk[0] & (1<<63 - 1)
			if blk = blk[1:]; x < tOne {
				return x
			}
		}
	}
	n, arcs := w*h, 0
	cells := make([]uint8, w+1+n)
	for y, c := 0, cells[w+1:]; y < h; y, c = y+1, c[w:] {
		for x := 0; x < w; x++ {
			var f uint64 // (x-t)>>63 is x < t: neither passes 1<<63
			if x+1 < w {
				f = (draw()-tDrop)>>63 ^ 1
			}
			if y+1 < h {
				f |= ((draw()-tDrop)>>63 ^ 1) << 1
			}
			if x+1 < w && y+1 < h {
				f |= (draw() - tDiag) >> 63 << 2
			}
			c[x] = uint8(f)
			arcs += 2 * int(f&1+f>>1&1+f>>2)
		}
	}
	offs, adj := make([]int64, n+1), make([]int32, arcs+5)
	for v, j := 0, 0; v < n; v++ {
		upLeft, up, left, here := int(cells[v]), int(cells[v+1]), int(cells[v+w]), int(cells[v+w+1])
		adj[j], j = int32(v-w-1), j+upLeft>>2 // a slot is stored to, then kept by advancing
		adj[j], j = int32(v-w), j+up>>1&1
		adj[j], j = int32(v-1), j+left&1
		adj[j], j = int32(v+1), j+here&1
		adj[j], j = int32(v+w), j+here>>1&1
		adj[j], j = int32(v+w+1), j+here>>2
		offs[v+1] = int64(j)
	}
	return &Graph{N: n, Offsets: offs, Adj: adj[:arcs:arcs]}
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
// ids number.
func CheckGenParams(kind string, p GenParams) error {
	if p.Scale < 0 || p.Scale > 30 {
		return fmt.Errorf("-scale %d: want 0 to 30 (2^scale vertices, 32-bit ids)", p.Scale)
	}
	if p.Deg < 0 {
		return fmt.Errorf("-deg %d: want 0 or more", p.Deg)
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
		side := 1
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
