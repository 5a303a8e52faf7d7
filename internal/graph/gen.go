package graph

import (
	"math"
	"math/rand"
	"slices"
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
// Float64 and, in the lower half, a second — with the drawing moved to a
// second goroutine (rmatStream).
func KroneckerABC(scale, edgeFactor int, a, b, c float64, seed int64) *Graph {
	n := 1 << uint(scale)
	m := edgeFactor * n
	src := rand.NewSource(seed)
	perm := make([]int32, n)
	for i, p := range rand.New(src).Perm(n) {
		perm[i] = int32(p)
	}
	bld := NewBuilder(n)
	bld.edges = make([]Edge, 0, m)

	next, stop := rmatStream(src, a+b, a, c/(1-a-b), 2*scale)
	defer stop()
	var vals []uint8
	for e := 0; e < m; e++ {
		if len(vals) < 2*scale {
			vals = next(vals)
		}
		u, v, i := 0, 0, 0
		for bit := 0; bit < scale; bit++ {
			// Branch-free (a value's quadrant is a coin toss the predictor
			// loses), and i, the only loop-carried value, is one load and
			// one add away from its successor.
			q, q2 := int(vals[i]), int(vals[i+1])
			lower := q & 1
			right := q>>1&1 | q2>>1&2 // bit 0 if the edge stays up, bit 1 if it goes down
			u |= lower << uint(bit)
			v |= (right >> uint(lower) & 1) << uint(bit)
			i += 1 + lower
		}
		vals = vals[i:]
		bld.edges = append(bld.edges, Edge{perm[u], perm[v]})
	}
	return bld.Build()
}

// rmatStream draws the value stream of (*rand.Rand).Float64 over src —
// float64(src.Int63())/(1<<63), redrawn on 1 — on a goroutine of its own.
// Of a value r it keeps the comparisons the R-MAT descent can make with it:
// bit 0, r ≥ ab (lower half, and the bit draws a second value); bit 1, r ≥ a
// (upper half, right quadrant); bit 2, r ≥ cNorm (lower half, right
// quadrant, r being the second value). They come in recycled chunks of 16k,
// so the channel costs nothing per value and the chunks stay in L1:
// next(rest) returns the following chunk with rest, the at most keep values
// the caller has left, in front of it. The producer runs ahead of the caller
// and what it draws past the caller's last value is lost, so src must be
// private to the call. stop ends the producer and waits for it.
func rmatStream(src rand.Source, ab, a, cNorm float64, keep int) (next func(rest []uint8) []uint8, stop func()) {
	const chunks = 3 // one being read, one ready, one being filled
	free := make(chan []uint8, chunks)
	full := make(chan []uint8, chunks) // room for all, so no send ever blocks
	done := make(chan struct{})
	cur := make([]uint8, keep+16<<10)
	for i := 1; i < chunks; i++ {
		free <- slices.Clone(cur)
	}
	ge := func(r, t float64) uint8 {
		if r >= t {
			return 1
		}
		return 0
	}
	go func() {
		defer close(full)
		for {
			select {
			case <-done:
				return
			case buf := <-free:
				for i := keep; i < len(buf); i++ {
					r := float64(src.Int63()) / (1 << 63)
					for r == 1 {
						r = float64(src.Int63()) / (1 << 63)
					}
					buf[i] = ge(r, ab) | ge(r, a)<<1 | ge(r, cNorm)<<2
				}
				full <- buf
			}
		}
	}()
	next = func(rest []uint8) []uint8 {
		buf := <-full
		at := keep - len(rest)
		copy(buf[at:], rest) // rest is the tail of cur: out before cur goes back
		free <- cur
		cur = buf
		return buf[at:]
	}
	stop = func() {
		close(done)
		for range full {
		}
	}
	return next, stop
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
// very large diameter — the regime of roadNet-CA/TX/PA in Table 1.
func RoadGrid(w, h int, dropFrac float64, seed int64) *Graph {
	n := w * h
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	bld.edges = make([]Edge, 0, 2*n) // 2.02 per cell at most, less what is dropped
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w && rng.Float64() >= dropFrac {
				bld.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h && rng.Float64() >= dropFrac {
				bld.AddEdge(id(x, y), id(x, y+1))
			}
			if x+1 < w && y+1 < h && rng.Float64() < 0.02 {
				bld.AddEdge(id(x, y), id(x+1, y+1))
			}
		}
	}
	return bld.Dedup().Build()
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
