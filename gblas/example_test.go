package gblas_test

import (
	"fmt"
	"slices"

	"aamgo"
	"aamgo/gblas"
)

// Example writes one road-network analysis three times in the linear
// algebra of the paper's §7: reachability as an or-and product, travel
// times as a min-plus product, and junction importance as a plus-times
// power iteration, all executing as AAM activities (coarsened hardware
// transactions) on the simulated machine. The façade's gblas engine, a
// vectorized masked SpMV with no AAM machine in the path, returns the
// same answers.
func Example() {
	// A road-like partial grid; weighted adds travel times.
	g := aamgo.RoadGrid(64, 64, 0.08, 11)
	wg := weighted(g)
	depot := g.N / 2
	fmt.Printf("road network: %d junctions, %d segments\n", g.N, g.NumEdges())
	eng := gblas.Engine{M: 24}

	// 1. Reachability: the levels of the or-and BFS are hop counts.
	bfs := gblas.NewBFS(g, 1, eng)
	m, err := gblas.Machine(bfs, "sim", "bgq", 1, 16, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	m.Run(bfs.Body(depot))
	reached, maxHop := 0, int64(0)
	for _, l := range bfs.Levels(m) {
		if l >= 0 {
			reached++
			maxHop = max(maxHop, l)
		}
	}
	fmt.Printf("or-and BFS: %d junctions reachable from the depot, eccentricity %d hops\n", reached, maxHop)

	// 2. Travel times: min-plus SSSP over the weighted segments.
	sssp := gblas.NewSSSP(wg, 1, eng)
	m2, err := gblas.Machine(sssp, "sim", "bgq", 1, 16, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	m2.Run(sssp.Body(depot))
	dists := sssp.Dists(m2)
	var far []uint64
	for _, d := range dists {
		if d != gblas.Infinity {
			far = append(far, d)
		}
	}
	slices.Sort(far)
	fmt.Printf("min-plus SSSP: median travel time %d, p99 %d\n", far[len(far)/2], far[len(far)*99/100])

	// 3. Junction importance: plus-times PageRank.
	pr := gblas.NewPageRank(g, 1, 0.85, 20, eng)
	m3, err := gblas.Machine(pr, "sim", "bgq", 1, 16, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	m3.Run(pr.Body())
	ranks := pr.Ranks(m3)
	top := 0
	for v, r := range ranks {
		if r > ranks[top] {
			top = v
		}
	}
	fmt.Printf("plus-times PageRank: most central junction %d (rank %.2e, degree %d)\n",
		top, ranks[top], g.Degree(top))

	// 4. The same algebra through the façade's gblas engine.
	cfg := aamgo.Config{Engine: aamgo.EngineGBLAS}
	res, err := aamgo.BFS(g, depot, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	facadeReached := 0
	for _, p := range res.Parents {
		if p >= 0 {
			facadeReached++
		}
	}
	fDists, _, err := aamgo.SSSP(wg, depot, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	agree := "identical"
	for v := range dists {
		if fDists[v] != dists[v] {
			agree = fmt.Sprintf("differ at %d: %d against %d", v, fDists[v], dists[v])
			break
		}
	}
	fmt.Printf("façade engine=gblas: %d reachable, distances against the machine run: %s\n",
		facadeReached, agree)
	// Output:
	// road network: 4096 junctions, 14974 segments
	// or-and BFS: 4095 junctions reachable from the depot, eccentricity 95 hops
	// min-plus SSSP: median travel time 1721, p99 3039
	// plus-times PageRank: most central junction 2724 (rank 3.42e-04, degree 6)
	// façade engine=gblas: 4095 reachable, distances against the machine run: identical
}

// weighted rebuilds g with symmetric travel-time weights of 1..120
// seconds per road segment.
func weighted(g *aamgo.Graph) *aamgo.Graph {
	base := aamgo.SymmetricWeight(99)
	b := aamgo.NewBuilder(g.N).WithWeights(func(u, v int32) uint32 {
		return base(u, v)%120 + 1
	})
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				b.AddEdge(int32(u), v)
			}
		}
	}
	return b.Dedup().Build()
}
