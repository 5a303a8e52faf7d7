// Quickstart: generate a power-law graph, traverse it with the AAM BFS on
// the simulated Blue Gene/Q machine, and compare the isolation mechanisms
// (coarse hardware transactions vs atomics vs locks) exactly as §4.1 of
// the paper does.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aamgo"
)

func main() {
	// A Graph500-style Kronecker graph: 2^14 vertices, ~2^18 edges.
	g := aamgo.Kronecker(14, 8, 42)
	src := 0
	for v, best := 0, -1; v < g.N; v++ {
		if d := g.Degree(v); d > best {
			src, best = v, d
		}
	}
	fmt.Printf("graph: %d vertices, %d edges, d̄=%.1f\n", g.N, g.NumEdges(), g.AvgDegree())

	// One BFS per isolation mechanism, all on the simulated BG/Q node
	// with 64 hardware threads. M=80 is near the optimum the paper finds
	// for the short-running HTM mode (§5.5.1).
	for _, mech := range []struct {
		name string
		m    aamgo.Mechanism
	}{
		{"hardware transactions (M=80)", aamgo.HTM},
		{"fine-grained atomics", aamgo.Atomic},
		{"per-vertex locks", aamgo.Lock},
	} {
		res, err := aamgo.BFS(g, src, aamgo.Config{
			Machine:   "bgq",
			Mechanism: mech.m,
			M:         80,
			Seed:      7,
		})
		if err != nil {
			log.Fatal(err)
		}
		visited := 0
		for _, p := range res.Parents {
			if p >= 0 {
				visited++
			}
		}
		fmt.Printf("%-30s %10v  visited=%d aborts=%d\n",
			mech.name, res.Elapsed, visited, res.Stats.TotalAborts())
	}

	// The same traversal on the native backend: real goroutines, real
	// atomics, and a software TM standing in for HTM.
	res, err := aamgo.BFS(g, src, aamgo.Config{Runtime: "native", Threads: 4, M: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-30s %10v  (wall clock, 4 goroutines)\n", "native backend", res.Elapsed)
}
