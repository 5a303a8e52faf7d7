// Command aam-graphgen generates synthetic graphs (including the Table 1
// real-world structural proxies) and writes them as edge lists, METIS
// .graph files or the compact binary CSR format, or inspects an existing
// graph file (format auto-detected).
//
// Usage:
//
//	aam-graphgen -kind kron -scale 16 -deg 16 -out kron16.txt
//	aam-graphgen -kind table1 -id rCA -downshift 8 -format metis -out road.graph
//	aam-graphgen -kind er -n 100000 -p 0.0005 -format binary -out er.aamg
//	aam-graphgen -inspect kron16.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"aamgo"
	"aamgo/internal/graph"
)

func main() {
	var (
		kind      = flag.String("kind", "kron", "kron|er|road|ba|community|web|citation|table1")
		scale     = flag.Int("scale", 12, "kron/web: log2 vertex count")
		deg       = flag.Int("deg", 8, "average degree")
		n         = flag.Int("n", 4096, "er/road/ba/community/citation: vertices")
		p         = flag.Float64("p", 0.002, "er: probability")
		seed      = flag.Int64("seed", 1, "generator seed")
		id        = flag.String("id", "", "table1: graph id (cWT, sLV, rCA, ...)")
		downshift = flag.Uint("downshift", 8, "table1: shrink factor log2")
		out       = flag.String("out", "", "output file (default stdout)")
		format    = flag.String("format", "edges", "output format: edges|metis|binary")
		inspect   = flag.String("inspect", "", "inspect a graph file and exit (format auto-detected)")
		list      = flag.Bool("list", false, "list Table 1 graph ids and exit")
	)
	flag.Parse()
	params := graph.GenParams{Scale: *scale, Deg: *deg, N: *n, P: *p, Seed: *seed}
	if err := graph.CheckGenParams(*kind, params); err != nil {
		fmt.Fprintln(os.Stderr, "aam-graphgen:", err)
		os.Exit(2) // a usage error, as the flag package exits on one
	}

	if *list {
		for _, s := range graph.Table1Specs {
			fmt.Printf("%-4s %-16s class=%s |V|=%d |E|=%d\n", s.ID, s.Name, s.Class, s.V, s.E)
		}
		return
	}

	if *inspect != "" {
		f, err := os.Open(*inspect)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		g, err := aamgo.ReadAuto(f)
		if err != nil {
			fail(err)
		}
		describe(g)
		return
	}

	var g *aamgo.Graph
	switch *kind {
	case "web":
		g = aamgo.WebGraph(*scale, *deg, *seed)
	case "citation":
		g = aamgo.CitationDAG(*n, *deg, *seed)
	case "table1":
		spec, err := graph.SpecByID(*id)
		if err != nil {
			fail(err)
		}
		g = spec.Generate(*downshift, *seed)
	default: // the kinds aam-run generates too
		var err error
		if g, err = graph.Generate(*kind, params); err != nil {
			fail(err)
		}
	}

	describe(g)
	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	var err error
	switch *format {
	case "edges":
		err = aamgo.WriteEdgeList(w, g)
	case "metis":
		err = aamgo.WriteMETIS(w, g)
	case "binary":
		err = aamgo.WriteBinary(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fail(err)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
}

func describe(g *aamgo.Graph) {
	hist := g.DegreeHistogram()
	top := len(hist) - 1
	for top > 0 && hist[top] == 0 {
		top--
	}
	fmt.Fprintf(os.Stderr, "graph: |V|=%d |E|=%d d̄=%.2f maxdeg=%d degree-histogram-buckets=%d\n",
		g.N, g.NumEdges(), g.AvgDegree(), g.MaxDegree(), top+1)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aam-graphgen:", err)
	os.Exit(1)
}
