package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list: a header line
// "# aamgo n=<N> directed=<bool>" followed by one "u v [w]" line per stored
// arc of the lower vertex (undirected arcs are written once).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# aamgo n=%d directed=%t\n", g.N, g.Directed); err != nil {
		return err
	}
	for u := 0; u < g.N; u++ {
		base := g.Offsets[u]
		for i, v := range g.Neighbors(u) {
			if !g.Directed && int32(u) > v {
				continue // undirected: emit each edge once
			}
			var err error
			if g.Weights != nil {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", u, v, g.Weights[base+int64(i)])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. It also accepts
// SNAP-style headerless files ("# comment" lines plus "u v" pairs), in
// which case the vertex count is 1+max id and the graph is undirected —
// this mirrors the paper's extension of Graph500 to read graphs from files
// (§6.1.2).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var (
		n        = -1
		directed bool
		edges    []Edge
		weights  []uint32
		haveW    bool
		maxID    int64
		maxLine  int // the line maxID is on
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.Contains(line, "aamgo") {
				for _, f := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(f, "n="); ok {
						x, err := strconv.ParseInt(v, 10, 32)
						if err != nil || x < 0 {
							return nil, fmt.Errorf("graph: line %d: bad n=%s: want a vertex count", lineNo, v)
						}
						n = int(x)
					}
					if v, ok := strings.CutPrefix(f, "directed="); ok {
						directed = v == "true"
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id in %q", lineNo, line)
		}
		edges = append(edges, Edge{int32(u), int32(v)})
		if max(u, v) > maxID {
			maxID, maxLine = max(u, v), lineNo
		}
		if len(fields) >= 3 {
			w, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			weights = append(weights, uint32(w))
			haveW = true
		} else {
			weights = append(weights, 0)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 && maxID == 1<<31-1 {
		return nil, fmt.Errorf("graph: line %d: vertex id %d leaves no int32 vertex count", maxLine, maxID)
	} else if n < 0 {
		n = int(maxID) + 1
	} else if len(edges) > 0 && maxID >= int64(n) {
		return nil, fmt.Errorf("graph: line %d: vertex id %d out of range, header says n=%d", maxLine, maxID, n)
	}
	wmap := make(map[[2]int32]uint32, len(edges))
	bld := NewBuilder(n)
	if directed {
		bld.Directed()
	}
	for i, e := range edges {
		bld.AddEdge(e.U, e.V)
		if haveW {
			a, b := e.U, e.V
			if !directed && a > b {
				a, b = b, a
			}
			wmap[[2]int32{a, b}] = weights[i]
		}
	}
	if haveW {
		bld.WithWeights(func(u, v int32) uint32 {
			a, b := u, v
			if !directed && a > b {
				a, b = b, a
			}
			return wmap[[2]int32{a, b}]
		})
	}
	return bld.Build(), nil
}
