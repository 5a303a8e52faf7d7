package graph

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestReadEdgeListRejects(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"negative endpoint", "0 1\n0 -1\n", "line 2: negative vertex id"},
		{"negative source", "-4 1\n", "line 1: negative vertex id"},
		{"id past header n", "# aamgo n=2\n0 1\n0 5\n", "line 3: vertex id 5 out of range, header says n=2"},
		{"id equal to header n", "# aamgo n=2 directed=true\n2 0\n", "line 2: vertex id 2 out of range"},
		{"header after the edge", "0 7\n# aamgo n=3\n", "line 1: vertex id 7 out of range"},
		{"negative n", "# aamgo n=-3\n", "line 1: bad n=-3"},
		{"n past int32", "# aamgo n=4294967296\n", "line 1: bad n=4294967296"},
		{"n not a number", "# aamgo n=many\n0 1\n", "line 1: bad n=many"},
		{"one field", "0 1\n7\n", "line 2: want 'u v [w]'"},
		{"id past int32", "0 2147483648\n", "line 1:"},
		{"headerless id at int32's end", "0 1\n2147483647 0\n", "line 2: vertex id 2147483647 leaves no"},
		{"bad weight", "0 1 -2\n", "line 1:"},
	} {
		g, err := ReadEdgeList(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: read %q as a graph of %d vertices, want an error", c.name, c.in, g.N)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.want)
		}
	}
	// The header's n may exceed every id: trailing isolated vertices.
	g, err := ReadEdgeList(strings.NewReader("# aamgo n=5 directed=false\n0 1\n"))
	if err != nil || g.N != 5 || g.NumEdges() != 2 {
		t.Fatalf("n=5 with one edge: %+v, %v", g, err)
	}
}

// FuzzReadEdgeList sits beside the wire and WAL fuzzers: hostile text gets
// an error, never a panic, and whatever parses is a valid graph that
// survives a write and a second read. A graph takes memory in proportion
// to its largest id by design, so inputs with a number of more than five
// digits are left out.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# aamgo n=4 directed=false\n0 1\n1 2 7\n3 3\n")
	f.Add("# Directed graph\n0 1\n1 2\n2 0\n")
	f.Add("0 -1")
	f.Add("# aamgo n=2\n0 5")
	f.Add("# aamgo n=-3\n")
	f.Add("# aamgo n=1 directed=true\n\n0 0 99999\n")
	f.Add("1\n")
	f.Add("")
	long := regexp.MustCompile(`[0-9]{6}`)
	f.Fuzz(func(t *testing.T, in string) {
		if long.MatchString(in) {
			t.Skip()
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("read an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("second read of %q: %v", buf.String(), err)
		}
		if g2.N != g.N || g2.Directed != g.Directed {
			t.Fatalf("second read: N %d -> %d, directed %t -> %t", g.N, g2.N, g.Directed, g2.Directed)
		}
	})
}
