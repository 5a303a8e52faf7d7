package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// equalGraphs compares structure (per-vertex sorted adjacency + weights).
func equalGraphs(a, b *Graph) bool {
	if a.N != b.N || a.Directed != b.Directed || (a.Weights == nil) != (b.Weights == nil) {
		return false
	}
	for v := 0; v < a.N; v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		seen := map[int64]int{}
		for i, w := range na {
			k := int64(w) << 32
			if a.Weights != nil {
				k |= int64(a.EdgeWeights(v)[i])
			}
			seen[k]++
		}
		for i, w := range nb {
			k := int64(w) << 32
			if b.Weights != nil {
				k |= int64(b.EdgeWeights(v)[i])
			}
			seen[k]--
			if seen[k] < 0 {
				return false
			}
		}
	}
	return true
}

func TestMETISRoundTrip(t *testing.T) {
	g := Kronecker(8, 6, 3)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Kronecker graphs carry multi-edges; METIS round-trips arcs, so
	// compare through a deduplicated copy.
	if !equalGraphs(g, back) {
		t.Fatal("METIS round trip changed the graph")
	}
}

func TestMETISWeightedRoundTrip(t *testing.T) {
	b := NewBuilder(6).WithWeights(SymmetricWeight(7))
	for i := int32(0); i < 5; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(0, 5)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, back) {
		t.Fatal("weighted METIS round trip changed the graph")
	}
}

func TestMETISKnownFile(t *testing.T) {
	// The triangle + pendant from the METIS manual style: 4 vertices,
	// 4 edges, 1-indexed lists, '%' comments.
	in := `% tiny example
4 4
2 3
1 3 4
1 2
2
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 8 {
		t.Fatalf("parsed %d vertices, %d arcs; want 4, 8", g.N, g.NumEdges())
	}
	if g.Degree(1) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(1), g.Degree(3))
	}
}

func TestMETISRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header":        "x y\n",
		"vertex weights":    "2 1 11\n2 1\n1 1\n",
		"neighbor range":    "2 1\n3\n1\n",
		"count mismatch":    "3 5\n2\n1\n\n",
		"odd weight tokens": "2 1 001\n2\n1 7\n",
	}
	for name, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestMETISRejectsDirected(t *testing.T) {
	b := NewBuilder(3).Directed()
	b.AddEdge(0, 1)
	if err := WriteMETIS(&bytes.Buffer{}, b.Build()); err == nil {
		t.Fatal("directed graph accepted by METIS writer")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	check := func(seed int64, weighted, directed bool) bool {
		if seed < 0 {
			seed = -seed
		}
		seed = seed%1000 + 1
		var g *Graph
		if weighted {
			b := NewBuilder(50).WithWeights(SymmetricWeight(uint64(seed)))
			if directed {
				b.Directed()
			}
			for i := int32(0); i < 49; i++ {
				b.AddEdge(i, (i*7+int32(seed))%50)
			}
			g = b.Build()
		} else {
			g = Kronecker(7, 4, seed)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Log(err)
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Log(err)
			return false
		}
		if back.Directed != g.Directed {
			return false
		}
		if len(back.Adj) != len(g.Adj) || back.N != g.N {
			return false
		}
		for i := range g.Adj {
			if g.Adj[i] != back.Adj[i] {
				return false
			}
		}
		for i := range g.Offsets {
			if g.Offsets[i] != back.Offsets[i] {
				return false
			}
		}
		if g.Weights != nil {
			for i := range g.Weights {
				if g.Weights[i] != back.Weights[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBinaryFormatPinned pins the binary format byte for byte (the
// digests were taken from the writer that copied every array to unsigned
// words first) and checks that each graph reads back array for array.
func TestBinaryFormatPinned(t *testing.T) {
	dir := NewBuilder(5).Directed().WithWeights(SymmetricWeight(3))
	dir.AddEdge(0, 4)
	dir.AddEdge(4, 1)
	for _, c := range []struct {
		name   string
		g      *Graph
		size   int
		sha256 string
	}{
		{"kron", Kronecker(10, 8, 1), 73100, "309b2dd750380878474c1aacce20f75567c323fc6b534959ff30f559030b3cdb"},
		{"road", RoadGrid(32, 32, 0.1, 2), 22676, "dda138a4afa03ee9375c3efa5d2b39abc0467f864582f0a6f3724fd4c9816525"},
		{"weighted", AttachSymmetricWeights(Kronecker(8, 8, 2), 7), 34212, "f847104c57d2951132eb81162a628690006448446ba47394eab1fc4853e87aef"},
		{"directed", dir.Build(), 92, "95f40fcea479be143b98c9a1f7dc04fb351c209fb716b6aca7c7dc39cf21ce31"},
		{"empty", NewBuilder(0).Build(), 36, "5832646cb071d8809627662bb25d1948c709c99cbef6c4b9c7c3a8b497cf3867"},
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, c.g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if buf.Len() != c.size || hex.EncodeToString(sum[:]) != c.sha256 {
			t.Errorf("%s: wrote %d bytes, sha256 %x; want %d, %s", c.name, buf.Len(), sum, c.size, c.sha256)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if back.N != c.g.N || back.Directed != c.g.Directed || (back.Weights == nil) != (c.g.Weights == nil) ||
			!slices.Equal(back.Offsets, c.g.Offsets) || !slices.Equal(back.Adj, c.g.Adj) ||
			!slices.Equal(back.Weights, c.g.Weights) {
			t.Errorf("%s: graph differs after a round trip", c.name)
		}
	}
}

// hugeBinaryHeader is a well-formed 28-byte header claiming 2^28
// vertices and no arcs, followed by none of the arrays it promises.
func hugeBinaryHeader() []byte {
	return []byte("AAMG\x01\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x10\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00")
}

// TestReadBinaryAllocatesWhatItReads: a header's counts alone must not
// size an allocation. Sized from the header, this input would take 2 GiB
// of offsets before the first read failed.
func TestReadBinaryAllocatesWhatItReads(t *testing.T) {
	in := hugeBinaryHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no arrays behind it was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading %d bytes allocated %d bytes", len(in), got)
	}
}

// FuzzReadBinary: hostile binary input gets an error, never a panic, and
// whatever parses is a valid graph.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, AttachSymmetricWeights(Kronecker(4, 4, 1), 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hugeBinaryHeader())
	f.Add([]byte("AAMG"))
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("read an invalid graph: %v", err)
		}
	})
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := Kronecker(6, 4, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	// Truncation at every section boundary-ish point.
	for _, cut := range []int{3, 10, 20, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	// Out-of-range adjacency: flip a neighbor beyond n. The adjacency
	// section starts after magic+8+16+(n+1)*8.
	adjStart := 4 + 8 + 16 + (g.N+1)*8
	bad = append([]byte{}, raw...)
	bad[adjStart] = 0xff
	bad[adjStart+1] = 0xff
	bad[adjStart+2] = 0xff
	bad[adjStart+3] = 0x7f
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("out-of-range adjacency accepted")
	}
}

func TestBinaryVersionGate(t *testing.T) {
	g := Kronecker(5, 4, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version field
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("future version accepted")
	}
}
