package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// METIS .graph format support (the de-facto interchange format of the
// partitioning world, accepted by Galois and many graph engines): a header
// line "n m [fmt]" followed by one line per vertex listing its 1-indexed
// neighbors, with interleaved edge weights when fmt ends in 1. Undirected
// only — METIS requires each edge to appear in both endpoint lists.

// WriteMETIS writes g in METIS .graph format. Directed graphs are
// rejected; multi-edges are emitted as-is (METIS tools tolerate them).
func WriteMETIS(w io.Writer, g *Graph) error {
	if g.Directed {
		return fmt.Errorf("graph: METIS format is undirected")
	}
	bw := bufio.NewWriter(w)
	m := g.NumEdges() / 2 // stored arcs are 2x logical edges
	format := "0"
	if g.Weights != nil {
		format = "001"
	}
	if _, err := fmt.Fprintf(bw, "%d %d %s\n", g.N, m, format); err != nil {
		return err
	}
	for v := 0; v < g.N; v++ {
		base := g.Offsets[v]
		for i, u := range g.Neighbors(v) {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d", u+1); err != nil {
				return err
			}
			if g.Weights != nil {
				if _, err := fmt.Fprintf(bw, " %d", g.Weights[base+int64(i)]); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMETIS parses a METIS .graph file. Supported fmt codes: absent, "0",
// "1"/"001" (edge weights); vertex weights ("10"/"11"/"011") are rejected.
// Comment lines start with '%'.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Header.
	var n, m int
	edgeWeights := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("graph: METIS header needs 'n m [fmt]', got %q", line)
		}
		var err error
		if n, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("graph: METIS header n: %v", err)
		}
		if m, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("graph: METIS header m: %v", err)
		}
		if len(f) >= 3 {
			switch strings.TrimLeft(f[2], "0") {
			case "":
				// "0", "00", ... : no weights
			case "1":
				if strings.HasSuffix(f[2], "1") && !strings.HasSuffix(f[2], "11") {
					edgeWeights = true
				} else {
					return nil, fmt.Errorf("graph: METIS fmt %q (vertex weights) unsupported", f[2])
				}
			default:
				return nil, fmt.Errorf("graph: METIS fmt %q unsupported", f[2])
			}
		}
		break
	}

	type arcW struct {
		u, v int32
		w    uint32
	}
	var arcs []arcW
	v := int32(0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		if int(v) >= n {
			if line != "" {
				return nil, fmt.Errorf("graph: METIS has more than %d vertex lines", n)
			}
			continue
		}
		f := strings.Fields(line)
		step := 1
		if edgeWeights {
			step = 2
		}
		if len(f)%step != 0 {
			return nil, fmt.Errorf("graph: METIS vertex %d: odd token count with edge weights", v+1)
		}
		for i := 0; i < len(f); i += step {
			u64, err := strconv.ParseInt(f[i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: METIS vertex %d: %v", v+1, err)
			}
			u := int32(u64) - 1 // 1-indexed
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("graph: METIS vertex %d: neighbor %d out of range", v+1, u64)
			}
			var wgt uint32
			if edgeWeights {
				w64, err := strconv.ParseUint(f[i+1], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("graph: METIS vertex %d: weight: %v", v+1, err)
				}
				wgt = uint32(w64)
			}
			arcs = append(arcs, arcW{u: v, v: u, w: wgt})
		}
		v++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if int(v) != n {
		return nil, fmt.Errorf("graph: METIS has %d vertex lines, header says %d", v, n)
	}
	if len(arcs) != 2*m {
		return nil, fmt.Errorf("graph: METIS lists %d arcs, header says %d edges", len(arcs), m)
	}

	// Each undirected edge appears in both lists; keep the u<v copy
	// (METIS disallows self-loops; any present are dropped).
	wmap := make(map[[2]int32]uint32, m)
	b := NewBuilder(n)
	for _, a := range arcs {
		if a.u >= a.v {
			continue
		}
		b.AddEdge(a.u, a.v)
		if edgeWeights {
			wmap[[2]int32{a.u, a.v}] = a.w
		}
	}
	if edgeWeights {
		b.WithWeights(func(x, y int32) uint32 {
			if x > y {
				x, y = y, x
			}
			return wmap[[2]int32{x, y}]
		})
	}
	return b.Build(), nil
}

// Binary CSR format: a compact, mmap-friendly on-disk representation used
// for large inputs where text parsing dominates load time.
//
//	magic "AAMG" | version u32 | flags u32 (1=directed, 2=weighted)
//	n u64 | arcs u64 | offsets (n+1)×u64 | adj arcs×u32 | weights arcs×u32
//
// All fields are little-endian. The arrays are written straight from the
// graph's []int64/[]int32/[]uint32: two's complement makes those the
// same bytes as the format's unsigned fields.

const (
	binMagic     = "AAMG"
	binVersion   = 1
	binHeaderLen = 4 + 4 + 4 + 8 + 8

	binFlagDirected = 1 << 0
	binFlagWeighted = 1 << 1

	// binChunk is how many array bytes ReadBinary reads per step.
	binChunk = 64 << 10
)

// WriteBinary writes g in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	g = g.Flat() // the format stores the raw flat arrays
	flags := uint32(0)
	if g.Directed {
		flags |= binFlagDirected
	}
	if g.Weights != nil {
		flags |= binFlagWeighted
	}
	hdr := append(make([]byte, 0, binHeaderLen), binMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, binVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.N))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(g.Adj)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, arr := range []any{g.Offsets, g.Adj, g.Weights} { // nil Weights writes nothing
		if err := binary.Write(w, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses the binary CSR format, validating structure (monotone
// offsets, in-range adjacency). The arrays grow with the bytes actually
// read, not with the header's counts: input that claims more than it
// holds fails at its end, having allocated in proportion to what it held.
func ReadBinary(r io.Reader) (*Graph, error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	le := binary.LittleEndian
	if version := le.Uint32(hdr[4:]); version != binVersion {
		return nil, fmt.Errorf("graph: binary version %d unsupported", version)
	}
	flags := le.Uint32(hdr[8:])
	n, arcs := le.Uint64(hdr[12:]), le.Uint64(hdr[20:])
	const maxVerts = 1 << 31
	if n > maxVerts || arcs > 1<<40 {
		return nil, fmt.Errorf("graph: binary header implausible (n=%d, arcs=%d)", n, arcs)
	}
	g := &Graph{N: int(n), Directed: flags&binFlagDirected != 0}
	buf := make([]byte, binChunk)
	var err error
	if g.Offsets, err = readArray[int64](r, n+1, buf); err != nil {
		return nil, fmt.Errorf("graph: binary offsets: %w", err)
	}
	if g.Offsets[0] != 0 {
		return nil, fmt.Errorf("graph: binary offsets start at %d, want 0", g.Offsets[0])
	}
	for i, o := range g.Offsets[1:] {
		if o < g.Offsets[i] || uint64(o) > arcs {
			return nil, fmt.Errorf("graph: binary offsets not monotone at %d", i+1)
		}
	}
	if end := uint64(g.Offsets[n]); end != arcs {
		return nil, fmt.Errorf("graph: binary offsets end at %d, want %d", end, arcs)
	}
	if g.Adj, err = readArray[int32](r, arcs, buf); err != nil {
		return nil, fmt.Errorf("graph: binary adjacency: %w", err)
	}
	for _, a := range g.Adj {
		if a < 0 || uint64(a) >= n {
			return nil, fmt.Errorf("graph: binary adjacency %d out of range", uint32(a))
		}
	}
	if flags&binFlagWeighted != 0 {
		if g.Weights, err = readArray[uint32](r, arcs, buf); err != nil {
			return nil, fmt.Errorf("graph: binary weights: %w", err)
		}
	}
	return g, nil
}

// readArray reads count little-endian values through buf. The result
// starts at one buf's worth and at most doubles per step: its capacity
// never exceeds count, nor twice the values read plus one buf's worth.
func readArray[T int32 | int64 | uint32](r io.Reader, count uint64, buf []byte) ([]T, error) {
	size := uint64(binary.Size(T(0)))
	step := uint64(len(buf)) / size
	out := make([]T, 0, min(count, step))
	for uint64(len(out)) < count {
		have := uint64(len(out))
		k := min(count-have, step)
		if uint64(cap(out)) < have+k {
			out = append(make([]T, 0, min(count, max(2*have, have+k))), out...)
		}
		b := buf[:k*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		out = out[:have+k]
		// b holds exactly the k values the destination takes: no error.
		_, _ = binary.Decode(b, binary.LittleEndian, out[have:])
	}
	return out, nil
}
