package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// descents returns the values the R-MAT tests run descendKernel at: false,
// descendBlock taking every value, and true where the CPU has descendWords.
// The var is put back when the test ends.
func descents(t *testing.T) []bool {
	on := descendKernel
	t.Cleanup(func() { descendKernel = on })
	if !hasDescendWords() {
		t.Log("descendWords is not on this CPU: only descendBlock is tested")
		return []bool{false}
	}
	return []bool{false, true}
}

// TestDescendWordsMatchesDescendBlock holds the kernel to descendBlock over
// the values it reads, from 0 to 2048 of them, on both states and every
// initiator's thresholds, with thresholds of 0 and of one, with values next
// to each threshold, and with values drawn again planted at a chunk's first
// and last value and twice in a row: the stream values stored, the half and
// side bits, their count and the second draw due after. The kernel must
// stop before the first chunk with a value drawn again, and before the
// values short of a chunk.
func TestDescendWordsMatchesDescendBlock(t *testing.T) {
	if !hasDescendWords() {
		t.Skip("descendWords is not on this CPU: descendBlock takes every value")
	}
	t.Log("descendWords is on this CPU")
	one := floatThreshold(1)
	var ths [][4]uint64
	for _, in := range initiators {
		ab, cNorm := in.a+in.b, in.c/(1-in.a-in.b)
		ths = append(ths, [4]uint64{min(floatThreshold(ab), one), min(floatThreshold(in.a), one), min(floatThreshold(cNorm), one), one})
	}
	ths = append(ths, [4]uint64{0, 0, 0, one}, [4]uint64{one, one, one, one}, [4]uint64{one, 0, one, one}, [4]uint64{0, one, 0, one})
	var lengths []int
	for n := 0; n <= 2048; n++ {
		if n <= 130 || n%256 == 0 || n%256 == 255 {
			lengths = append(lengths, n)
		}
	}
	redraws := []uint64{1<<63 - 512, 1<<63 - 1, 1<<64 - 1, 1<<64 - 300}
	rng := rand.New(rand.NewSource(1))
	buf := make([]uint8, 64+lfBlock)
	var out [3 * lfBlock / 64]uint64
	for _, n := range lengths {
		// Where the values drawn again go, in chunk k: none, the first, the
		// last, two in a row inside and two across the chunk's end.
		k := rng.Intn(min(n/64, lfLen/64-1) + 1)
		for _, at := range [][]int{nil, {64 * k}, {64*k + 63}, {64*k + 20, 64*k + 21}, {64*k + 63, 64*k + 64}} {
			for ti, th := range ths {
				vals := make([]uint64, lfLen+n)
				for i := range vals {
					vals[i] = rng.Uint64()
				}
				for _, x := range th[:3] {
					for d := range uint64(3) {
						if x+d >= 1 && x+d-1 < one {
							vals[rng.Intn(lfLen)] = x + d - 1 | uint64(rng.Intn(2))<<63
						}
					}
				}
				for i, j := range at {
					vals[j] = redraws[(ti+i)%len(redraws)]
				}
				want := slices.Clone(vals) // the stream, and how far the kernel reads it
				for j := range n {
					want[lfLen+j] = want[j] + want[j+lfLen-lfTap]
				}
				wantN := n &^ 63
				for j := range wantN {
					if want[j]&(1<<63-1) >= one {
						wantN = j &^ 63
						break
					}
				}
				for second := range uint64(2) {
					words, block := slices.Clone(vals), slices.Clone(vals)
					c, next := descendWords(words, out[:], second, &th)
					have, wantNext := descendBlock(block[:lfLen+c], buf, second, th[3], th[0], [2]uint64{th[1] - 1, th[2] - 1})
					if c != wantN {
						t.Fatalf("n=%d at=%v th=%d second=%d: descendWords read %d values, want %d", n, at, ti, second, c, wantN)
					}
					if !slices.Equal(words[:lfLen+c], want[:lfLen+c]) || !slices.Equal(block[:lfLen+c], want[:lfLen+c]) {
						t.Fatalf("n=%d at=%v th=%d second=%d: the stored stream differs", n, at, ti, second)
					}
					var got, exp rmatPiece
					for w := out[:3*c/64]; len(w) > 0; w = w[3:] {
						got.put(w[0], w[1], int(w[2]))
					}
					clear(buf[have : (have+63)&^63])
					for done := 0; done < have; done += 64 {
						u, v := gather64(buf[done:])
						exp.put(u, v, min(64, have-done))
					}
					if got.len() != exp.len() || !slices.Equal(got.u, exp.u) || !slices.Equal(got.v, exp.v) || got.pu != exp.pu || got.pv != exp.pv || next != wantNext {
						t.Fatalf("n=%d at=%v th=%d second=%d: descendWords kept %d bits, second %d; descendBlock %d, second %d, or the bits differ", n, at, ti, second, got.len(), next, exp.len(), wantNext)
					}
				}
			}
		}
	}
}
