package gblas_test

import (
	"math"
	"testing"

	"aamgo"
	"aamgo/gblas"
)

// Facade smoke tests: the public package must expose working constructors
// and machine plumbing; deep semantics are tested in internal/gblas.

func TestPublicBFS(t *testing.T) {
	g := aamgo.Kronecker(9, 8, 3)
	b := gblas.NewBFS(g, 1, gblas.Engine{M: 8})
	m, err := gblas.Machine(b, "sim", "bgq", 1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(b.Body(0))
	levels := b.Levels(m)
	if levels[0] != 0 {
		t.Fatalf("source level = %d, want 0", levels[0])
	}
	reached := 0
	for _, l := range levels {
		if l >= 0 {
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("BFS reached only %d vertices", reached)
	}
}

func TestPublicSSSPAndSemirings(t *testing.T) {
	base := aamgo.SymmetricWeight(5)
	b := aamgo.NewBuilder(64).WithWeights(func(u, v int32) uint32 { return base(u, v)%50 + 1 })
	for i := int32(0); i < 63; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	s := gblas.NewSSSP(g, 1, gblas.Engine{M: 4, Mechanism: aamgo.Optimistic})
	m, err := gblas.Machine(s, "sim", "has-c", 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(s.Body(0))
	d := s.Dists(m)
	if d[0] != 0 {
		t.Fatalf("source distance = %d", d[0])
	}
	// Path graph: distances strictly increase along the chain.
	for i := 1; i < 64; i++ {
		if d[i] <= d[i-1] || d[i] == gblas.Infinity {
			t.Fatalf("distance not increasing at %d: %d then %d", i, d[i-1], d[i])
		}
	}
}

func TestPublicPageRank(t *testing.T) {
	g := aamgo.Kronecker(8, 8, 4)
	p := gblas.NewPageRank(g, 1, 0.85, 8, gblas.Engine{M: 16})
	m, err := gblas.Machine(p, "sim", "bgq", 1, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(p.Body())
	sum := 0.0
	for _, r := range p.Ranks(m) {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Fatalf("rank mass = %g out of (0,1]", sum)
	}
}

func TestPublicSemiringCodecs(t *testing.T) {
	if gblas.ToF64(gblas.F64(2.5)) != 2.5 {
		t.Fatal("F64 round trip")
	}
	sr := gblas.MinPlus()
	if sr.Add(7, 9) != 7 || sr.Mul(7, 9) != 16 {
		t.Fatal("min-plus laws")
	}
	if gblas.Infinity != math.MaxUint64 {
		t.Fatal("Infinity sentinel")
	}
}

func TestPublicMachineRejectsUnknownProfile(t *testing.T) {
	g := aamgo.Kronecker(6, 4, 1)
	b := gblas.NewBFS(g, 1, gblas.Engine{})
	if _, err := gblas.Machine(b, "sim", "cray-xc40", 1, 4, 1); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := gblas.Machine(b, "gpu", "has-c", 1, 4, 1); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}
