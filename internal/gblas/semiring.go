// Package gblas implements a GraphBLAS-style abstraction on top of the AAM
// runtime. The paper's related-work discussion (§7) positions AAM as a
// mechanism that "can be used to implement the GraphBLAS abstraction and to
// accelerate the performance of graph analytics based on sparse linear
// algebra computations" — this package is that layer: graph algorithms are
// expressed as masked sparse-vector × matrix products over a semiring, and
// every accumulation y[w] ⊕= x[v] ⊗ a(v,w) executes as an AAM activity
// (coarsened hardware transactions, atomics, locks, OCC or flat combining).
//
// Elements are machine words (uint64); semirings define their own encoding
// (IEEE-754 bits for the real field, saturating integers for tropical
// min-plus, 0/1 for Boolean). The three standard semirings cover the
// package's algorithm layer: Boolean or-and (BFS), tropical min-plus
// (SSSP and CC), and real plus-times (PageRank).
package gblas

import "math"

// Semiring is a commutative monoid (Add, Zero) with a combining operator
// Mul, over word-encoded elements. Add must be commutative and associative
// with identity Zero; accumulation order is unspecified (activities commit
// in arbitrary order), so these laws are what make results well-defined.
type Semiring struct {
	Name string
	// Zero is the Add identity and the implicit value of vector entries.
	Zero uint64
	// One is the Mul identity (the default edge weight).
	One uint64
	Add func(a, b uint64) uint64
	Mul func(a, b uint64) uint64
}

// OrAnd is the Boolean semiring ⟨∨, ∧, 0⟩ over {0,1}: the BFS semiring.
func OrAnd() Semiring {
	return Semiring{
		Name: "or-and",
		Zero: 0,
		One:  1,
		Add:  func(a, b uint64) uint64 { return boolWord(a != 0 || b != 0) },
		Mul:  func(a, b uint64) uint64 { return boolWord(a != 0 && b != 0) },
	}
}

// MinPlus is the tropical semiring ⟨min, +, ∞⟩ over saturating uint64
// distances: the SSSP semiring. Infinity is math.MaxUint64; addition
// saturates so ∞ + w = ∞.
func MinPlus() Semiring {
	return Semiring{
		Name: "min-plus",
		Zero: math.MaxUint64,
		One:  0,
		Add: func(a, b uint64) uint64 {
			if a < b {
				return a
			}
			return b
		},
		Mul: func(a, b uint64) uint64 {
			if a == math.MaxUint64 || b == math.MaxUint64 {
				return math.MaxUint64
			}
			s := a + b
			if s < a { // overflow saturates to ∞
				return math.MaxUint64
			}
			return s
		},
	}
}

// PlusTimes is the real field ⟨+, ×, 0⟩ over IEEE-754 bits: the PageRank
// semiring. Note that floating-point addition is only approximately
// associative; algorithms over this semiring tolerate accumulation-order
// noise (as does every parallel PR implementation).
func PlusTimes() Semiring {
	return Semiring{
		Name: "plus-times",
		Zero: math.Float64bits(0),
		One:  math.Float64bits(1),
		Add: func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
		},
		Mul: func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
		},
	}
}

// F64 encodes a float64 as a semiring element for PlusTimes.
func F64(f float64) uint64 { return math.Float64bits(f) }

// ToF64 decodes a PlusTimes element.
func ToF64(u uint64) float64 { return math.Float64frombits(u) }

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
