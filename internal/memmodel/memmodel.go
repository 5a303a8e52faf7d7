// Package memmodel models the cache geometry that bounds speculative state
// in hardware transactional memory. Intel Haswell tracks the transactional
// write set in the 8-way 32 KB L1 (Has-C) or 64 KB L1 (Has-P); IBM Blue
// Gene/Q keeps speculative state in the 16-way 32 MB shared L2. A
// transaction whose footprint exceeds either the total capacity or the
// associativity of a single cache set aborts with a "buffer overflow"
// (stats.AbortCapacity). The lines a transaction holds are tracked by
// internal/htm's TxSet against these geometries.
package memmodel

// Geometry describes one cache level used to hold speculative state.
// Addresses are word indices (8-byte words); a cache line holds LineWords
// words; lines map to Sets sets with Ways ways each.
type Geometry struct {
	Name      string
	LineWords int // words per cache line (8 for 64 B lines)
	Sets      int // number of cache sets; 0 disables the associativity model
	Ways      int // associativity
	MaxLines  int // total speculative line budget; 0 = unlimited
}

// Line maps a word address to its cache line index.
func (g Geometry) Line(word int) int {
	if g.LineWords <= 1 {
		return word
	}
	return word / g.LineWords
}

// Set maps a line index to its cache set.
func (g Geometry) Set(line int) int {
	if g.Sets <= 0 {
		return 0
	}
	return line % g.Sets
}

// CapacityLines returns the largest footprint (in lines) that can possibly
// fit, ignoring set conflicts.
func (g Geometry) CapacityLines() int {
	if g.MaxLines > 0 {
		return g.MaxLines
	}
	if g.Sets > 0 && g.Ways > 0 {
		return g.Sets * g.Ways
	}
	return 1 << 30
}

// Standard geometries used by the architecture profiles. Line size is 64 B
// (8 words) everywhere, as on both evaluated machines.
var (
	// HaswellCL1 models the Core i7-4770 (Has-C): 32 KB, 8-way L1D.
	HaswellCL1 = Geometry{Name: "has-c-l1", LineWords: 8, Sets: 64, Ways: 8, MaxLines: 512}
	// HaswellPL1 models the Xeon E5-2680v3 node (Has-P): 64 KB combined
	// L1 budget per SMT pair as reported in the paper's hardware table.
	HaswellPL1 = Geometry{Name: "has-p-l1", LineWords: 8, Sets: 128, Ways: 8, MaxLines: 1024}
	// HaswellReadSet models the larger read-set tracking structure
	// (second-level bloom-filter-backed) on Haswell.
	HaswellReadSet = Geometry{Name: "has-rs", LineWords: 8, Sets: 0, Ways: 0, MaxLines: 8192}
	// BGQL2Long models the BG/Q long-running mode: speculative state in
	// the 16-way 32 MB shared L2 — effectively no overflow at our scales.
	BGQL2Long = Geometry{Name: "bgq-l2-long", LineWords: 8, Sets: 1024, Ways: 16, MaxLines: 16384}
	// BGQL2Short models the short-running mode, which bypasses L1 and
	// uses a small, low-latency slice of speculative entries; it is
	// faster but overflows for long transactions.
	BGQL2Short = Geometry{Name: "bgq-l2-short", LineWords: 8, Sets: 1024, Ways: 16, MaxLines: 8192}
)
