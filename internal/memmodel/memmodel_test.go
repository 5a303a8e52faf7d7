package memmodel

import (
	"testing"
	"testing/quick"
)

func TestLineAndSetMapping(t *testing.T) {
	g := Geometry{LineWords: 8, Sets: 64, Ways: 8}
	if g.Line(0) != 0 || g.Line(7) != 0 || g.Line(8) != 1 {
		t.Error("line mapping wrong")
	}
	if g.Set(0) != 0 || g.Set(64) != 0 || g.Set(65) != 1 {
		t.Error("set mapping wrong")
	}
}

func TestTrackerTotalCapacityOverflow(t *testing.T) {
	g := Geometry{LineWords: 8, MaxLines: 4}
	tr := NewTracker(g)
	for i := 0; i < 4; i++ {
		if !tr.Add(i * 8) {
			t.Fatalf("line %d should fit", i)
		}
	}
	if tr.Add(4 * 8) {
		t.Fatal("5th line must overflow MaxLines=4")
	}
}

func TestTrackerAssociativityOverflow(t *testing.T) {
	// 2 sets, 2 ways: lines 0,2,4 all map to set 0; the third must spill.
	g := Geometry{LineWords: 8, Sets: 2, Ways: 2}
	tr := NewTracker(g)
	if !tr.Add(0*8) || !tr.Add(2*8) {
		t.Fatal("first two lines of set 0 should fit")
	}
	if !tr.Add(1 * 8) {
		t.Fatal("set 1 line should fit")
	}
	if tr.Add(4 * 8) {
		t.Fatal("third line in set 0 must overflow 2 ways")
	}
}

func TestTrackerDuplicatesFree(t *testing.T) {
	g := Geometry{LineWords: 8, MaxLines: 1}
	tr := NewTracker(g)
	if !tr.Add(3) {
		t.Fatal("first line should fit")
	}
	for i := 0; i < 8; i++ {
		if !tr.Add(i) { // same line (words 0..7)
			t.Fatal("duplicate words in one line must not overflow")
		}
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestTrackerAddRange(t *testing.T) {
	g := Geometry{LineWords: 8, MaxLines: 100}
	tr := NewTracker(g)
	n, ok := tr.AddRange(4, 16) // words 4..19 -> lines 0,1,2
	if !ok || n != 3 {
		t.Fatalf("AddRange = (%d,%v), want (3,true)", n, ok)
	}
	n, ok = tr.AddRange(0, 8) // already present
	if !ok || n != 0 {
		t.Fatalf("AddRange dup = (%d,%v), want (0,true)", n, ok)
	}
}

func TestTrackerReset(t *testing.T) {
	g := Geometry{LineWords: 8, Sets: 2, Ways: 1}
	tr := NewTracker(g)
	tr.Add(0)
	if tr.Add(2 * 8) { // second line in set 0, 1 way
		t.Fatal("must overflow before reset")
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after reset = %d", tr.Len())
	}
	if !tr.Add(2 * 8) {
		t.Fatal("after reset the set must be empty again")
	}
}

// TestTrackerResetAllocsNothing: a reset allocates nothing, empty or after
// fewer or more than the 64 lines at which it stops deleting line by line.
func TestTrackerResetAllocsNothing(t *testing.T) {
	for _, lines := range []int{0, 1, 63, 64, 600} {
		tr := NewTracker(HaswellPL1)
		allocs := testing.AllocsPerRun(20, func() {
			for l := range lines {
				tr.AddLine(l)
			}
			tr.Reset()
		})
		if allocs != 0 || tr.Len() != 0 {
			t.Errorf("reset after %d lines: %v allocations, %d lines left", lines, allocs, tr.Len())
		}
	}
}

func TestQuickTrackerNeverOverflowsUnderBudget(t *testing.T) {
	// Property: adding at most min(MaxLines, Sets*Ways) lines that are
	// spread round-robin over sets never overflows.
	f := func(sets, ways uint8) bool {
		s := int(sets%16) + 1
		w := int(ways%8) + 1
		g := Geometry{LineWords: 1, Sets: s, Ways: w, MaxLines: s * w}
		tr := NewTracker(g)
		for i := 0; i < s*w; i++ {
			if !tr.AddLine(i) {
				return false
			}
		}
		return tr.Len() == s*w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityLines(t *testing.T) {
	if HaswellCL1.CapacityLines() != 512 {
		t.Errorf("Has-C L1 = %d lines, want 512", HaswellCL1.CapacityLines())
	}
	g := Geometry{Sets: 4, Ways: 2}
	if g.CapacityLines() != 8 {
		t.Errorf("CapacityLines = %d, want 8", g.CapacityLines())
	}
}
