package memmodel_test

// These tests hold a Geometry's overflow rules as htm.TxSet, the one
// tracker of a transaction's lines, applies them. Each runs on the write
// side (NoteWrite) and the read side (NoteRead), the other side unbounded.

import (
	"testing"
	"testing/quick"

	"aamgo/internal/htm"
	"aamgo/internal/memmodel"
)

type side struct {
	name string
	set  func(g memmodel.Geometry) *htm.TxSet
	note func(s *htm.TxSet, word int) (newLines int, ok bool)
}

var sides = []side{
	{"write",
		func(g memmodel.Geometry) *htm.TxSet {
			return htm.NewTxSet(g, memmodel.Geometry{LineWords: g.LineWords})
		},
		func(s *htm.TxSet, word int) (int, bool) { return s.NoteWrite(word, 1) }},
	{"read",
		func(g memmodel.Geometry) *htm.TxSet {
			return htm.NewTxSet(memmodel.Geometry{LineWords: g.LineWords}, g)
		},
		func(s *htm.TxSet, word int) (int, bool) { return s.NoteRead(word) }},
}

func TestTrackerTotalCapacityOverflow(t *testing.T) {
	for _, sd := range sides {
		s := sd.set(memmodel.Geometry{LineWords: 8, MaxLines: 4})
		for i := 0; i < 4; i++ {
			if nl, ok := sd.note(s, i*8); !ok || nl != 1 {
				t.Fatalf("%s: line %d = (%d,%v), want (1,true)", sd.name, i, nl, ok)
			}
		}
		if _, ok := sd.note(s, 4*8); ok {
			t.Fatalf("%s: 5th line must overflow MaxLines=4", sd.name)
		}
		if _, ok := sd.note(s, 5*8); ok {
			t.Fatalf("%s: the overflowing line stays counted", sd.name)
		}
	}
}

func TestTrackerAssociativityOverflow(t *testing.T) {
	// 2 sets, 2 ways: lines 0,2,4 all map to set 0; the third must spill.
	for _, sd := range sides {
		s := sd.set(memmodel.Geometry{LineWords: 8, Sets: 2, Ways: 2})
		if _, ok := sd.note(s, 0*8); !ok {
			t.Fatalf("%s: first line of set 0 should fit", sd.name)
		}
		if _, ok := sd.note(s, 2*8); !ok {
			t.Fatalf("%s: second line of set 0 should fit", sd.name)
		}
		if _, ok := sd.note(s, 1*8); !ok {
			t.Fatalf("%s: set 1 line should fit", sd.name)
		}
		if _, ok := sd.note(s, 4*8); ok {
			t.Fatalf("%s: third line in set 0 must overflow 2 ways", sd.name)
		}
	}
}

func TestTrackerDuplicatesFree(t *testing.T) {
	for _, sd := range sides {
		s := sd.set(memmodel.Geometry{LineWords: 8, MaxLines: 2})
		if nl, ok := sd.note(s, 3); !ok || nl != 1 {
			t.Fatalf("%s: first line = (%d,%v)", sd.name, nl, ok)
		}
		for i := 0; i < 8; i++ { // same line (words 0..7)
			if nl, ok := sd.note(s, i); !ok || nl != 0 {
				t.Fatalf("%s: word %d of a held line = (%d,%v), want (0,true)", sd.name, i, nl, ok)
			}
		}
		if _, ok := sd.note(s, 8); !ok {
			t.Fatalf("%s: duplicates took budget: a second line must fit", sd.name)
		}
		if _, ok := sd.note(s, 16); ok {
			t.Fatalf("%s: a third line must overflow MaxLines=2", sd.name)
		}
	}
}

func TestTrackerAddRange(t *testing.T) {
	s := htm.NewTxSet(memmodel.Geometry{LineWords: 8}, memmodel.Geometry{LineWords: 8, MaxLines: 100})
	n, ok := s.NoteReadRange(4, 16) // words 4..19 -> lines 0,1,2
	if !ok || n != 3 {
		t.Fatalf("NoteReadRange = (%d,%v), want (3,true)", n, ok)
	}
	n, ok = s.NoteReadRange(0, 8) // already present
	if !ok || n != 0 {
		t.Fatalf("NoteReadRange dup = (%d,%v), want (0,true)", n, ok)
	}
	if n, _ = s.NoteRead(20); n != 0 {
		t.Fatal("a word read on a line the range holds must not add a line")
	}
	if n, _ = s.NoteWrite(4, 1); n != 1 {
		t.Fatal("the write side must not see the read side's lines")
	}
	s = htm.NewTxSet(memmodel.Geometry{LineWords: 8}, memmodel.Geometry{LineWords: 8, MaxLines: 2})
	if n, ok = s.NoteReadRange(0, 40); ok || n != 3 {
		t.Fatalf("overflowing range = (%d,%v), want (3,false): it stops at the first overflow", n, ok)
	}
}

func TestTrackerReset(t *testing.T) {
	for _, sd := range sides {
		s := sd.set(memmodel.Geometry{LineWords: 8, Sets: 2, Ways: 1})
		sd.note(s, 0)
		if _, ok := sd.note(s, 2*8); ok { // second line in set 0, 1 way
			t.Fatalf("%s: must overflow before reset", sd.name)
		}
		s.Reset()
		if len(s.Reads()) != 0 || len(s.Writes()) != 0 {
			t.Fatalf("%s: reset left words", sd.name)
		}
		if nl, ok := sd.note(s, 2*8); !ok || nl != 1 {
			t.Fatalf("%s: after reset the set must be empty again", sd.name)
		}
	}
}

// TestTrackerResetAllocsNothing: a reset allocates nothing, empty or after
// fewer or more than the 64 lines at which it stops deleting line by line.
func TestTrackerResetAllocsNothing(t *testing.T) {
	for _, sd := range sides {
		for _, lines := range []int{0, 1, 63, 64, 600} {
			s := sd.set(memmodel.HaswellPL1)
			allocs := testing.AllocsPerRun(20, func() {
				for l := range lines {
					sd.note(s, l*8)
				}
				s.Reset()
			})
			if allocs != 0 {
				t.Errorf("%s: reset after %d lines: %v allocations", sd.name, lines, allocs)
			}
			if len(s.Reads()) != 0 || len(s.Writes()) != 0 {
				t.Errorf("%s: reset after %d lines left words", sd.name, lines)
			}
			if nl, _ := sd.note(s, 0); nl != 1 {
				t.Errorf("%s: reset after %d lines left line 0", sd.name, lines)
			}
		}
	}
}

func TestQuickTrackerNeverOverflowsUnderBudget(t *testing.T) {
	// Property: adding at most min(MaxLines, Sets*Ways) lines that are
	// spread round-robin over sets never overflows.
	f := func(sets, ways uint8) bool {
		n := int(sets%16) + 1
		w := int(ways%8) + 1
		for _, sd := range sides {
			s := sd.set(memmodel.Geometry{LineWords: 1, Sets: n, Ways: w, MaxLines: n * w})
			for i := 0; i < n*w; i++ {
				if _, ok := sd.note(s, i); !ok {
					return false
				}
			}
			if _, ok := sd.note(s, n*w); ok {
				return false // one more line is past the budget
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
