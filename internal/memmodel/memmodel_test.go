package memmodel

import "testing"

func TestLineAndSetMapping(t *testing.T) {
	g := Geometry{LineWords: 8, Sets: 64, Ways: 8}
	if g.Line(0) != 0 || g.Line(7) != 0 || g.Line(8) != 1 {
		t.Error("line mapping wrong")
	}
	if g.Set(0) != 0 || g.Set(64) != 0 || g.Set(65) != 1 {
		t.Error("set mapping wrong")
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
