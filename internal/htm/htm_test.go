package htm

import (
	"math/rand"
	"slices"
	"testing"

	"aamgo/internal/exec"
	"aamgo/internal/memmodel"
	"aamgo/internal/stats"
)

func rtmProfile() *exec.HTMProfile {
	p := exec.HaswellC()
	return p.HTMVariant("rtm")
}

func rtmTxSet() *TxSet {
	p := rtmProfile()
	return NewTxSet(p.WriteGeo, p.ReadGeo)
}

func TestTxSetReadWriteBookkeeping(t *testing.T) {
	s := rtmTxSet()
	if _, ok := s.LookupWrite(5); ok {
		t.Fatal("empty set must have no buffered writes")
	}
	if nl, ok := s.NoteWrite(5, 42); !ok || nl != 1 {
		t.Fatalf("first write: (%d,%v)", nl, ok)
	}
	if v, ok := s.LookupWrite(5); !ok || v != 42 {
		t.Fatalf("LookupWrite = (%d,%v)", v, ok)
	}
	// Overwrite folds in place, no new line.
	if nl, _ := s.NoteWrite(5, 43); nl != 0 {
		t.Fatal("overwrite must not add a line")
	}
	if len(s.Writes()) != 1 || s.Writes()[0].Val != 43 {
		t.Fatalf("writes = %+v", s.Writes())
	}
	// Reads dedupe.
	s.NoteRead(100)
	s.NoteRead(100)
	if len(s.Reads()) != 1 {
		t.Fatalf("reads = %v", s.Reads())
	}
}

func TestTxSetCapacityOverflow(t *testing.T) {
	p := *rtmProfile()
	p.WriteGeo.MaxLines = 2
	p.WriteGeo.Sets = 0
	s := NewTxSet(p.WriteGeo, p.ReadGeo)
	if _, ok := s.NoteWrite(0, 1); !ok {
		t.Fatal("line 1 fits")
	}
	if _, ok := s.NoteWrite(8, 1); !ok {
		t.Fatal("line 2 fits")
	}
	if _, ok := s.NoteWrite(16, 1); ok {
		t.Fatal("line 3 must overflow")
	}
}

func TestTxSetReset(t *testing.T) {
	s := rtmTxSet()
	s.NoteWrite(1, 2)
	s.NoteRead(3)
	s.NoteReadRange(64, 32)
	s.Reset()
	if len(s.Writes()) != 0 || len(s.Reads()) != 0 || len(s.lines) != 0 || len(s.words) != 0 {
		t.Fatal("reset left state")
	}
	if s.nlines != [2]int{} {
		t.Fatalf("lines after reset = %v", s.nlines)
	}
	if _, ok := s.LookupWrite(1); ok {
		t.Fatal("write survived reset")
	}
	if nl, _ := s.NoteRead(1); nl != 1 {
		t.Fatal("a read of a line only written before the reset must be a new line")
	}
}

// refTracker and refTxSet are the footprint as four maps, one tracker per
// side with its own line and per-set maps: the plain model TxSet is held to.
type refTracker struct {
	geo    memmodel.Geometry
	lines  map[int]struct{}
	perSet map[int]int
}

func (t *refTracker) add(line int) (newLines int, ok bool) {
	if _, dup := t.lines[line]; dup {
		return 0, true
	}
	t.lines[line] = struct{}{}
	if t.geo.MaxLines > 0 && len(t.lines) > t.geo.MaxLines {
		return 1, false
	}
	if t.geo.Sets > 0 && t.geo.Ways > 0 {
		s := t.geo.Set(line)
		t.perSet[s]++
		if t.perSet[s] > t.geo.Ways {
			return 1, false
		}
	}
	return 1, true
}

type refTxSet struct {
	write, read refTracker
	writes      []WriteEntry
	writeIdx    map[int]int
	reads       []int
	readSeen    map[int]struct{}
}

func newRefTxSet(write, read memmodel.Geometry) *refTxSet {
	r := &refTxSet{write: refTracker{geo: write}, read: refTracker{geo: read}}
	r.reset()
	return r
}

func (r *refTxSet) reset() {
	for _, t := range []*refTracker{&r.write, &r.read} {
		t.lines, t.perSet = map[int]struct{}{}, map[int]int{}
	}
	r.writes, r.writeIdx = nil, map[int]int{}
	r.reads, r.readSeen = nil, map[int]struct{}{}
}

func (r *refTxSet) noteRead(addr int) (int, bool) {
	if _, dup := r.readSeen[addr]; dup {
		return 0, true
	}
	r.readSeen[addr] = struct{}{}
	r.reads = append(r.reads, addr)
	return r.read.add(r.read.geo.Line(addr))
}

func (r *refTxSet) noteReadRange(addr, n int) (newLines int, ok bool) {
	if n <= 0 {
		return 0, true
	}
	for l := r.read.geo.Line(addr); l <= r.read.geo.Line(addr+n-1); l++ {
		nl, ok := r.read.add(l)
		newLines += nl
		if !ok {
			return newLines, false
		}
	}
	return newLines, true
}

func (r *refTxSet) noteWrite(addr int, v uint64) (int, bool) {
	if i, dup := r.writeIdx[addr]; dup {
		r.writes[i].Val = v
		return 0, true
	}
	r.writeIdx[addr] = len(r.writes)
	r.writes = append(r.writes, WriteEntry{Addr: addr, Val: v})
	return r.write.add(r.write.geo.Line(addr))
}

func (r *refTxSet) lookupWrite(addr int) (uint64, bool) {
	if i, ok := r.writeIdx[addr]; ok {
		return r.writes[i].Val, true
	}
	return 0, false
}

// TestTxSetMatchesFourMapReference runs random NoteRead, NoteReadRange,
// NoteWrite, LookupWrite and Reset sequences on TxSet and on refTxSet over
// small geometries, with and without an associativity model, and holds
// every answer, Reads() and Writes() equal. Sequences run past both sides'
// budgets and past Reset's 64-line switch.
func TestTxSetMatchesFourMapReference(t *testing.T) {
	geos := []memmodel.Geometry{
		{LineWords: 1},
		{LineWords: 1, Sets: 3, Ways: 2},
		{LineWords: 4, MaxLines: 5},
		{LineWords: 4, Sets: 2, Ways: 3, MaxLines: 5},
		{LineWords: 8, Sets: 4, Ways: 1, MaxLines: 70},
		{LineWords: 2, Sets: 16, Ways: 8, MaxLines: 100},
	}
	rng := rand.New(rand.NewSource(1))
	for _, wg := range geos {
		for _, rg := range geos {
			s, ref := NewTxSet(wg, rg), newRefTxSet(wg, rg)
			for op := range 4000 {
				addr := rng.Intn(300)
				var got, want [2]int
				var gotOK, wantOK bool
				switch k := rng.Intn(100); {
				case k < 2:
					s.Reset()
					ref.reset()
				case k < 35:
					got[0], gotOK = s.NoteRead(addr)
					want[0], wantOK = ref.noteRead(addr)
				case k < 45:
					n := rng.Intn(40) - 2
					got[0], gotOK = s.NoteReadRange(addr, n)
					want[0], wantOK = ref.noteReadRange(addr, n)
				case k < 80:
					v := rng.Uint64()
					got[0], gotOK = s.NoteWrite(addr, v)
					want[0], wantOK = ref.noteWrite(addr, v)
				default:
					var g, w uint64
					g, gotOK = s.LookupWrite(addr)
					w, wantOK = ref.lookupWrite(addr)
					got[1], want[1] = int(g), int(w)
				}
				if got != want || gotOK != wantOK {
					t.Fatalf("geo %+v/%+v op %d: got (%v,%v), want (%v,%v)", wg, rg, op, got, gotOK, want, wantOK)
				}
				if !slices.Equal(s.Reads(), ref.reads) || !slices.Equal(s.Writes(), ref.writes) {
					t.Fatalf("geo %+v/%+v op %d: reads/writes differ", wg, rg, op)
				}
			}
		}
	}
}

func TestNextActionRTM(t *testing.T) {
	p := rtmProfile()
	if a := NextAction(p, 1, stats.AbortConflict); a != ActBackoff {
		t.Errorf("RTM conflict attempt 1: %v, want backoff", a)
	}
	if a := NextAction(p, 1, stats.AbortCapacity); a != ActSerialize {
		t.Errorf("RTM capacity: %v, want serialize (no-retry hint)", a)
	}
	if a := NextAction(p, p.MaxRetries, stats.AbortConflict); a != ActSerialize {
		t.Errorf("RTM at retry limit: %v, want serialize", a)
	}
}

func TestNextActionHLE(t *testing.T) {
	mp := exec.HaswellC()
	p := mp.HTMVariant("hle")
	if a := NextAction(p, 1, stats.AbortConflict); a != ActSerialize {
		t.Errorf("HLE must serialize after first abort, got %v", a)
	}
}

func TestNextActionBGQ(t *testing.T) {
	mp := exec.BGQ()
	p := mp.HTMVariant("short")
	for attempt := 1; attempt < p.MaxRetries; attempt++ {
		for _, r := range []stats.AbortReason{stats.AbortConflict, stats.AbortCapacity, stats.AbortOther} {
			if a := NextAction(p, attempt, r); a != ActRetry {
				t.Fatalf("BGQ attempt %d reason %v: %v, want retry", attempt, r, a)
			}
		}
	}
	if a := NextAction(p, p.MaxRetries, stats.AbortConflict); a != ActSerialize {
		t.Errorf("BGQ at rollback limit: %v, want serialize", a)
	}
}

func TestBackoffGrowsAndJitters(t *testing.T) {
	p := rtmProfile()
	rng := rand.New(rand.NewSource(1))
	d1 := BackoffDelay(p, 1, rng)
	d6 := BackoffDelay(p, 7, rng)
	if d1 <= 0 {
		t.Fatal("backoff must be positive")
	}
	if d6 < d1 {
		t.Fatalf("backoff must grow: attempt1=%v attempt7=%v", d1, d6)
	}
	// Jitter: repeated draws differ.
	same := true
	prev := BackoffDelay(p, 3, rng)
	for i := 0; i < 8; i++ {
		if d := BackoffDelay(p, 3, rng); d != prev {
			same = false
		}
	}
	if same {
		t.Fatal("backoff shows no jitter")
	}
}
