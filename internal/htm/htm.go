// Package htm holds the backend-agnostic bookkeeping of an emulated
// hardware transaction: the speculative read/write sets with their
// cache-capacity accounting against internal/memmodel's geometries, and
// the per-ISA retry policies. The machine backends (internal/sim,
// internal/native) drive this state machine; the conflict detection
// itself lives in the backends because it depends on their notion of time.
package htm

import (
	"math/rand"

	"aamgo/internal/exec"
	"aamgo/internal/memmodel"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// WriteEntry is one buffered speculative write.
type WriteEntry struct {
	Addr int
	Val  uint64
}

// The two sides of a footprint, each bounded by its own geometry.
const (
	writeSide = iota
	readSide
)

// wordState is what a transaction did to one word: write is the word's
// index in writes plus one (0: not written), read whether it is in reads.
type wordState struct {
	write int32
	read  bool
}

// TxSet tracks the speculative footprint of one transaction attempt: the
// words read and written, and the cache lines they occupy on each side,
// checked against that side's geometry. A line-set overflow (the total
// line budget or the ways of one cache set) is a capacity abort.
type TxSet struct {
	geo    [2]memmodel.Geometry
	words  map[int]wordState
	lines  map[int]struct{} // line<<1 | side
	perSet [2][]int32       // lines per cache set; nil without an associativity model
	nlines [2]int
	// touched logs the keys of lines in insertion order, for Reset.
	touched []int
	writes  []WriteEntry
	reads   []int
}

// NewTxSet returns a reusable TxSet whose write and read sets are bounded
// by the given geometries.
func NewTxSet(write, read memmodel.Geometry) *TxSet {
	s := &TxSet{
		geo:   [2]memmodel.Geometry{writeSide: write, readSide: read},
		words: make(map[int]wordState, 64),
		lines: make(map[int]struct{}, 64),
	}
	for side, g := range s.geo {
		if g.Sets > 0 && g.Ways > 0 {
			s.perSet[side] = make([]int32, g.Sets)
		}
	}
	return s
}

// addLine records line on one side. It returns 1 new line or 0 for one
// already held, and ok=false when the line overflows the side's total
// budget or the ways of its set. The overflowing line is still counted,
// so repeated probes keep failing deterministically.
func (s *TxSet) addLine(side, line int) (newLines int, ok bool) {
	n := len(s.lines)
	key := line<<1 | side
	s.lines[key] = struct{}{}
	if len(s.lines) == n {
		return 0, true
	}
	s.touched = append(s.touched, key)
	s.nlines[side]++
	g := &s.geo[side]
	over := g.MaxLines > 0 && s.nlines[side] > g.MaxLines
	if c := s.perSet[side]; c != nil {
		// Counted even past the budget, so Reset's one decrement per
		// logged line leaves every set at zero.
		set := g.Set(line)
		c[set]++
		over = over || int(c[set]) > g.Ways
	}
	return 1, !over
}

// NoteRead records a read of addr. It returns the number of new cache
// lines the read occupied (0 or 1) and ok=false on a read-set overflow.
func (s *TxSet) NoteRead(addr int) (newLines int, ok bool) {
	w := s.words[addr]
	if w.read {
		return 0, true
	}
	w.read = true
	s.words[addr] = w
	s.reads = append(s.reads, addr)
	return s.addLine(readSide, s.geo[readSide].Line(addr))
}

// NoteReadRange records a read-only scan of n consecutive words.
func (s *TxSet) NoteReadRange(addr, n int) (newLines int, ok bool) {
	if n <= 0 {
		return 0, true
	}
	g := &s.geo[readSide]
	for l, last := g.Line(addr), g.Line(addr+n-1); l <= last; l++ {
		nl, ok := s.addLine(readSide, l)
		newLines += nl
		if !ok {
			return newLines, false
		}
	}
	return newLines, true
}

// LookupWrite returns the buffered value for addr, if any.
func (s *TxSet) LookupWrite(addr int) (uint64, bool) {
	if w := s.words[addr]; w.write > 0 {
		return s.writes[w.write-1].Val, true
	}
	return 0, false
}

// NoteWrite buffers a speculative write. It returns the number of new
// write-set lines (0 or 1) and ok=false on a write-set overflow.
func (s *TxSet) NoteWrite(addr int, v uint64) (newLines int, ok bool) {
	w := s.words[addr]
	if w.write > 0 {
		s.writes[w.write-1].Val = v
		return 0, true
	}
	s.writes = append(s.writes, WriteEntry{Addr: addr, Val: v})
	w.write = int32(len(s.writes))
	s.words[addr] = w
	return s.addLine(writeSide, s.geo[writeSide].Line(addr))
}

// Writes exposes the buffered writes in program order (last value per
// address already folded in).
func (s *TxSet) Writes() []WriteEntry { return s.writes }

// Reads exposes the distinct read addresses in the order first read.
func (s *TxSet) Reads() []int { return s.reads }

// Reset clears all speculative state for the next attempt, allocating
// nothing: below 64 lines it deletes the lines and words it logged, and
// from there on clears the maps whole (a cleared map costs its table size,
// a deleted entry its own).
func (s *TxSet) Reset() {
	if len(s.touched) < 64 {
		for _, key := range s.touched {
			delete(s.lines, key)
			side := key & 1
			if c := s.perSet[side]; c != nil {
				c[s.geo[side].Set(key>>1)]--
			}
		}
		for _, addr := range s.reads {
			delete(s.words, addr)
		}
		for _, w := range s.writes {
			delete(s.words, w.Addr)
		}
	} else {
		clear(s.lines)
		clear(s.words)
		clear(s.perSet[writeSide])
		clear(s.perSet[readSide])
	}
	s.nlines = [2]int{}
	s.touched = s.touched[:0]
	s.writes = s.writes[:0]
	s.reads = s.reads[:0]
}

// Action is the policy decision after a hardware abort.
type Action int

const (
	// ActRetry re-executes the transaction after RetryDelay.
	ActRetry Action = iota
	// ActBackoff re-executes after an exponential backoff pause.
	ActBackoff
	// ActSerialize gives up on speculation and runs the region under the
	// fallback serialization path.
	ActSerialize
)

// NextAction applies profile p's retry policy after hardware abort number
// attempt (1-based) with the given reason.
//
//   - HLE serializes after the first abort (hardware behaviour, §5.4.1);
//   - RTM treats capacity aborts as non-retryable (the abort code's retry
//     hint is clear) and serializes; conflicts/spurious aborts back off
//     exponentially until MaxRetries, then serialize;
//   - BG/Q retries any abort up to the rollback limit (default 10), then
//     the runtime serializes (§4.1).
func NextAction(p *exec.HTMProfile, attempt int, reason stats.AbortReason) Action {
	if p.SerializeAfterFirst {
		return ActSerialize
	}
	if p.SoftwareBackoff {
		// RTM-style software policy.
		if reason == stats.AbortCapacity {
			return ActSerialize
		}
		if attempt >= p.MaxRetries {
			return ActSerialize
		}
		return ActBackoff
	}
	// BG/Q-style hardware auto-retry.
	if attempt >= p.MaxRetries {
		return ActSerialize
	}
	return ActRetry
}

// BackoffDelay computes the jittered exponential backoff pause before
// attempt (1-based). Jitter avoids the livelock noted in §4.1.
func BackoffDelay(p *exec.HTMProfile, attempt int, rng *rand.Rand) vtime.Time {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	base := p.BackoffBase << uint(shift)
	if base <= 0 {
		base = vtime.Microsecond
	}
	// Uniform in [base/2, 3*base/2).
	return base/2 + vtime.Time(rng.Int63n(int64(base)))
}
