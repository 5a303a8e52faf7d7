// Package htm holds the backend-agnostic bookkeeping of an emulated
// hardware transaction: the speculative read/write sets with their
// cache-capacity accounting, and the per-ISA retry policies. The machine
// backends (internal/sim, internal/native) drive this state machine; the
// conflict detection itself lives in the backends because it depends on
// their notion of time.
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

// TxSet tracks the speculative state of one transaction attempt.
type TxSet struct {
	writeTrack *memmodel.Tracker
	readTrack  *memmodel.Tracker
	writes     []WriteEntry
	writeIdx   map[int]int
	reads      []int
	readSeen   map[int]struct{}
}

// NewTxSet returns a reusable TxSet for HTM profile p.
func NewTxSet(p *exec.HTMProfile) *TxSet {
	return &TxSet{
		writeTrack: memmodel.NewTracker(p.WriteGeo),
		readTrack:  memmodel.NewTracker(p.ReadGeo),
		writeIdx:   make(map[int]int, 32),
		readSeen:   make(map[int]struct{}, 64),
	}
}

// NoteRead records a read of addr. It returns the number of new cache
// lines the read occupied (0 or 1) and ok=false on a read-set overflow.
func (s *TxSet) NoteRead(addr int) (newLines int, ok bool) {
	if _, dup := s.readSeen[addr]; dup {
		return 0, true
	}
	s.readSeen[addr] = struct{}{}
	s.reads = append(s.reads, addr)
	if s.readTrack.Has(addr) {
		return 0, true
	}
	if !s.readTrack.Add(addr) {
		return 1, false
	}
	return 1, true
}

// NoteReadRange records a read-only scan of n consecutive words.
func (s *TxSet) NoteReadRange(addr, n int) (newLines int, ok bool) {
	return s.readTrack.AddRange(addr, n)
}

// LookupWrite returns the buffered value for addr, if any.
func (s *TxSet) LookupWrite(addr int) (uint64, bool) {
	if i, ok := s.writeIdx[addr]; ok {
		return s.writes[i].Val, true
	}
	return 0, false
}

// NoteWrite buffers a speculative write. It returns the number of new
// write-set lines (0 or 1) and ok=false on a write-set overflow.
func (s *TxSet) NoteWrite(addr int, v uint64) (newLines int, ok bool) {
	if i, dup := s.writeIdx[addr]; dup {
		s.writes[i].Val = v
		return 0, true
	}
	s.writeIdx[addr] = len(s.writes)
	s.writes = append(s.writes, WriteEntry{Addr: addr, Val: v})
	if s.writeTrack.Has(addr) {
		return 0, true
	}
	if !s.writeTrack.Add(addr) {
		return 1, false
	}
	return 1, true
}

// Writes exposes the buffered writes in program order (last value per
// address already folded in).
func (s *TxSet) Writes() []WriteEntry { return s.writes }

// Reads exposes the distinct read addresses.
func (s *TxSet) Reads() []int { return s.reads }

// Footprint returns the number of distinct read- and write-set lines.
func (s *TxSet) Footprint() (readLines, writeLines int) {
	return s.readTrack.Len(), s.writeTrack.Len()
}

// Reset clears all speculative state for the next attempt.
func (s *TxSet) Reset() {
	s.writeTrack.Reset()
	s.readTrack.Reset()
	s.writes = s.writes[:0]
	for k := range s.writeIdx {
		delete(s.writeIdx, k)
	}
	if len(s.readSeen) > 0 {
		for k := range s.readSeen {
			delete(s.readSeen, k)
		}
	}
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
