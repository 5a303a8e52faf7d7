// Package wal is the durable write path for the dynamic-graph subsystem:
// a segmented, CRC32C-checksummed write-ahead log of dyn mutation batches
// with group commit, snapshot checkpoints, and torn-tail-truncating crash
// recovery.
//
// Writers never touch the disk themselves. The dyn.WALHook appends each
// batch's record to an in-memory tail under the graph's writer lock (so
// records are strictly epoch-ordered) and returns a wait closure; a single
// committer goroutine drains the tail, writes it to the active segment and
// fsyncs once per group window, retiring every batch that piled up behind
// one sync. Durability modes:
//
//	fsync  every group is synced as soon as it is written (window 0)
//	batch  groups are synced when they reach groupBytes or groupWindow
//	       of age, whichever first (the default)
//	off    records are written but never synced — best-effort; Apply
//	       acknowledges immediately
//
// Checkpoint persists the current snapshot as a binary CSR, rolls the
// active segment, commits a manifest, and deletes every segment wholly
// covered by the snapshot. Open recovers the newest valid snapshot plus
// the WAL tail on boot; see recover.go for the truncation argument.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/obs"
)

// Mode selects the durability level of the commit path.
type Mode uint8

const (
	// ModeBatch groups commits: fsync when the tail reaches groupBytes
	// or its oldest record is groupWindow old. The default.
	ModeBatch Mode = iota
	// ModeFsync syncs every group as soon as it is written.
	ModeFsync
	// ModeOff writes records without ever syncing; best-effort.
	ModeOff
)

// String names the mode (flag syntax).
func (m Mode) String() string {
	switch m {
	case ModeBatch:
		return "batch"
	case ModeFsync:
		return "fsync"
	case ModeOff:
		return "off"
	default:
		return "mode(?)"
	}
}

// ParseMode parses the -durability flag syntax.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "batch":
		return ModeBatch, nil
	case "fsync":
		return ModeFsync, nil
	case "off":
		return ModeOff, nil
	}
	return 0, fmt.Errorf("wal: unknown durability mode %q (want fsync, batch or off)", s)
}

// Options tunes a Log. The zero value (plus a Dir) is a batch-mode log
// with 256 KiB / 2 ms group commit and 64 MiB segments.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Mode is the durability mode (default ModeBatch).
	Mode Mode
	// CheckpointEvery takes an automatic checkpoint each time this many
	// epochs accumulate past the last one; 0 disables automatic
	// checkpoints (explicit Checkpoint calls still work).
	CheckpointEvery uint64

	// groupWindow and segmentBytes, when positive, replace the constants
	// of the same name. Only this package's tests set them.
	groupWindow  time.Duration
	segmentBytes int64
}

const (
	// groupBytes syncs a batch-mode group once the tail holds this many bytes.
	groupBytes = 256 << 10
	// groupWindow syncs a batch-mode group once its oldest record is this old.
	groupWindow = 2 * time.Millisecond
	// segmentBytes rolls the active segment past this size.
	segmentBytes = 64 << 20
)

func (o Options) withDefaults() Options {
	if o.groupWindow <= 0 {
		o.groupWindow = groupWindow
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = segmentBytes
	}
	return o
}

// ErrClosed reports appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// segFile is the active segment's write surface; *os.File implements it.
// Tests swap in fault-injecting wrappers via testWrapSeg.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// testWrapSeg, when non-nil, wraps each newly opened segment file; the
// failfs tests use it to inject torn writes, short writes and sync errors.
var testWrapSeg func(*os.File) segFile

// segMeta tracks one sealed (no longer written) segment.
type segMeta struct {
	seq       uint64
	lastEpoch uint64 // highest epoch the segment holds; 0 if none
}

const (
	segHeaderLen = 8
	segVersion   = 1
)

var segMagic = [4]byte{'A', 'A', 'M', 'W'}

func segName(seq uint64) string { return fmt.Sprintf("wal-%016x.seg", seq) }

// Log is a write-ahead log bound to one dyn.Graph. Open both recovers and
// constructs it; all methods are safe for concurrent use.
type Log struct {
	opts  Options
	graph *dyn.Graph

	// mu guards the commit tail and the durability cursor; cond
	// broadcasts every durability advance (and every append, to wake the
	// committer).
	mu             sync.Mutex
	cond           *sync.Cond
	pending        []byte
	spare          []byte // committer's double buffer
	pendingBatches int
	pendingSince   time.Time
	lastEpoch      uint64 // newest epoch appended
	appended       int64  // logical bytes appended this process
	durable        int64  // logical bytes known durable (written, in off mode)
	urgent         bool   // skip the group window on the next commit
	closed         bool
	err            error // sticky commit failure; poisons the log

	// fmu guards the segment files: the active segment, its size, the
	// sealed list. Never held together with mu.
	fmu          sync.Mutex
	seg          segFile
	segSeq       uint64
	segSize      int64
	segLastEpoch uint64
	sealed       []segMeta

	// ckptMu serializes checkpoints; lastCkpt is the epoch of the newest
	// committed manifest.
	ckptMu   sync.Mutex
	lastCkpt atomic.Uint64

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	bytes       atomic.Uint64
	checkpoints atomic.Uint64
	histGroup   *obs.Histogram // batches retired per fsync
	histCommit  *obs.Histogram // append-to-durable latency of each group, ns

	recovery RecoveryStats

	ckptCh chan struct{}
	wg     sync.WaitGroup
}

// hook is the dyn.WALHook installed on the attached graph. It runs under
// the graph's writer lock, so records arrive in strict epoch order; the
// returned wait closure runs after the lock is released.
func (l *Log) hook(ci dyn.CommitInfo) func() error {
	w := l.append(ci)
	if l.opts.CheckpointEvery > 0 && ci.Epoch >= l.lastCkpt.Load()+l.opts.CheckpointEvery {
		select {
		case l.ckptCh <- struct{}{}:
		default: // one is already queued
		}
	}
	return w
}

// append queues ci on the commit tail and returns the wait closure (nil
// in off mode: best-effort acknowledges immediately).
func (l *Log) append(ci dyn.CommitInfo) func() error {
	l.mu.Lock()
	if l.err != nil || l.closed {
		err := l.err
		if err == nil {
			err = ErrClosed
		}
		l.mu.Unlock()
		return func() error { return err }
	}
	if len(l.pending) == 0 {
		l.pendingSince = time.Now()
	}
	before := len(l.pending)
	l.pending = appendRecord(l.pending, ci)
	l.appended += int64(len(l.pending) - before)
	l.pendingBatches++
	l.lastEpoch = ci.Epoch
	l.appends.Add(1)
	if l.opts.Mode == ModeFsync {
		l.urgent = true
	}
	target := l.appended
	l.cond.Broadcast()
	l.mu.Unlock()

	if l.opts.Mode == ModeOff {
		return nil
	}
	return func() error {
		l.mu.Lock()
		defer l.mu.Unlock()
		for l.durable < target && l.err == nil {
			l.cond.Wait()
		}
		if l.durable < target {
			return l.err
		}
		return nil
	}
}

// committer is the single goroutine that drains the tail to disk: one
// write + one fsync per group, however many batches the group holds.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && l.err == nil && !l.closed {
			l.cond.Wait()
		}
		if l.err != nil || (l.closed && len(l.pending) == 0) {
			l.mu.Unlock()
			return
		}
		// Batch mode: let the group fill until the byte threshold or the
		// window expires, unless someone needs the sync now.
		if l.opts.Mode == ModeBatch && !l.urgent && !l.closed && len(l.pending) < groupBytes {
			if wait := l.opts.groupWindow - time.Since(l.pendingSince); wait > 0 {
				l.mu.Unlock()
				time.Sleep(wait)
				l.mu.Lock()
			}
		}
		buf := l.pending
		l.pending = l.spare[:0]
		l.spare = buf
		batches := l.pendingBatches
		l.pendingBatches = 0
		lastEpoch := l.lastEpoch
		goal := l.appended
		groupStart := l.pendingSince
		l.urgent = false
		l.mu.Unlock()

		err := l.commit(buf, lastEpoch)

		l.mu.Lock()
		if err != nil {
			l.err = fmt.Errorf("wal: commit: %w", err)
		} else {
			l.durable = goal
			l.bytes.Add(uint64(len(buf)))
			l.histGroup.Record(uint64(batches))
			l.histCommit.RecordSince(int64(time.Since(groupStart)))
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// commit writes one group to the active segment, syncs it (unless mode is
// off) and rolls the segment when it outgrows segmentBytes.
func (l *Log) commit(buf []byte, lastEpoch uint64) error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if _, err := l.seg.Write(buf); err != nil {
		return err
	}
	l.segSize += int64(len(buf))
	l.segLastEpoch = lastEpoch
	if l.opts.Mode != ModeOff {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
	}
	if l.segSize >= l.opts.segmentBytes {
		return l.rollLocked()
	}
	return nil
}

// rollLocked seals the active segment and opens the next one. Sealed
// segments are synced in every mode — sealing is rare and a sealed
// segment's metadata feeds truncation decisions. Callers hold fmu.
func (l *Log) rollLocked() error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
		if err := l.seg.Close(); err != nil {
			return err
		}
		l.sealed = append(l.sealed, segMeta{seq: l.segSeq, lastEpoch: l.segLastEpoch})
	}
	l.segSeq++
	return l.openSegLocked()
}

// openSegLocked creates the active segment l.segSeq and writes its header.
func (l *Log) openSegLocked() error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(l.segSeq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic[:])
	hdr[4] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	var seg segFile = f
	if testWrapSeg != nil {
		seg = testWrapSeg(f)
	}
	l.seg = seg
	l.segSize = segHeaderLen
	l.segLastEpoch = 0
	return syncDir(l.opts.Dir)
}

// syncDir makes directory-entry changes (new segments, renames) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Sync flushes and fsyncs everything appended so far, in every mode —
// shutdown and checkpoints use it to pin the tail down even under
// ModeOff.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.appended
	l.urgent = true
	l.cond.Broadcast()
	for l.durable < target && l.err == nil && !l.closed {
		l.cond.Wait()
	}
	err := l.err
	if err == nil && l.closed && l.durable < target {
		err = ErrClosed
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	// Off mode advances the durability cursor without syncing; force the
	// sync now that no write is in flight (the cursor caught up).
	if l.opts.Mode == ModeOff {
		l.fmu.Lock()
		defer l.fmu.Unlock()
		if l.seg != nil {
			if err := l.seg.Sync(); err != nil {
				return err
			}
			l.fsyncs.Add(1)
		}
	}
	return nil
}

// Close detaches the log from its graph, flushes the tail, stops the
// background goroutines and closes the active segment. The final flush is
// synced in every mode.
func (l *Log) Close() error {
	if l.graph != nil {
		l.graph.SetWALHook(nil)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	l.urgent = true
	if l.ckptCh != nil {
		close(l.ckptCh)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()

	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if l.seg != nil {
		if serr := l.seg.Sync(); err == nil && serr != nil {
			err = serr
		}
		if cerr := l.seg.Close(); err == nil && cerr != nil {
			err = cerr
		}
		l.seg = nil
	}
	return err
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Mode           string `json:"mode"`
	Appends        uint64 `json:"appends"`
	Fsyncs         uint64 `json:"fsyncs"`
	Bytes          uint64 `json:"bytes"`
	Segments       int    `json:"segments"`
	Checkpoints    uint64 `json:"checkpoints"`
	LastCheckpoint uint64 `json:"last_checkpoint_epoch"`
	PendingBytes   int    `json:"pending_bytes"`
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	pending := len(l.pending)
	l.mu.Unlock()
	l.fmu.Lock()
	segs := len(l.sealed)
	if l.seg != nil {
		segs++
	}
	l.fmu.Unlock()
	return Stats{
		Mode:           l.opts.Mode.String(),
		Appends:        l.appends.Load(),
		Fsyncs:         l.fsyncs.Load(),
		Bytes:          l.bytes.Load(),
		Segments:       segs,
		Checkpoints:    l.checkpoints.Load(),
		LastCheckpoint: l.lastCkpt.Load(),
		PendingBytes:   pending,
	}
}

// Recovery returns what Open's recovery pass did (zero value for a log
// that started from an empty directory).
func (l *Log) Recovery() RecoveryStats { return l.recovery }

// RegisterMetrics exposes the log's series on reg — the serve layer calls
// this so /metrics and /stats carry the WAL alongside the graph series.
func (l *Log) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("aam_wal_appends_total", l.appends.Load)
	reg.CounterFunc("aam_wal_fsyncs_total", l.fsyncs.Load)
	reg.CounterFunc("aam_wal_bytes_total", l.bytes.Load)
	reg.CounterFunc("aam_wal_checkpoints_total", l.checkpoints.Load)
	reg.AddHistogram("aam_wal_group_size", l.histGroup)
	reg.AddHistogram("aam_wal_commit_latency_ns", l.histCommit)
	reg.CounterFunc("aam_recovery_replayed_batches", func() uint64 { return l.recovery.ReplayedBatches })
	reg.CounterFunc("aam_recovery_truncated_records", func() uint64 { return l.recovery.TruncatedRecords })
	reg.CounterFunc("aam_recovery_duration_ns", func() uint64 { return uint64(l.recovery.DurationNS) })
}

// checkpointer drains automatic checkpoint requests from the hook.
func (l *Log) checkpointer() {
	defer l.wg.Done()
	for range l.ckptCh {
		if err := l.Checkpoint(); err != nil {
			// A failed checkpoint is not fatal: the log keeps growing and
			// recovery replays more tail. Poisoned logs surface the error
			// on the commit path instead.
			continue
		}
	}
}
