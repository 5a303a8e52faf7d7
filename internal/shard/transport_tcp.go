package shard

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The tcp transport runs one executor per peer process (rank) in SPMD
// style: every rank executes the same algorithm driver over the same
// graph, owns the block of shards shardOwners assigns it, and holds
// replicas of every other shard's state. Three protocol pieces make that
// equivalent to the single-process executor:
//
//   - Batches for remote-owned shards travel as ftBatch frames and land
//     in the owner's inbox exactly as a local flush would (wire.go).
//     Topology is a star: workers hold one connection to the coordinator,
//     which relays worker→worker frames — frames are counted once, at
//     the origin rank, so the wire metrics are topology-independent. The
//     run's opening collective (Executor.Parallel) orders every batch of
//     an attempt after every rank's attach, so a batch that finds no
//     executor attached belongs to an attempt that is over.
//   - The barrier ending every Parallel phase allgathers owned state
//     regions, so the quiescent cross-shard reads the algorithm drivers
//     perform between phases (MST component lookups, coloring palettes,
//     result gathers) read replicas that are exactly the owners' words.
//   - Drain quiescence is a counter exchange: each rank contributes
//     (wire batches sent at origin, wire batches enqueued at destination,
//     batches pending in local inboxes); the machine is quiescent iff
//     sent == enqueued and nothing is pending. Sends only happen inside
//     Parallel phases and the exchange is itself a barrier, so the
//     verdict cannot race with new traffic; the enqueue-then-count
//     ordering in deliverLocal makes a late arrival trip at least one of
//     the two conditions. See DESIGN.md §10 for the full argument.
//
// Every collective carries a check word (session fingerprint XOR
// collective ordinal) and both sides verify it: a desynchronized rank —
// diverged op registry, skipped barrier, mismatched config — fails
// loudly instead of reducing garbage.
//
// Protocol failures surface as netFailure panics, recovered at the job
// boundary (Cluster.run / node.serveJobs). Since PR 10 a failure is not
// fatal to the cluster: the coordinator evicts the failed rank, aborts
// the attempt on the survivors (ftAbort) and retries the job over the
// ranks that remain — see DESIGN.md §12 for the failure model and the
// retry soundness argument. Only a fingerprint desync (netFailure.desync)
// still poisons the cluster: retrying divergent code is unsound.

// writeTimeout bounds any single frame write: a peer that stopped reading
// (wedged process, dead NAT entry) eventually fills the TCP window and
// would otherwise block the sender forever. payloadTimeout bounds the
// body phase of a frame read — a link may sit idle indefinitely waiting
// for the next header, but once a header arrives the payload is already
// in flight and must follow promptly.
const (
	writeTimeout   = 2 * time.Minute
	payloadTimeout = 60 * time.Second
)

// errAborted marks a job attempt cancelled on purpose — by an ftAbort
// from the coordinator or the job watchdog — as opposed to one that died
// of a wire fault. Aborts are session-preserving on workers.
var errAborted = errors.New("shard: job attempt aborted")

// netFailure wraps a transport-layer error for the panic/recover hop
// from deep inside the executor to the job boundary.
type netFailure struct {
	err error
	// rank is the session rank to blame, when the failure is attributable
	// to one peer link (-1 otherwise). The coordinator evicts it.
	rank int
	// desync marks a protocol desynchronization (fingerprint/check
	// mismatch): retrying divergent code is unsound, so this — and only
	// this — still poisons the cluster.
	desync bool
	// abort marks a deliberate cancellation (ftAbort, watchdog): the
	// attempt is dead but the session is healthy.
	abort bool
}

// tcpTransport adapts one node (process-wide cluster membership) to one
// executor run. A fresh instance is made per job attempt: the collective
// ordinal and fingerprint restart with it, keeping every rank's check
// sequence aligned; the fingerprint folds in the attempt nonce so frames
// of different attempts can never verify against each other.
type tcpTransport struct {
	node *node
	ex   *Executor
	fp   uint64 // session fingerprint, computed at first collective
	ord  uint64 // collective ordinal
}

func (t *tcpTransport) endpoints() (int, int) { return t.node.jobRank, t.node.jobRanks }
func (t *tcpTransport) pending() int          { return localPending(t.ex) }

func (t *tcpTransport) attach(ex *Executor) {
	t.ex = ex
	t.node.setExec(ex)
}

// nextCheck returns the check word for the next collective. The
// fingerprint folds in everything the ranks must agree on — op registry,
// config shape, state width, graph size, attempt nonce — and is computed
// lazily so it sees the full op registry (operators register after New,
// before the first Parallel).
func (t *tcpTransport) nextCheck() uint64 {
	t.node.checkAbort()
	if t.fp == 0 {
		t.fp = execFingerprint(t.ex) ^ (t.node.jobNonce * 0x9E3779B97F4A7C15)
		if t.fp == 0 {
			t.fp = 1 // keep 0 as the "not yet computed" sentinel
		}
	}
	t.ord++
	return t.fp ^ t.ord
}

func execFingerprint(ex *Executor) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(ex.cfg.Shards))
	mix(uint64(ex.cfg.Workers))
	mix(uint64(ex.words))
	mix(uint64(ex.G.N))
	mix(uint64(ex.nranks))
	for _, op := range ex.ops {
		for i := 0; i < len(op.Name); i++ {
			h ^= uint64(op.Name[i])
			h *= prime
		}
		h *= prime
	}
	return h
}

// deliver implements the transport seam of Worker.flush: an inbox append
// for locally-owned shards (identical to inproc), a framed wire send
// otherwise. The batch buffer is recycled immediately after encoding —
// the wire carries a copy — so the sender's buffer circulation is
// unchanged.
//
// A send failure does not panic: deliver runs on Parallel worker
// goroutines where a panic would be unrecovered and kill the process. It
// fails the link instead; the loss is observed at the next collective
// (dead link) or by the drain quiescence counters (sent was incremented,
// recv never will be) and surfaces at the job boundary, where the
// coordinator evicts and retries.
func (t *tcpTransport) deliver(w *Worker, dst int, batch []message) {
	ex, n := t.ex, t.node
	if ex.shardRank[dst] == n.jobRank {
		s := ex.shards[dst]
		s.inbox.mu.Lock()
		s.inbox.batches = append(s.inbox.batches, batch)
		s.inbox.mu.Unlock()
		return
	}
	w.wire = appendBatchPayload(w.wire[:0], dst, batch)
	n.sentWire.Add(1)
	wireBytes := uint64(frameHdrLen + len(w.wire))
	w.stats.WireBatchesSent++
	w.stats.WireBytesSent += wireBytes
	metWireBatchesSent.Inc()
	metWireBatchBytes.Add(wireBytes)
	l := n.routeLink(ex.shardRank[dst])
	if err := l.writeFrame(ftBatch, w.wire); err != nil {
		l.fail(fmt.Errorf("shard: batch send to shard %d: %w", dst, err))
	}
	w.putBuf(batch)
}

func (t *tcpTransport) allreduce(op redOp, vals []uint64) {
	n := t.node
	check := t.nextCheck()
	metNetCollectives.Inc()
	if n.jobRank == 0 {
		t.coordReduce(uint8(op), check, vals)
	} else {
		t.workerReduce(uint8(op), check, vals)
	}
}

// quiesced implements the distributed Drain verdict; see the package
// comment above for why the sample order (recv before pending) closes
// the late-arrival race.
func (t *tcpTransport) quiesced() bool {
	n := t.node
	recv := n.recvWire.Load()
	pend := uint64(localPending(t.ex))
	vals := [3]uint64{n.sentWire.Load(), recv, pend}
	t.allreduce(redSum, vals[:])
	return vals[0] == vals[1] && vals[2] == 0
}

// barrier ends a Parallel phase machine-wide and refreshes every
// non-owned state replica from its owner: each rank contributes its
// owned regions (shard-id order), the coordinator stitches the full
// state image and broadcasts it back.
func (t *tcpTransport) barrier() {
	ex, n := t.ex, t.node
	check := t.nextCheck()
	metNetCollectives.Inc()
	regionBytes := 8 * ex.words * ex.Part.MaxLocal()
	var full []byte
	if n.jobRank == 0 {
		full = make([]byte, regionBytes*ex.cfg.Shards)
		for id, s := range ex.shards {
			if ex.shardRank[id] == 0 {
				encodeState(full[id*regionBytes:(id+1)*regionBytes], s.state)
			}
		}
		for r := 1; r < n.jobRanks; r++ {
			l := n.jobLinks[r]
			kind, c, _, body, err := decodeCollPayload(n.awaitColl(l))
			if err != nil {
				panic(netFailure{err: err, rank: l.peer})
			}
			t.verifyColl(l, kind, collState, c, check)
			off := 0
			for id := range ex.shards {
				if ex.shardRank[id] != r {
					continue
				}
				if off+regionBytes > len(body) {
					panic(netFailure{err: fmt.Errorf("shard: rank %d state blob short at shard %d", r, id), rank: l.peer})
				}
				copy(full[id*regionBytes:(id+1)*regionBytes], body[off:off+regionBytes])
				off += regionBytes
			}
			if off != len(body) {
				panic(netFailure{err: fmt.Errorf("shard: rank %d state blob has %d stray bytes", r, len(body)-off), rank: l.peer})
			}
		}
		res := appendStateCollPayload(nil, check, full)
		for r := 1; r < n.jobRanks; r++ {
			l := n.jobLinks[r]
			if err := l.writeFrame(ftCollRes, res); err != nil {
				panic(netFailure{err: err, rank: l.peer})
			}
		}
	} else {
		body := make([]byte, 0, regionBytes*ex.cfg.Shards/n.jobRanks+regionBytes)
		for id, s := range ex.shards {
			if ex.shardRank[id] == n.jobRank {
				body = appendEncodedState(body, s.state)
			}
		}
		l := n.links[0]
		if err := l.writeFrame(ftColl, appendStateCollPayload(nil, check, body)); err != nil {
			panic(netFailure{err: err, rank: -1})
		}
		kind, c, _, res, err := decodeCollPayload(n.awaitColl(l))
		if err != nil {
			panic(netFailure{err: err, rank: -1})
		}
		t.verifyColl(l, kind, collState, c, check)
		if len(res) != regionBytes*ex.cfg.Shards {
			panic(netFailure{err: fmt.Errorf("shard: state image is %d bytes, want %d", len(res), regionBytes*ex.cfg.Shards), rank: -1})
		}
		full = res
	}
	for id, s := range ex.shards {
		if ex.shardRank[id] != n.jobRank {
			decodeState(s.state, full[id*regionBytes:(id+1)*regionBytes])
		}
	}
	metNetStateBytes.Add(uint64(len(full)))
}

// encodeState serializes state words little-endian into dst (atomic
// loads: worker goroutines of past phases wrote them atomically).
func encodeState(dst []byte, state []uint64) {
	for i := range state {
		v := atomic.LoadUint64(&state[i])
		putU64(dst[i*8:], v)
	}
}

func appendEncodedState(buf []byte, state []uint64) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, 8*len(state))...)
	encodeState(buf[off:], state)
	return buf
}

// decodeState installs a replica region (atomic stores: the next phase's
// workers read these words atomically).
func decodeState(state []uint64, src []byte) {
	for i := range state {
		atomic.StoreUint64(&state[i], getU64(src[i*8:]))
	}
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// verifyColl asserts a collective frame's kind and check word, and
// classifies the failure. A check word that decodes to an earlier
// ordinal of this same attempt is a stale or duplicated frame — a wire
// fault, attributable to the link, safe to retry after eviction. Any
// other mismatch means the ranks genuinely computed different
// fingerprints (diverged op registries, configs, graphs): retrying
// divergent code is unsound, so that stays fatal to the cluster.
func (t *tcpTransport) verifyColl(l *link, kind, wantKind uint8, check, want uint64) {
	if kind == wantKind && check == want {
		return
	}
	if kind == wantKind && t.fp != 0 {
		if gotOrd := check ^ t.fp; gotOrd < t.ord+(1<<20) {
			panic(netFailure{
				err:  fmt.Errorf("shard: stale collective (ordinal %d at ordinal %d)", gotOrd, t.ord),
				rank: l.peer,
			})
		}
	}
	if kind != wantKind {
		panic(netFailure{
			err:    fmt.Errorf("shard: collective kind %d, want %d (ranks desynchronized)", kind, wantKind),
			rank:   l.peer,
			desync: true,
		})
	}
	panic(netFailure{
		err:    fmt.Errorf("shard: collective check %#x, want %#x (op registries or configs diverged)", check, want),
		rank:   l.peer,
		desync: true,
	})
}

// coordReduce runs one collective as job rank 0: collect every
// participant's contribution, combine element-wise into vals, broadcast
// the result.
func (t *tcpTransport) coordReduce(kind uint8, check uint64, vals []uint64) {
	n := t.node
	for r := 1; r < n.jobRanks; r++ {
		l := n.jobLinks[r]
		k, c, v, _, err := decodeCollPayload(n.awaitColl(l))
		if err != nil {
			panic(netFailure{err: err, rank: l.peer})
		}
		t.verifyColl(l, k, kind, c, check)
		if len(v) != len(vals) {
			panic(netFailure{err: fmt.Errorf("shard: rank %d reduced %d values, want %d", r, len(v), len(vals)), rank: l.peer})
		}
		combine(redOp(kind), vals, v)
	}
	res := appendCollPayload(nil, kind, check, vals)
	for r := 1; r < n.jobRanks; r++ {
		l := n.jobLinks[r]
		if err := l.writeFrame(ftCollRes, res); err != nil {
			panic(netFailure{err: err, rank: l.peer})
		}
	}
}

// workerReduce runs one collective as a worker rank: contribute, then
// take the coordinator's verdict.
func (t *tcpTransport) workerReduce(kind uint8, check uint64, vals []uint64) {
	n := t.node
	l := n.links[0]
	if err := l.writeFrame(ftColl, appendCollPayload(nil, kind, check, vals)); err != nil {
		panic(netFailure{err: err, rank: -1})
	}
	k, c, v, _, err := decodeCollPayload(n.awaitColl(l))
	if err != nil {
		panic(netFailure{err: err, rank: -1})
	}
	t.verifyColl(l, k, kind, c, check)
	if len(v) != len(vals) {
		panic(netFailure{err: fmt.Errorf("shard: collective result has %d values, want %d", len(v), len(vals)), rank: -1})
	}
	copy(vals, v)
}

// combine folds contribution v into acc element-wise.
func combine(op redOp, acc, v []uint64) {
	switch op {
	case redSum:
		for i := range acc {
			acc[i] += v[i]
		}
	case redMin:
		for i := range acc {
			if v[i] < acc[i] {
				acc[i] = v[i]
			}
		}
	case redOr:
		for i := range acc {
			acc[i] |= v[i]
		}
	}
}

// node is one process's membership in a cluster: its session rank, its
// links, and the per-attempt identity, executor and quiescence counters.
// It outlives jobs; a fresh tcpTransport binds it to each executor.
type node struct {
	// rank/nranks are the session identity: the slot this process holds
	// in the cluster membership and the cluster's full size. They never
	// change while the process is connected.
	rank   int
	nranks int
	// links, indexed by session rank. On the coordinator every worker
	// rank has a link (links[0] is nil); on a worker only links[0] (the
	// coordinator) is set — the star topology.
	links []*link

	// Per-attempt identity. An attempt may run over fewer ranks than the
	// session holds (evicted peers, no replacement): jobRank/jobRanks
	// are this process's place in the attempt's dense rank set, and
	// jobLinks (coordinator only) maps attempt rank → link. Written by
	// startJob; the driver side reads them without locks — it runs
	// strictly after its own startJob call.
	jobRank  int
	jobRanks int
	jobNonce uint64
	jobLinks []*link
	// collTimeout is the attempt's collective wait bound, shipped in the
	// job config so all ranks share one failure-detection clock.
	collTimeout time.Duration

	// mu guards what the read loop routes batches by: the attempt's
	// executor (nil between attempts) and, for the relay, jobLinks.
	mu sync.Mutex
	ex *Executor

	// Abort state. requestAbort closes abortCh so every collective wait
	// (and the next nextCheck) unblocks into a clean job-boundary panic;
	// clearAbort re-arms it for the next attempt. abortReq fences stale
	// job specs: runJob discards attempts whose nonce was already
	// aborted. abortDone suppresses duplicate abort requests.
	abortMu   sync.Mutex
	aborted   bool
	abortErr  error
	abortCh   chan struct{}
	abortReq  uint64
	abortDone uint64
	// lastJob is the highest job nonce this worker has started. Nonces
	// are strictly increasing per cluster, so a spec at or below it is a
	// duplicated frame and must be discarded — re-running a completed
	// attempt solo would spray stale collective frames at the
	// coordinator.
	lastJob uint64

	sentWire atomic.Uint64 // wire batches sent at this origin (this job)
	recvWire atomic.Uint64 // wire batches enqueued at this destination
}

func newNode(rank, nranks int, links []*link) *node {
	return &node{
		rank:    rank,
		nranks:  nranks,
		links:   links,
		abortCh: make(chan struct{}),
	}
}

// routeLink returns the link that reaches attempt rank r under the star
// topology.
func (n *node) routeLink(r int) *link {
	if n.jobRank == 0 {
		return n.jobLinks[r]
	}
	return n.links[0]
}

// startJob sets the identity and quiescence accounting of one job
// attempt.
func (n *node) startJob(nonce uint64, jobRank, jobRanks int, jobLinks []*link, collTO time.Duration) {
	n.mu.Lock()
	n.jobLinks = jobLinks
	n.mu.Unlock()
	n.jobRank = jobRank
	n.jobRanks = jobRanks
	n.jobNonce = nonce
	n.collTimeout = collTO
	n.sentWire.Store(0)
	n.recvWire.Store(0)
}

// setExec attaches the attempt's executor, or detaches it (nil) when the
// attempt ends; frames of the attempt still in flight are then dropped
// on arrival.
func (n *node) setExec(ex *Executor) {
	n.mu.Lock()
	n.ex = ex
	n.mu.Unlock()
}

// requestAbort cancels the in-flight attempt: every collective wait and
// the next collective entry observe the closed channel and unwind to the
// job boundary with netFailure.abort set.
func (n *node) requestAbort(err error) {
	n.abortMu.Lock()
	if !n.aborted {
		n.aborted = true
		n.abortErr = err
		close(n.abortCh)
	}
	n.abortMu.Unlock()
}

// noteAbort handles an ftAbort request from the coordinator: fence the
// nonce so stale job specs are discarded and trigger the local abort.
// Returns false for duplicates of an abort that was already acknowledged.
func (n *node) noteAbort(nonce uint64) bool {
	n.abortMu.Lock()
	if nonce <= n.abortDone {
		n.abortMu.Unlock()
		return false
	}
	if nonce > n.abortReq {
		n.abortReq = nonce
	}
	if !n.aborted {
		n.aborted = true
		n.abortErr = fmt.Errorf("%w (coordinator abort, nonce %d)", errAborted, nonce)
		close(n.abortCh)
	}
	n.abortMu.Unlock()
	return true
}

// clearAbort re-arms the abort channel after the attempt named nonce has
// been fully unwound (collectives drained, ack sent).
func (n *node) clearAbort(nonce uint64) {
	n.abortMu.Lock()
	if n.aborted {
		n.aborted = false
		n.abortErr = nil
		n.abortCh = make(chan struct{})
	}
	if nonce > n.abortDone {
		n.abortDone = nonce
	}
	n.abortMu.Unlock()
}

// abortChan returns the channel closed by the in-flight abort, if any.
func (n *node) abortChan() <-chan struct{} {
	n.abortMu.Lock()
	ch := n.abortCh
	n.abortMu.Unlock()
	return ch
}

// jobFence returns the highest job nonce that must not (re)start: the
// maximum of the aborted and the already-started nonces. runJob
// discards specs at or below it — they are duplicated frames or
// attempts the coordinator has already given up on. The passing nonce
// is recorded as started.
func (n *node) jobFence(nonce uint64) (stale bool) {
	n.abortMu.Lock()
	defer n.abortMu.Unlock()
	if nonce <= n.abortReq || nonce <= n.lastJob {
		return true
	}
	n.lastJob = nonce
	return false
}

// checkAbort panics to the job boundary if an abort is pending.
func (n *node) checkAbort() {
	n.abortMu.Lock()
	aborted, err := n.aborted, n.abortErr
	n.abortMu.Unlock()
	if aborted {
		if err == nil {
			err = errAborted
		}
		panic(netFailure{err: err, rank: -1, abort: true})
	}
}

// awaitColl blocks for the next collective frame on l, converting link
// failure, abort, or timeout into a netFailure.
func (n *node) awaitColl(l *link) []byte {
	to := n.collTimeout
	if to <= 0 {
		to = 2 * time.Minute
	}
	timer := time.NewTimer(to)
	defer timer.Stop()
	select {
	case p := <-l.collCh:
		return p
	case err := <-l.errCh:
		panic(netFailure{err: err, rank: l.peer})
	case <-n.abortChan():
		n.checkAbort()
		panic(netFailure{err: errAborted, rank: -1, abort: true})
	case <-timer.C:
		panic(netFailure{err: fmt.Errorf("shard: collective timed out after %v", to), rank: l.peer})
	}
}

// drainColl discards collective frames buffered on l. Called after an
// abort acknowledgement: the ack is FIFO-ordered behind every frame of
// the dead attempt, so whatever is buffered now is stale and the channel
// is quiet until the next attempt.
func drainColl(l *link) {
	for {
		select {
		case <-l.collCh:
		default:
			return
		}
	}
}

// routeBatch handles one ftBatch frame off the wire: relay if the owner
// is another rank (coordinator only), enqueue locally otherwise. A frame
// that finds no executor attached belongs to an attempt that is over —
// the opening collective keeps a live attempt's batches behind every
// rank's attach — and is dropped: the retry re-initializes all state, so
// it carries no information.
func (n *node) routeBatch(payload []byte) error {
	dst, err := batchDst(payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	ex, jobLinks := n.ex, n.jobLinks
	n.mu.Unlock()
	if ex == nil {
		return nil
	}
	if dst >= len(ex.shardRank) {
		return fmt.Errorf("shard: batch for shard %d of %d", dst, len(ex.shardRank))
	}
	owner := ex.shardRank[dst]
	if owner == ex.rank {
		return n.deliverLocal(ex, payload)
	}
	if ex.rank != 0 {
		return fmt.Errorf("shard: worker rank %d asked to relay shard %d to rank %d", ex.rank, dst, owner)
	}
	// Relay failure is the TARGET's problem, not the source's: fail that
	// link (the coordinator will evict the target rank) and keep reading
	// from the healthy source.
	tl := jobLinks[owner]
	if err := tl.writeFrame(ftBatch, payload); err != nil {
		tl.fail(fmt.Errorf("shard: relay to rank %d: %w", owner, err))
	}
	return nil
}

// deliverLocal decodes a batch frame into the owner shard's inbox. The
// enqueue happens before the recvWire increment — quiesced() relies on
// that order (see the package comment).
func (n *node) deliverLocal(ex *Executor, payload []byte) error {
	dst, msgs, err := decodeBatchPayload(payload, ex.pool.get())
	if err != nil {
		return err
	}
	s := ex.shards[dst]
	s.inbox.mu.Lock()
	s.inbox.batches = append(s.inbox.batches, msgs)
	s.inbox.mu.Unlock()
	n.recvWire.Add(1)
	metWireBatchesRecv.Inc()
	return nil
}

// link is one framed connection endpoint. The reader goroutine
// (node.readLoop) demuxes inbound frames: batches route immediately,
// collective frames, jobs and abort nonces queue on channels for the
// session layer.
type link struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	// peer is the session rank on the far end (coordinator side; -1 on
	// workers, whose single link always reaches the coordinator).
	peer int
	// chaos, when non-nil, intercepts writeFrame for deterministic fault
	// injection (chaos.go; tests only).
	chaos *chaosLink

	collCh chan []byte
	jobCh  chan []byte
	byeCh  chan struct{}
	errCh  chan error
	// abortNonces carries ftAbort nonces: abort requests on a worker's
	// link, acknowledgements on the coordinator's. Bounded and lossy
	// under pathological floods — a lost ack turns into an eviction,
	// never a wedged read loop.
	abortNonces chan uint64

	// lastRecv is the unix-nano stamp of the last frame received; the
	// heartbeat loop reads it to distinguish quiet from dead. lastPing
	// (heartbeat loop only) spaces the probes.
	lastRecv atomic.Int64
	lastPing int64
}

func newLink(conn net.Conn) *link {
	l := &link{
		conn:        conn,
		br:          bufio.NewReaderSize(conn, 64<<10),
		peer:        -1,
		collCh:      make(chan []byte, 4),
		jobCh:       make(chan []byte, 4),
		byeCh:       make(chan struct{}),
		errCh:       make(chan error, 1),
		abortNonces: make(chan uint64, 16),
	}
	l.lastRecv.Store(time.Now().UnixNano())
	return l
}

// writeFrame sends one frame; the write mutex keeps concurrently
// flushing workers (and the relay) from interleaving frames. Each frame
// re-arms the write deadline, so only a transfer that stalls for the full
// writeTimeout fails — sustained slow progress does not.
func (l *link) writeFrame(ft frameType, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.chaos != nil {
		return l.chaos.write(l, ft, payload)
	}
	return l.writeFrameLocked(ft, payload, false)
}

// writeFrameLocked is the raw frame write; the caller holds wmu. corrupt
// flips the magic so the receiver rejects the frame at the header (chaos
// injection only).
func (l *link) writeFrameLocked(ft frameType, payload []byte, corrupt bool) error {
	l.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	var hdr [frameHdrLen]byte
	putFrameHeader(hdr[:], ft, len(payload))
	if corrupt {
		hdr[0] ^= 0xFF
	}
	if _, err := l.conn.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := l.conn.Write(payload); err != nil {
			return err
		}
	}
	metNetFramesSent.Inc()
	metNetBytesSent.Add(uint64(frameHdrLen + len(payload)))
	return nil
}

// fail records the link's terminal error (first one wins) and tears the
// connection down, unblocking any reader.
func (l *link) fail(err error) {
	select {
	case l.errCh <- err:
	default:
	}
	l.conn.Close()
}

// readLoop demuxes inbound frames until the connection dies or says bye.
// The header wait is deadline-free (links idle between jobs); the payload
// phase is bounded by payloadTimeout. Control frames (ping/pong/abort)
// are length-capped at the header (frameLenCap) and exact-checked here,
// so a hostile peer can neither over-allocate nor wedge the loop with
// them.
func (n *node) readLoop(l *link) {
	for {
		ft, size, err := readFrameHeader(l.br)
		if err != nil {
			l.fail(fmt.Errorf("shard: wire read: %w", err))
			return
		}
		l.conn.SetReadDeadline(time.Now().Add(payloadTimeout))
		payload, err := readFramePayload(l.br, size)
		if err != nil {
			l.fail(fmt.Errorf("shard: wire read: %w", err))
			return
		}
		l.conn.SetReadDeadline(time.Time{})
		l.lastRecv.Store(time.Now().UnixNano())
		metNetFramesRecv.Inc()
		metNetBytesRecv.Add(uint64(frameHdrLen + len(payload)))
		switch ft {
		case ftBatch:
			if err := n.routeBatch(payload); err != nil {
				l.fail(err)
				return
			}
		case ftColl, ftCollRes:
			l.collCh <- payload
		case ftJob:
			select {
			case l.jobCh <- payload:
			default:
				// A full job queue means the peer is spraying attempts
				// faster than they can be discarded: protocol violation.
				l.fail(fmt.Errorf("shard: job queue overflow"))
				return
			}
		case ftPing:
			if len(payload) != 8 {
				l.fail(fmt.Errorf("shard: ping payload %d bytes, want 8", len(payload)))
				return
			}
			if err := l.writeFrame(ftPong, payload); err != nil {
				l.fail(fmt.Errorf("shard: pong: %w", err))
				return
			}
		case ftPong:
			if len(payload) != 8 {
				l.fail(fmt.Errorf("shard: pong payload %d bytes, want 8", len(payload)))
				return
			}
			if ts := int64(getU64(payload)); ts > 0 {
				if rtt := time.Now().UnixNano() - ts; rtt >= 0 {
					metClusterHeartbeatRTT.Record(uint64(rtt))
				}
			}
		case ftAbort:
			if len(payload) != 8 {
				l.fail(fmt.Errorf("shard: abort payload %d bytes, want 8", len(payload)))
				return
			}
			nonce := getU64(payload)
			if n.rank == 0 {
				// Acknowledgement from a worker.
				select {
				case l.abortNonces <- nonce:
				default:
				}
			} else if n.noteAbort(nonce) {
				select {
				case l.abortNonces <- nonce:
				default:
				}
			}
		case ftBye:
			close(l.byeCh)
			return
		case ftError:
			l.fail(fmt.Errorf("shard: peer failed: %s", payload))
			return
		default:
			l.fail(fmt.Errorf("shard: unexpected %d frame", ft))
			return
		}
	}
}
