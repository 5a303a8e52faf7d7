package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/graph"
)

// Wire protocol of the tcp transport (version 3; a peer of any other
// version is refused at its first frame). Every frame is a fixed
// 8-byte header followed by a payload:
//
//	magic[2] = 0xAA 0x4D | version u8 | type u8 | length u32 LE
//
// All integers are little-endian. Frames never elicit a paired response
// at the framing layer — request/response pairing (collectives, jobs) is
// the session layer's business — so the protocol stays one-way and
// deadlock-free like the in-process batch handoff it replaces.
//
// Decoding is defensive end to end: a malformed header, a truncated
// payload, an oversized length, or an inconsistent count field returns an
// error and never panics (fuzz-tested in wire_test.go). The length
// cap bounds what a broken or hostile peer can make us allocate.
const (
	wireMagic0  = 0xAA
	wireMagic1  = 0x4D
	wireVersion = 3

	frameHdrLen = 8
	// maxFrameLen caps one frame's payload (64 MiB): far above any real
	// batch, comfortably above the state blobs of bench-scale graphs.
	maxFrameLen = 64 << 20
)

// frameType discriminates the payloads of the tcp session.
type frameType uint8

const (
	// ftHello: worker → coordinator, first frame after dialing. Empty
	// payload (the header's version byte is the compatibility check).
	ftHello frameType = iota + 1
	// ftWelcome: coordinator → worker reply: rank u32 | nranks u32.
	ftWelcome
	// ftJob: coordinator → worker: one algorithm invocation — name, params,
	// config and the full graph (see encodeJob).
	ftJob
	// ftBatch: one coalesced cross-shard operator batch (see
	// appendBatchPayload). Routed by the leading dstShard field; the
	// coordinator relays worker→worker batches.
	ftBatch
	// ftColl: worker → coordinator collective contribution:
	// kind u8 | check u64 | body.
	ftColl
	// ftCollRes: coordinator → worker collective result; same layout.
	ftCollRes
	// ftBye: coordinator → worker: clean shutdown, empty payload.
	ftBye
	// ftError: either direction: utf-8 error text; the session is dead.
	ftError
	// ftPing: coordinator → worker heartbeat probe: sendNano u64. Sent on
	// links that have been quiet past the heartbeat interval so liveness
	// is measured even when no job traffic flows.
	ftPing
	// ftPong: worker → coordinator heartbeat echo; payload is the probe's
	// sendNano verbatim, so the coordinator reads RTT off its own clock.
	ftPong
	// ftAbort: coordinator → worker: cancel the in-flight job (payload is
	// the job nonce u64); worker → coordinator: acknowledgement echoing
	// the same nonce once the worker has quiesced at the job boundary.
	ftAbort
)

// ctrlFrameLenCap bounds the tiny control frames (hello and bye are
// empty, welcome carries two u32, ping/pong/abort one u64). Enforced at
// the header so a hostile peer can't make a vacant rank's handshake or an
// idle link allocate maxFrameLen bytes, or wedge the read loop streaming
// a giant payload behind a control header.
const ctrlFrameLenCap = 16

// frameLenCap returns the payload cap for one frame type.
func frameLenCap(ft frameType) uint32 {
	switch ft {
	case ftHello, ftWelcome, ftBye, ftPing, ftPong, ftAbort:
		return ctrlFrameLenCap
	}
	return maxFrameLen
}

// putFrameHeader writes the 8-byte header for a payload of length n into
// hdr.
func putFrameHeader(hdr []byte, ft frameType, n int) {
	hdr[0] = wireMagic0
	hdr[1] = wireMagic1
	hdr[2] = wireVersion
	hdr[3] = byte(ft)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
}

// readFrameHeader reads and validates one frame header off r, returning
// the frame type and the announced payload length. Split from the payload
// read so callers with a connection in hand can wait for the header
// without a deadline (idle links are legitimate) but bound the payload
// phase — once a header arrives, the body is already in flight.
func readFrameHeader(r io.Reader) (frameType, int, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, 0, fmt.Errorf("shard: bad frame magic %02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return 0, 0, fmt.Errorf("shard: wire version %d, want %d", hdr[2], wireVersion)
	}
	ft := frameType(hdr[3])
	if ft < ftHello || ft > ftAbort {
		return 0, 0, fmt.Errorf("shard: unknown frame type %d", hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if cap := frameLenCap(ft); n > cap {
		return 0, 0, fmt.Errorf("shard: frame type %d length %d exceeds cap %d", ft, n, cap)
	}
	return ft, int(n), nil
}

// readFramePayload reads the n payload bytes a header announced. The
// returned payload is freshly allocated and owned by the caller.
func readFramePayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("shard: truncated %d-byte frame: %w", n, err)
	}
	return payload, nil
}

// readFrame reads one frame off r, validating magic, version and length.
func readFrame(r io.Reader) (frameType, []byte, error) {
	ft, n, err := readFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readFramePayload(r, n)
	if err != nil {
		return 0, nil, err
	}
	return ft, payload, nil
}

// Batch payload layout:
//
//	dstShard u32 | count u32 | count × (op u16 | lv u32 | arg u64)
//
// dstShard leads so relays can route on the first four bytes without
// decoding units. The 14-byte unit mirrors the in-memory message struct;
// lv is the owner-local vertex index (an int32 stored as u32).
const (
	batchHdrLen = 8
	msgWireLen  = 14
)

// batchWireLen returns the encoded payload size of an n-unit batch.
func batchWireLen(n int) int { return batchHdrLen + n*msgWireLen }

// appendBatchPayload encodes a batch for shard dst onto buf.
func appendBatchPayload(buf []byte, dst int, batch []message) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(dst))
	buf = append(buf, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(batch)))
	buf = append(buf, u32[:]...)
	var unit [msgWireLen]byte
	for _, m := range batch {
		binary.LittleEndian.PutUint16(unit[0:2], m.op)
		binary.LittleEndian.PutUint32(unit[2:6], uint32(m.lv))
		binary.LittleEndian.PutUint64(unit[6:14], m.arg)
		buf = append(buf, unit[:]...)
	}
	return buf
}

// batchDst peeks the destination shard of an encoded batch payload (for
// relay routing) without decoding the units.
func batchDst(p []byte) (int, error) {
	if len(p) < batchHdrLen {
		return 0, fmt.Errorf("shard: batch payload %d bytes, want >= %d", len(p), batchHdrLen)
	}
	return int(binary.LittleEndian.Uint32(p[0:4])), nil
}

// decodeBatchPayload decodes a batch payload, appending units onto buf
// (pass a recycled buffer to keep the receive path allocation-light).
// The count field must agree exactly with the payload length.
func decodeBatchPayload(p []byte, buf []message) (dst int, msgs []message, err error) {
	if len(p) < batchHdrLen {
		return 0, nil, fmt.Errorf("shard: batch payload %d bytes, want >= %d", len(p), batchHdrLen)
	}
	dst = int(binary.LittleEndian.Uint32(p[0:4]))
	count := binary.LittleEndian.Uint32(p[4:8])
	if uint64(len(p)-batchHdrLen) != uint64(count)*msgWireLen {
		return 0, nil, fmt.Errorf("shard: batch count %d disagrees with %d payload bytes", count, len(p)-batchHdrLen)
	}
	msgs = buf
	for off := batchHdrLen; off < len(p); off += msgWireLen {
		msgs = append(msgs, message{
			op:  binary.LittleEndian.Uint16(p[off : off+2]),
			lv:  int32(binary.LittleEndian.Uint32(p[off+2 : off+6])),
			arg: binary.LittleEndian.Uint64(p[off+6 : off+14]),
		})
	}
	return dst, msgs, nil
}

// Collective payload layout (ftColl and ftCollRes):
//
//	kind u8 | check u64 | count u32 | count × u64
//
// check is the session fingerprint XOR the collective ordinal; both sides
// verify it so a desynchronized rank (diverged op registry, skipped
// barrier) fails loudly instead of reducing garbage.
const (
	collSum   = uint8(redSum)
	collMin   = uint8(redMin)
	collOr    = uint8(redOr)
	collState = 4 // barrier allgather: body is raw state bytes, not u64s
)

const collHdrLen = 1 + 8 + 4

// appendCollPayload encodes a collective contribution or result.
func appendCollPayload(buf []byte, kind uint8, check uint64, vals []uint64) []byte {
	buf = append(buf, kind)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], check)
	buf = append(buf, u64[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(vals)))
	buf = append(buf, u32[:]...)
	for _, v := range vals {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf = append(buf, u64[:]...)
	}
	return buf
}

// decodeCollPayload decodes a collective payload. For collState kinds the
// body is opaque bytes and vals is nil; callers slice p themselves.
func decodeCollPayload(p []byte) (kind uint8, check uint64, vals []uint64, body []byte, err error) {
	if len(p) < collHdrLen {
		return 0, 0, nil, nil, fmt.Errorf("shard: collective payload %d bytes, want >= %d", len(p), collHdrLen)
	}
	kind = p[0]
	check = binary.LittleEndian.Uint64(p[1:9])
	count := binary.LittleEndian.Uint32(p[9:13])
	body = p[collHdrLen:]
	if kind == collState {
		if uint64(count) != uint64(len(body)) {
			return 0, 0, nil, nil, fmt.Errorf("shard: state collective count %d disagrees with %d body bytes", count, len(body))
		}
		return kind, check, nil, body, nil
	}
	if kind != collSum && kind != collMin && kind != collOr {
		return 0, 0, nil, nil, fmt.Errorf("shard: unknown collective kind %d", kind)
	}
	if uint64(len(body)) != uint64(count)*8 {
		return 0, 0, nil, nil, fmt.Errorf("shard: collective count %d disagrees with %d body bytes", count, len(body))
	}
	vals = make([]uint64, count)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(body[i*8 : i*8+8])
	}
	return kind, check, vals, nil, nil
}

// appendStateCollPayload encodes a collState contribution whose body is
// raw bytes (owned state regions, in shard-id order).
func appendStateCollPayload(buf []byte, check uint64, body []byte) []byte {
	buf = append(buf, collState)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], check)
	buf = append(buf, u64[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(body)))
	buf = append(buf, u32[:]...)
	return append(buf, body...)
}

// Job payload layout:
//
//	nonce u64 | jobRank u32 | jobRanks u32 |
//	nameLen u8 | name | nparams u32 | nparams × u64 |
//	cfg (encodeConfig) | graph (graph.WriteBinary)
//
// The nonce identifies one job attempt (strictly increasing per cluster)
// so aborts name the attempt they cancel and workers discard stale
// specs. jobRank/jobRanks place this recipient in the attempt's rank
// set, which can be smaller than the cluster when ranks were evicted —
// the coordinator encodes the spec once and patches jobRank per
// recipient (patchJobRank).
//
// The graph rides the job frame whole: at bench/CI scale shipping the CSR
// (the "AAMG" binary format, weights included) is cheaper than inventing
// a partition-shipping scheme, and it is exactly what the replica model
// needs — every rank holds the full structure and owns a state slice.
const jobPrologueLen = 8 + 4 + 4

func encodeJob(spec jobSpec) ([]byte, error) {
	if len(spec.Name) > 255 {
		return nil, fmt.Errorf("shard: job name %q too long", spec.Name)
	}
	buf := make([]byte, jobPrologueLen, jobPrologueLen+1+len(spec.Name))
	binary.LittleEndian.PutUint64(buf[0:8], spec.Nonce)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(spec.JobRank))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(spec.JobRanks))
	buf = append(buf, byte(len(spec.Name)))
	buf = append(buf, spec.Name...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(spec.Params)))
	buf = append(buf, u32[:]...)
	var u64 [8]byte
	for _, v := range spec.Params {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf = append(buf, u64[:]...)
	}
	buf = appendConfig(buf, spec.Cfg)
	w := bytesWriter{buf: buf}
	if err := graph.WriteBinary(&w, spec.G); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// patchJobRank rewrites the jobRank field of an encoded job payload in
// place, so one encodeJob serves every recipient of an attempt.
func patchJobRank(payload []byte, jobRank int) {
	binary.LittleEndian.PutUint32(payload[8:12], uint32(jobRank))
}

// decodeJob is the inverse of encodeJob.
func decodeJob(p []byte) (jobSpec, error) {
	var spec jobSpec
	if len(p) < jobPrologueLen+1 {
		return spec, fmt.Errorf("shard: job payload %d bytes, want >= %d", len(p), jobPrologueLen+1)
	}
	spec.Nonce = binary.LittleEndian.Uint64(p[0:8])
	spec.JobRank = int(int32(binary.LittleEndian.Uint32(p[8:12])))
	spec.JobRanks = int(int32(binary.LittleEndian.Uint32(p[12:16])))
	p = p[jobPrologueLen:]
	nameLen := int(p[0])
	p = p[1:]
	if len(p) < nameLen+4 {
		return spec, fmt.Errorf("shard: truncated job header")
	}
	spec.Name = string(p[:nameLen])
	p = p[nameLen:]
	nparams := binary.LittleEndian.Uint32(p[0:4])
	p = p[4:]
	if nparams > 64 {
		return spec, fmt.Errorf("shard: job has %d params, cap is 64", nparams)
	}
	if uint64(len(p)) < uint64(nparams)*8 {
		return spec, fmt.Errorf("shard: truncated job params")
	}
	spec.Params = make([]uint64, nparams)
	for i := range spec.Params {
		spec.Params[i] = binary.LittleEndian.Uint64(p[i*8 : i*8+8])
	}
	p = p[nparams*8:]
	cfg, rest, err := decodeConfig(p)
	if err != nil {
		return spec, err
	}
	spec.Cfg = cfg
	g, err := graph.ReadBinary(bytes.NewReader(rest))
	if err != nil {
		return spec, fmt.Errorf("shard: job graph: %w", err)
	}
	spec.G = g
	return spec, nil
}

// Config wire layout:
//
//	shards u32 | workers u32 | batch u32 |
//	flush u8 | part u8 | dir u8 | mech u8 |
//	collTimeoutNs u64 | jobTimeoutNs u64
//
// The two durations ship so every rank of an attempt runs the same
// failure-detection clock — a worker with a longer collective timeout
// than its coordinator would linger in dead collectives after eviction.
// HeartbeatEvery and Liveness stay with the coordinator: only its
// heartbeat loop reads them.
func appendConfig(buf []byte, cfg Config) []byte {
	var u32 [4]byte
	for _, v := range []int{cfg.Shards, cfg.Workers, cfg.BatchSize} {
		binary.LittleEndian.PutUint32(u32[:], uint32(v))
		buf = append(buf, u32[:]...)
	}
	buf = append(buf, byte(cfg.Flush), byte(cfg.Part), byte(cfg.Dir), byte(cfg.Mechanism))
	var u64 [8]byte
	for _, d := range []time.Duration{cfg.CollTimeout, cfg.JobTimeout} {
		binary.LittleEndian.PutUint64(u64[:], uint64(d.Nanoseconds()))
		buf = append(buf, u64[:]...)
	}
	return buf
}

func decodeConfig(p []byte) (Config, []byte, error) {
	var cfg Config
	const fixed = 3*4 + 4 + 2*8
	if len(p) < fixed {
		return cfg, nil, fmt.Errorf("shard: truncated config")
	}
	cfg.Shards = int(binary.LittleEndian.Uint32(p[0:4]))
	cfg.Workers = int(binary.LittleEndian.Uint32(p[4:8]))
	cfg.BatchSize = int(binary.LittleEndian.Uint32(p[8:12]))
	cfg.Flush = FlushPolicy(p[12])
	cfg.Part = PartScheme(p[13])
	cfg.Dir = Direction(p[14])
	cfg.Mechanism = aam.Mechanism(p[15])
	for i, d := range []*time.Duration{&cfg.CollTimeout, &cfg.JobTimeout} {
		ns := binary.LittleEndian.Uint64(p[16+i*8 : 24+i*8])
		if ns > uint64(100*24*time.Hour) {
			return cfg, nil, fmt.Errorf("shard: config timeout %d implausible (%d ns)", i, ns)
		}
		*d = time.Duration(ns)
	}
	return cfg, p[fixed:], nil
}

// bytesWriter adapts an append-grown []byte to io.Writer for
// graph.WriteBinary.
type bytesWriter struct{ buf []byte }

func (w *bytesWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
