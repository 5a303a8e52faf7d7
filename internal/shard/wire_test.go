package shard

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/graph"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xA5}, 1000)}
	for _, ft := range []frameType{ftHello, ftWelcome, ftJob, ftBatch, ftColl, ftCollRes, ftBye, ftError} {
		for _, p := range payloads {
			var hdr [frameHdrLen]byte
			putFrameHeader(hdr[:], ft, len(p))
			stream := append(append([]byte{}, hdr[:]...), p...)
			gotFT, gotP, err := readFrame(bytes.NewReader(stream))
			if uint32(len(p)) > frameLenCap(ft) {
				if err == nil {
					t.Fatalf("ft %d, %d bytes: decoded over its %d-byte cap", ft, len(p), frameLenCap(ft))
				}
				continue
			}
			if err != nil {
				t.Fatalf("ft %d, %d bytes: %v", ft, len(p), err)
			}
			if gotFT != ft || !bytes.Equal(gotP, p) {
				t.Fatalf("ft %d, %d bytes: round-trip mismatch", ft, len(p))
			}
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	mk := func(mut func(hdr []byte)) []byte {
		var hdr [frameHdrLen]byte
		putFrameHeader(hdr[:], ftBatch, 0)
		mut(hdr[:])
		return hdr[:]
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     {wireMagic0, wireMagic1},
		"bad magic": mk(func(h []byte) { h[0] = 0x00 }),
		"bad ver":   mk(func(h []byte) { h[2] = 99 }),
		"v1 peer":   mk(func(h []byte) { h[2] = 1 }),
		"zero type": mk(func(h []byte) { h[3] = 0 }),
		"high type": mk(func(h []byte) { h[3] = byte(ftAbort) + 1 }),
		"oversized": mk(func(h []byte) { h[4], h[5], h[6], h[7] = 0xFF, 0xFF, 0xFF, 0xFF }),
		"truncated": mk(func(h []byte) { h[4] = 16 }), // claims 16 bytes, has none
	}
	for name, stream := range cases {
		if _, _, err := readFrame(bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	batches := [][]message{
		{},
		{{op: 1, lv: 2, arg: 3}},
		{{op: 0xFFFF, lv: -1, arg: ^uint64(0)}, {op: 0, lv: 0, arg: 0}, {op: 7, lv: 1 << 30, arg: 42}},
	}
	for _, batch := range batches {
		p := appendBatchPayload(nil, 3, batch)
		if len(p) != batchWireLen(len(batch)) {
			t.Fatalf("encoded %d units into %d bytes, want %d", len(batch), len(p), batchWireLen(len(batch)))
		}
		if dst, err := batchDst(p); err != nil || dst != 3 {
			t.Fatalf("batchDst: %d, %v", dst, err)
		}
		dst, msgs, err := decodeBatchPayload(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dst != 3 || !slices.Equal(msgs, batch) {
			t.Fatalf("round-trip mismatch: dst %d, %v vs %v", dst, msgs, batch)
		}
	}
}

func TestBatchPayloadRejectsMalformed(t *testing.T) {
	good := appendBatchPayload(nil, 1, []message{{op: 1, lv: 2, arg: 3}})
	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:4],
		"count high": append(append([]byte{}, good[:4]...), 0xFF, 0, 0, 0),
		"count low":  append(append([]byte{}, good...), 0xAA), // trailing junk
		"unit cut":   good[:len(good)-1],
	}
	for name, p := range cases {
		if _, _, err := decodeBatchPayload(p, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestCollPayloadRoundTrip(t *testing.T) {
	for _, kind := range []uint8{collSum, collMin, collOr} {
		vals := []uint64{0, 1, ^uint64(0), 0xDEADBEEF}
		p := appendCollPayload(nil, kind, 0x1234, vals)
		k, check, got, _, err := decodeCollPayload(p)
		if err != nil {
			t.Fatal(err)
		}
		if k != kind || check != 0x1234 || !slices.Equal(got, vals) {
			t.Fatalf("kind %d round-trip mismatch", kind)
		}
	}
	body := []byte{1, 2, 3, 4, 5}
	p := appendStateCollPayload(nil, 0x99, body)
	k, check, vals, got, err := decodeCollPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if k != collState || check != 0x99 || vals != nil || !bytes.Equal(got, body) {
		t.Fatal("state collective round-trip mismatch")
	}
}

func TestJobRoundTrip(t *testing.T) {
	g := graph.AttachSymmetricWeights(graph.Kronecker(6, 6, 1), 5)
	want := Config{
		Shards: 8, Workers: 2, BatchSize: 64, Flush: FlushByEpoch, Part: PartEdge, Dir: DirPull,
		Mechanism: aam.MechOptimistic, CollTimeout: 3 * time.Second, JobTimeout: time.Minute,
	}
	spec := jobSpec{Name: "sssp", Params: []uint64{42, ^uint64(0)}, Cfg: want, G: g}
	// The coordinator's heartbeat clocks stay off the wire.
	spec.Cfg.HeartbeatEvery, spec.Cfg.Liveness = time.Second, 3*time.Second
	if n := len(appendConfig(nil, spec.Cfg)); n != 32 {
		t.Fatalf("config encodes to %d bytes, want 32", n)
	}
	p, err := encodeJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJob(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != spec.Name || !slices.Equal(got.Params, spec.Params) {
		t.Fatalf("name/params mismatch: %+v", got)
	}
	if got.Cfg != want {
		t.Fatalf("config mismatch: %+v vs %+v", got.Cfg, want)
	}
	gg := got.G
	if gg.N != g.N || gg.Directed != g.Directed ||
		!slices.Equal(gg.Offsets, g.Offsets) || !slices.Equal(gg.Adj, g.Adj) ||
		!slices.Equal(gg.Weights, g.Weights) {
		t.Fatal("graph mismatch after round-trip")
	}
}

// FuzzWireFrame feeds arbitrary byte streams to the frame reader: it must
// return an error for malformed input and never panic, and anything it
// accepts must re-encode to the bytes it consumed.
func FuzzWireFrame(f *testing.F) {
	var hello [frameHdrLen]byte
	putFrameHeader(hello[:], ftHello, 0)
	f.Add(hello[:])
	f.Add(append([]byte{}, wireMagic0, wireMagic1, wireVersion, byte(ftBatch), 0xFF, 0xFF, 0xFF, 0xFF))
	// Control frames (heartbeat probes/echoes and abort nonces): valid
	// 8-byte payloads, plus a hostile ping claiming a giant payload — the
	// reader must reject it at the header, before any allocation.
	for _, ft := range []frameType{ftPing, ftPong, ftAbort} {
		var ctrl [frameHdrLen + 8]byte
		putFrameHeader(ctrl[:frameHdrLen], ft, 8)
		putU64(ctrl[frameHdrLen:], 0x1122334455667788)
		f.Add(ctrl[:])
	}
	f.Add(append([]byte{}, wireMagic0, wireMagic1, wireVersion, byte(ftPing), 0xFF, 0xFF, 0xFF, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ft < ftHello || ft > ftAbort {
			t.Fatalf("accepted frame type %d", ft)
		}
		if cap := frameLenCap(ft); uint32(len(payload)) > cap {
			t.Fatalf("frame type %d accepted %d payload bytes over its %d cap", ft, len(payload), cap)
		}
		var hdr [frameHdrLen]byte
		putFrameHeader(hdr[:], ft, len(payload))
		reenc := append(append([]byte{}, hdr[:]...), payload...)
		if !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatalf("accepted frame does not re-encode to its input")
		}
	})
}

// FuzzBatchPayload checks the batch decoder is total (error, never panic)
// and canonical: accepted payloads re-encode byte-for-byte.
func FuzzBatchPayload(f *testing.F) {
	f.Add(appendBatchPayload(nil, 0, nil))
	f.Add(appendBatchPayload(nil, 2, []message{{op: 1, lv: 5, arg: 9}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, msgs, err := decodeBatchPayload(data, nil)
		if err != nil {
			return
		}
		if !bytes.Equal(appendBatchPayload(nil, dst, msgs), data) {
			t.Fatal("accepted batch does not re-encode to its input")
		}
	})
}

// FuzzCollPayload checks the collective decoder is total and canonical.
func FuzzCollPayload(f *testing.F) {
	f.Add(appendCollPayload(nil, collSum, 7, []uint64{1, 2}))
	f.Add(appendStateCollPayload(nil, 9, []byte{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, check, vals, body, err := decodeCollPayload(data)
		if err != nil {
			return
		}
		var reenc []byte
		if kind == collState {
			reenc = appendStateCollPayload(nil, check, body)
		} else {
			reenc = appendCollPayload(nil, kind, check, vals)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatal("accepted collective does not re-encode to its input")
		}
	})
}

// FuzzJobPayload checks the job decoder (config parsing and the binary
// graph reader behind it) never panics on malformed frames.
func FuzzJobPayload(f *testing.F) {
	g := graph.Kronecker(4, 4, 1)
	if seed, err := encodeJob(jobSpec{Name: "bfs", Params: []uint64{0}, Cfg: Config{Shards: 2}, G: g}); err == nil {
		f.Add(seed)
	}
	// A well-formed job whose graph header claims 2^30 vertices and 2^31
	// arcs with no arrays behind it: the decoder must fail at the end of
	// the payload without allocating for the claim.
	empty := graph.NewBuilder(0).Build()
	var gbuf bytes.Buffer
	if err := graph.WriteBinary(&gbuf, empty); err != nil {
		f.Fatal(err)
	}
	seed, err := encodeJob(jobSpec{Name: "bfs", Params: []uint64{0}, Cfg: Config{Shards: 2}, G: empty})
	if err != nil {
		f.Fatal(err)
	}
	hostile := append(seed[:len(seed)-gbuf.Len()], "AAMG\x01\x00\x00\x00\x00\x00\x00\x00"...)
	hostile = binary.LittleEndian.AppendUint64(hostile, 1<<30)
	f.Add(binary.LittleEndian.AppendUint64(hostile, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJob(data)
		if err != nil {
			return
		}
		if spec.G == nil {
			t.Fatal("accepted job without graph")
		}
	})
}
