// Package replica is the scale-out replication runtime: one trainer's delta
// publications streamed over TCP to N replica Server processes, so a single
// training loop can feed an arbitrary number of serving frontends with
// bit-identical models.
//
// The substrate is PR 5's delta publication: per-parameter dirty stamps
// (nn.ParamSet) already record exactly which parameters each publication
// touched, which makes them a replication log. The primary-side Publisher
// taps Server publications (core.Server.SetPublishHook), serializes only the
// dirty parameters into a delta frame, and streams frames to every connected
// follower; the replica-side Follower applies frames into a local mirror
// model and republishes them through its own Server.PublishDelta, so the
// replica's hot-swap serving runtime is byte-for-byte the primary's.
//
// The wire format is deliberately exact: parameter values travel as raw
// IEEE-754 bit patterns (math.Float64bits), never through a decimal
// round-trip, so an estimate served by any replica at generation G is
// bit-identical to the primary's at G — the conformance suite enforces this
// under concurrent load, follower restarts, reconnect catch-up and injected
// frame corruption.
//
// Frame layout (little-endian):
//
//	magic "CRPL" (4) | version (1) | type (1) | epoch (8) | gen (8) | prev (8) | payloadLen (4)
//	payload (payloadLen)
//	crc32c over header+payload (4)
//
// Every frame carries a CRC-32C checksum; a frame whose checksum fails is
// discarded whole (framing stays intact, the stream keeps its sync) and the
// follower requests a snapshot resync instead of ever applying suspect
// bytes. Delta frames chain generations: a follower only applies a delta
// whose prev matches its own generation; any gap — dropped frames for a slow
// follower, a rejected corrupt frame, a fresh connection — is healed by a
// full-snapshot catch-up frame.
//
// Every frame also carries the primary epoch — the cluster's fencing token.
// Exactly one publisher may ever stream under a given epoch; a promotion
// (see Member) seals the successor's last applied generation and begins
// publishing under epoch+1. A follower that has seen epoch E rejects every
// frame from an epoch < E without applying a byte: a deposed primary coming
// back from a partition or a stall cannot diverge the cluster, it is fenced
// by its own stale epoch and told so with a FrameFenced reply.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"

	"costest/internal/core"
	"costest/internal/nn"
)

// FrameType discriminates the replication frames.
type FrameType uint8

const (
	// FrameHello is the follower's handshake: gen carries its current
	// generation (0 when it has none), epoch the highest primary epoch it
	// has seen, and the payload its 8-byte schema hash followed by the
	// pre-shared auth token. The publisher verifies the token in constant
	// time before parsing anything else, refuses mismatched schemas, and
	// snapshots lagging followers.
	FrameHello FrameType = 1 + iota
	// FrameSnapshot carries every parameter at generation gen — the
	// bootstrap and catch-up frame.
	FrameSnapshot
	// FrameDelta carries only the parameters dirtied between generations
	// prev and gen; appliable only on a follower currently at prev.
	FrameDelta
	// FrameAck is the follower's acknowledgment that generation gen is
	// applied and locally published (served).
	FrameAck
	// FrameResync is the follower's catch-up request after a gap or a
	// rejected corrupt frame; gen carries the generation it is stuck at.
	FrameResync
	// FrameHeartbeat is the periodic liveness frame, sent in both
	// directions: the publisher's heartbeat renews the follower's primary
	// lease (gen carries the head generation so lag tracking stays fresh
	// between publications), the follower's keeps the publisher's read
	// deadline fed so a wedged peer is detected instead of blocking.
	FrameHeartbeat
	// FrameFenced is the follower's rejection of a stale-epoch frame: epoch
	// carries the higher epoch the follower has already seen. A publisher
	// receiving it knows it has been deposed and fences itself (stops
	// broadcasting, drops its followers).
	FrameFenced
)

// String returns the frame type's wire name.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameSnapshot:
		return "snapshot"
	case FrameDelta:
		return "delta"
	case FrameAck:
		return "ack"
	case FrameResync:
		return "resync"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameFenced:
		return "fenced"
	}
	return fmt.Sprintf("frametype(%d)", uint8(t))
}

const (
	frameMagic   = "CRPL"
	frameVersion = 2 // v2 added the epoch field (v1 streams are refused)
	headerSize   = 4 + 1 + 1 + 8 + 8 + 8 + 4
	trailerSize  = 4 // crc32c

	// MaxPayload bounds a frame's payload. Snapshots of the largest model
	// configuration are a few MB; 64 MiB leaves headroom while keeping a
	// corrupted-but-valid-looking length field from driving an allocation
	// attack.
	MaxPayload = 64 << 20
)

// ErrChecksum reports a frame whose CRC failed. The frame was fully
// consumed, so the stream is still in sync: the connection survives, the
// frame must not be applied, and the receiver should request a resync.
var ErrChecksum = errors.New("replica: frame checksum mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded replication frame. Payload aliases the reader's
// internal buffer and is valid only until the next Read.
type Frame struct {
	Type  FrameType
	Epoch uint64
	Gen   uint64
	Prev  uint64
	// Payload is the frame body (parameter records for snapshot/delta, the
	// schema hash + auth token for hello, empty for the control frames).
	Payload []byte
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. The payload is copied; the checksum covers header and payload.
func AppendFrame(dst []byte, typ FrameType, epoch, gen, prev uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, byte(typ))
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	dst = binary.LittleEndian.AppendUint64(dst, prev)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// FrameReader decodes frames from a byte stream into a reused buffer.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader wraps r. The reader owns an internal buffer that grows to
// the largest frame seen and is aliased by every returned Frame's payload.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 0, 4096)}
}

// Read decodes the next frame. ErrChecksum reports a fully-consumed frame
// whose CRC failed (the stream is still usable); any other error — bad
// magic, unsupported version, oversized payload, short read — means framing
// is lost and the connection must be dropped.
func (fr *FrameReader) Read() (Frame, error) {
	if cap(fr.buf) < headerSize {
		fr.buf = make([]byte, 0, 4096)
	}
	hdr := fr.buf[:headerSize]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return Frame{}, err
	}
	if string(hdr[:4]) != frameMagic {
		return Frame{}, fmt.Errorf("replica: bad frame magic %q", hdr[:4])
	}
	if hdr[4] != frameVersion {
		return Frame{}, fmt.Errorf("replica: unsupported frame version %d", hdr[4])
	}
	typ := FrameType(hdr[5])
	if typ < FrameHello || typ > FrameFenced {
		return Frame{}, fmt.Errorf("replica: unknown frame type %d", hdr[5])
	}
	f := Frame{
		Type:  typ,
		Epoch: binary.LittleEndian.Uint64(hdr[6:]),
		Gen:   binary.LittleEndian.Uint64(hdr[14:]),
		Prev:  binary.LittleEndian.Uint64(hdr[22:]),
	}
	plen := binary.LittleEndian.Uint32(hdr[30:])
	if plen > MaxPayload {
		return Frame{}, fmt.Errorf("replica: frame payload %d exceeds limit %d", plen, MaxPayload)
	}
	total := headerSize + int(plen) + trailerSize
	if cap(fr.buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		fr.buf = grown[:0]
	}
	body := fr.buf[:total]
	if _, err := io.ReadFull(fr.r, body[headerSize:]); err != nil {
		return Frame{}, fmt.Errorf("replica: short frame body: %w", err)
	}
	want := binary.LittleEndian.Uint32(body[total-trailerSize:])
	if crc32.Checksum(body[:total-trailerSize], crcTable) != want {
		return Frame{}, ErrChecksum
	}
	f.Payload = body[headerSize : total-trailerSize]
	return f, nil
}

// SchemaHash fingerprints a model's parameter schema — every parameter's
// name, shape and registration order. Primary and follower exchange it in
// the handshake: replication streams raw values by parameter index, so a
// schema mismatch (different configuration, different encoder dimensions)
// must be refused at connect time instead of silently mis-applying weights.
func SchemaHash(m *core.Model) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	for _, p := range m.PS.Params() {
		io.WriteString(h, p.Name)
		binary.LittleEndian.PutUint32(scratch[:4], uint32(p.Rows))
		binary.LittleEndian.PutUint32(scratch[4:], uint32(p.Cols))
		h.Write(scratch[:])
	}
	return h.Sum64()
}

// Model payload layout (the body of snapshot and delta frames):
//
//	costNorm.MinLog costNorm.MaxLog cardNorm.MinLog cardNorm.MaxLog  (4 × 8)
//	paramCount (4)
//	paramCount × [ index (4) | valueLen (4) | valueLen × float64 bits (8) ]
//
// Values are raw IEEE-754 bit patterns; apply reconstructs them with
// math.Float64frombits, so replication is exact by construction.

const normsSize = 4 * 8

// AppendModelPayload appends the replication payload carrying m's target
// normalizers and the parameters at the given indices (all of them for a
// snapshot, the dirty subset for a delta). Caller guarantees m's weights are
// quiesced (the publish-hook contract).
//
// costlint:noalloc
func AppendModelPayload(dst []byte, m *core.Model, idx []int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CostNorm.MinLog))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CostNorm.MaxLog))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CardNorm.MinLog))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CardNorm.MaxLog))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	params := m.PS.Params()
	for _, i := range idx {
		p := params[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Value)))
		for _, v := range p.Value {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// ApplyModelPayload validates payload against m and applies it: normalizers
// always, then every parameter record into the matching parameter's values.
// Validation runs over the whole payload before a single value is written
// (validate-then-commit, like nn.ParamSet.Load), so a malformed payload —
// truncated records, out-of-range indices, wrong value lengths, a NaN or
// infinite normalizer or value — is a descriptive error with m untouched. requireFull additionally demands that
// every parameter is covered exactly once (the snapshot contract).
//
// touched is a reusable scratch slice; the returned slice holds the
// parameters written, ready for nn.ParamSet.MarkParamsUpdated. The warm
// path performs zero heap allocations.
//
// costlint:noalloc
func ApplyModelPayload(m *core.Model, payload []byte, requireFull bool, touched []*nn.Param) ([]*nn.Param, error) {
	params := m.PS.Params()
	if len(payload) < normsSize+4 {
		return touched[:0], fmt.Errorf("replica: payload %d bytes, want at least %d", len(payload), normsSize+4)
	}
	for off := 0; off < normsSize; off += 8 {
		if !finiteBits(payload[off:]) {
			return touched[:0], fmt.Errorf("replica: non-finite normalizer at byte %d", off)
		}
	}
	count := int(binary.LittleEndian.Uint32(payload[normsSize:]))
	if requireFull && count != len(params) {
		return touched[:0], fmt.Errorf("replica: snapshot covers %d parameters, model has %d", count, len(params))
	}

	// Pass 1: walk and validate every record. Indices must be in range with
	// matching value lengths, records must lie fully inside the payload, and
	// no index may repeat (a duplicate means a confused encoder; applying
	// both would be order-dependent).
	off := normsSize + 4
	seen := uint64(0) // bitmask over param indices; models have < 64 params
	useMask := len(params) <= 64
	prevIdx := -1
	for rec := 0; rec < count; rec++ {
		if len(payload)-off < 8 {
			return touched[:0], fmt.Errorf("replica: record %d/%d truncated at byte %d", rec, count, off)
		}
		idx := int(binary.LittleEndian.Uint32(payload[off:]))
		n := int(binary.LittleEndian.Uint32(payload[off+4:]))
		off += 8
		if idx >= len(params) {
			return touched[:0], fmt.Errorf("replica: record %d: parameter index %d out of range (%d params)", rec, idx, len(params))
		}
		if n != len(params[idx].Value) {
			return touched[:0], fmt.Errorf("replica: record %d: parameter %q has %d values, frame carries %d",
				rec, params[idx].Name, len(params[idx].Value), n)
		}
		if useMask {
			if seen&(1<<uint(idx)) != 0 {
				return touched[:0], fmt.Errorf("replica: duplicate record for parameter %q", params[idx].Name)
			}
			seen |= 1 << uint(idx)
		} else if idx <= prevIdx {
			// Fallback duplicate guard for very wide models: encoders emit
			// ascending indices, so any non-increase is a protocol error.
			return touched[:0], fmt.Errorf("replica: parameter records out of order at index %d", idx)
		}
		prevIdx = idx
		if len(payload)-off < n*8 {
			return touched[:0], fmt.Errorf("replica: record %d: values truncated at byte %d", rec, off)
		}
		for end := off + n*8; off < end; off += 8 {
			if !finiteBits(payload[off:]) {
				return touched[:0], fmt.Errorf("replica: record %d: parameter %q carries a non-finite value",
					rec, params[idx].Name)
			}
		}
	}
	if off != len(payload) {
		return touched[:0], fmt.Errorf("replica: %d trailing bytes after %d records", len(payload)-off, count)
	}

	// Pass 2: commit.
	m.CostNorm.MinLog = math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
	m.CostNorm.MaxLog = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
	m.CardNorm.MinLog = math.Float64frombits(binary.LittleEndian.Uint64(payload[16:]))
	m.CardNorm.MaxLog = math.Float64frombits(binary.LittleEndian.Uint64(payload[24:]))
	touched = touched[:0]
	off = normsSize + 4
	for rec := 0; rec < count; rec++ {
		idx := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 8
		p := params[idx]
		for i := range p.Value {
			p.Value[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		touched = append(touched, p)
	}
	return touched, nil
}

// finiteBits reports whether the little-endian float64 at the start of b is
// neither NaN nor an infinity.
func finiteBits(b []byte) bool {
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
