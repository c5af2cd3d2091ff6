package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"costest/internal/nn"
)

// SchemaHash fingerprints a model's parameter schema — every parameter's
// name, shape and registration order. The model payload addresses
// parameters by index, so a schema mismatch (different configuration,
// different encoder dimensions) must be refused before a payload is applied
// instead of silently mis-applying weights: a checkpoint carries the hash of
// the model it was saved from, and replication peers exchange it in their
// handshake.
func SchemaHash(m *Model) uint64 {
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

// Model payload layout (the body of a checkpoint and of replication
// snapshot and delta frames), little-endian:
//
//	costNorm.MinLog costNorm.MaxLog cardNorm.MinLog cardNorm.MaxLog  (4 × 8)
//	paramCount (4)
//	paramCount × [ index (4) | valueLen (4) | valueLen × float64 bits (8) ]
//
// Values are raw IEEE-754 bit patterns; apply reconstructs them with
// math.Float64frombits, so a payload round trip is exact by construction.

const normsSize = 4 * 8

// AppendModelPayload appends the payload carrying m's target normalizers
// and the parameters at the given indices (all of them for a checkpoint or
// a snapshot, the dirty subset for a delta). Caller guarantees m's weights
// are quiesced (the publish-hook contract).
//
// costlint:noalloc
func AppendModelPayload(dst []byte, m *Model, idx []int) []byte {
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
// (validate-then-commit), so a malformed payload — truncated records,
// out-of-range indices, wrong value lengths, a NaN or infinite normalizer or
// value — is a descriptive error with m untouched. requireFull additionally
// demands that every parameter is covered exactly once (the checkpoint and
// snapshot contract).
//
// touched is a reusable scratch slice; the returned slice holds the
// parameters written, ready for nn.ParamSet.MarkParamsUpdated. The warm
// path performs zero heap allocations.
//
// costlint:noalloc
func ApplyModelPayload(m *Model, payload []byte, requireFull bool, touched []*nn.Param) ([]*nn.Param, error) {
	params := m.PS.Params()
	if len(payload) < normsSize+4 {
		return touched[:0], fmt.Errorf("core: payload %d bytes, want at least %d", len(payload), normsSize+4)
	}
	for off := 0; off < normsSize; off += 8 {
		if !finiteBits(payload[off:]) {
			return touched[:0], fmt.Errorf("core: non-finite normalizer at byte %d", off)
		}
	}
	count := int(binary.LittleEndian.Uint32(payload[normsSize:]))
	if requireFull && count != len(params) {
		return touched[:0], fmt.Errorf("core: snapshot covers %d parameters, model has %d", count, len(params))
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
			return touched[:0], fmt.Errorf("core: record %d/%d truncated at byte %d", rec, count, off)
		}
		idx := int(binary.LittleEndian.Uint32(payload[off:]))
		n := int(binary.LittleEndian.Uint32(payload[off+4:]))
		off += 8
		if idx >= len(params) {
			return touched[:0], fmt.Errorf("core: record %d: parameter index %d out of range (%d params)", rec, idx, len(params))
		}
		if n != len(params[idx].Value) {
			return touched[:0], fmt.Errorf("core: record %d: parameter %q has %d values, payload carries %d",
				rec, params[idx].Name, len(params[idx].Value), n)
		}
		if useMask {
			if seen&(1<<uint(idx)) != 0 {
				return touched[:0], fmt.Errorf("core: duplicate record for parameter %q", params[idx].Name)
			}
			seen |= 1 << uint(idx)
		} else if idx <= prevIdx {
			// Fallback duplicate guard for very wide models: encoders emit
			// ascending indices, so any non-increase is a protocol error.
			return touched[:0], fmt.Errorf("core: parameter records out of order at index %d", idx)
		}
		prevIdx = idx
		if len(payload)-off < n*8 {
			return touched[:0], fmt.Errorf("core: record %d: values truncated at byte %d", rec, off)
		}
		for end := off + n*8; off < end; off += 8 {
			if !finiteBits(payload[off:]) {
				return touched[:0], fmt.Errorf("core: record %d: parameter %q carries a non-finite value",
					rec, params[idx].Name)
			}
		}
	}
	if off != len(payload) {
		return touched[:0], fmt.Errorf("core: %d trailing bytes after %d records", len(payload)-off, count)
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
