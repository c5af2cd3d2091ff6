package replica

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"costest/internal/core"
)

// FuzzFrameReader hammers the replication frame decoder with arbitrary
// bytes: it must return errors, never panic, never hand back a frame whose
// checksum did not verify, and keep its payload-length bound.
func FuzzFrameReader(f *testing.F) {
	m := core.New(core.TestConfig(), testEnc)
	valid := AppendFrame(nil, FrameDelta, 1, 7, 6, AppendModelPayload(nil, m, []int{0, 2}))
	f.Add(valid)
	f.Add(AppendFrame(nil, FrameAck, 1, 3, 0, nil))
	f.Add(AppendFrame(AppendFrame(nil, FrameHello, 0, 0, 0, make([]byte, 8)), FrameResync, 2, 5, 0, nil))
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("CRPL"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[headerSize+2] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			fm, err := fr.Read()
			if err == ErrChecksum {
				continue // stream stays usable after a checksum reject
			}
			if err != nil {
				return
			}
			if fm.Type < FrameHello || fm.Type > FrameFenced {
				t.Fatalf("decoded impossible frame type %d", fm.Type)
			}
			if len(fm.Payload) > MaxPayload {
				t.Fatalf("decoded payload of %d bytes past the limit", len(fm.Payload))
			}
		}
	})
}

// FuzzApplyModelPayload hammers the payload validator with arbitrary bytes
// against a real model: it must error or apply cleanly, never panic, never
// leave the model partially written on error (spot-checked by the dedicated
// unit test), and never apply a NaN or an infinity.
func FuzzApplyModelPayload(f *testing.F) {
	m := core.New(core.TestConfig(), testEnc)
	allIdx := make([]int, len(m.PS.Params()))
	for i := range allIdx {
		allIdx[i] = i
	}
	f.Add(AppendModelPayload(nil, m, allIdx))
	f.Add(AppendModelPayload(nil, m, []int{0}))
	f.Add(AppendModelPayload(nil, m, nil))
	f.Add([]byte{})
	f.Add(make([]byte, normsSize+4))
	nan := AppendModelPayload(nil, m, []int{0})
	binary.LittleEndian.PutUint64(nan[normsSize+4+8:], math.Float64bits(math.NaN()))
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, full := range []bool{false, true} {
			touched, err := ApplyModelPayload(m, data, full, nil)
			if err != nil {
				continue
			}
			norms := [...]float64{m.CostNorm.MinLog, m.CostNorm.MaxLog, m.CardNorm.MinLog, m.CardNorm.MaxLog}
			for _, v := range norms {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("applied a non-finite normalizer %v", v)
				}
			}
			for _, p := range touched {
				for _, v := range p.Value {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("applied a non-finite value %v to %q", v, p.Name)
					}
				}
			}
		}
	})
}
