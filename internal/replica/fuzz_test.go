package replica

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"costest/internal/core"
)

// FuzzFrameReader hammers the replication frame decoder with arbitrary
// bytes: it must return errors, never panic, never hand back a frame whose
// checksum did not verify, and keep its payload-length bound.
func FuzzFrameReader(f *testing.F) {
	m := core.New(core.TestConfig(), testEnc)
	valid := AppendFrame(nil, FrameDelta, 1, 7, 6, core.AppendModelPayload(nil, m, []int{0, 2}))
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

// FuzzApplyModelPayload hammers the follower's apply path (applyFrame:
// payload decode, dirty-stamp, delta republish through the local Server)
// with arbitrary payload bytes, as a snapshot and as a delta frame. An
// accepted frame must leave the served model finite and advance the
// follower to the frame's generation; a rejected one must leave the model's
// values, the generation and the applied-frame counters exactly as they
// were. The codec itself is fuzzed in core's FuzzLoadModel.
func FuzzApplyModelPayload(f *testing.F) {
	m := core.New(core.TestConfig(), testEnc)
	allIdx := make([]int, len(m.PS.Params()))
	for i := range allIdx {
		allIdx[i] = i
	}
	f.Add(core.AppendModelPayload(nil, m, allIdx))
	f.Add(core.AppendModelPayload(nil, m, []int{0}))
	f.Add(core.AppendModelPayload(nil, m, nil))
	f.Add([]byte{})
	f.Add(make([]byte, 4*8+4)) // zero normalizers, zero records
	nan := core.AppendModelPayload(nil, m, []int{0})
	binary.LittleEndian.PutUint64(nan[4*8+4+8:], math.Float64bits(math.NaN()))
	f.Add(nan)

	fl := NewFollower(FollowerConfig{
		Peers:  []string{"unused:0"},
		Server: core.NewServer(m, core.NewMemoryPool()),
		Model:  m,
	})
	fl.cfg.Server.SetPublishHook(fl.label) // as Run registers it
	gen := uint64(0)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, full := range []bool{false, true} {
			before := make([][]float64, 0, len(m.PS.Params()))
			for _, p := range m.PS.Params() {
				before = append(before, slices.Clone(p.Value))
			}
			norms := [...]float64{m.CostNorm.MinLog, m.CostNorm.MaxLog, m.CardNorm.MinLog, m.CardNorm.MaxLog}
			st := fl.Stats()
			gen++
			typ := FrameDelta
			if full {
				typ = FrameSnapshot
			}
			err := fl.applyFrame(Frame{Type: typ, Epoch: 1, Gen: gen, Prev: gen - 1, Payload: data}, full)
			after := fl.Stats()
			if err != nil {
				if after.Generation != st.Generation || after.SnapshotsApplied != st.SnapshotsApplied ||
					after.DeltasApplied != st.DeltasApplied {
					t.Fatalf("rejected frame moved the follower: before %+v, after %+v", st, after)
				}
				if now := [...]float64{m.CostNorm.MinLog, m.CostNorm.MaxLog, m.CardNorm.MinLog, m.CardNorm.MaxLog}; now != norms {
					t.Fatalf("rejected frame wrote normalizers %v, were %v", now, norms)
				}
				for i, p := range m.PS.Params() {
					if !slices.Equal(p.Value, before[i]) {
						t.Fatalf("rejected frame wrote parameter %q", p.Name)
					}
				}
				continue
			}
			if after.Generation != gen {
				t.Fatalf("applied frame for generation %d, follower reports %d", gen, after.Generation)
			}
			if err := m.CheckFinite(); err != nil {
				t.Fatalf("applied frame left a non-finite model: %v", err)
			}
		}
	})
}
