package replica

import (
	"bytes"
	"testing"

	"costest/internal/core"
	"costest/internal/nn"
)

// benchPayload builds a frame-wrapped payload over idx and returns the raw
// frame bytes (as a follower would read them off the wire).
func benchPayload(b *testing.B, m *core.Model, idx []int) []byte {
	b.Helper()
	payload := core.AppendModelPayload(nil, m, idx)
	return AppendFrame(nil, FrameSnapshot, 1, 1, 0, payload)
}

// benchApply measures the follower's hot loop: read one frame from a byte
// stream, validate its checksum, and apply the payload into the model.
func benchApply(b *testing.B, m *core.Model, frame []byte, requireFull bool) {
	b.Helper()
	br := bytes.NewReader(frame)
	fr := NewFrameReader(br)
	var touched []*nn.Param
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(frame)
		fm, err := fr.Read()
		if err != nil {
			b.Fatalf("read: %v", err)
		}
		touched, err = core.ApplyModelPayload(m, fm.Payload, requireFull, touched[:0])
		if err != nil {
			b.Fatalf("apply: %v", err)
		}
	}
}

// BenchmarkApplySnapshot: full-model frame apply — the bootstrap/resync path.
func BenchmarkApplySnapshot(b *testing.B) {
	m := core.New(core.TestConfig(), testEnc)
	idx := make([]int, len(m.PS.Params()))
	for i := range idx {
		idx[i] = i
	}
	benchApply(b, m, benchPayload(b, m, idx), true)
}

// BenchmarkApplySparseDelta: single-parameter delta apply — the steady-state
// path for incremental publications.
func BenchmarkApplySparseDelta(b *testing.B) {
	m := core.New(core.TestConfig(), testEnc)
	benchApply(b, m, benchPayload(b, m, []int{0}), false)
}
