package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"costest/internal/nn"
)

// modelBits captures every parameter value and the normalizers bitwise.
func modelBits(m *Model) []uint64 {
	var bits []uint64
	for _, v := range []float64{m.CostNorm.MinLog, m.CostNorm.MaxLog, m.CardNorm.MinLog, m.CardNorm.MaxLog} {
		bits = append(bits, math.Float64bits(v))
	}
	for _, p := range m.PS.Params() {
		for _, v := range p.Value {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func TestApplyModelPayloadErrors(t *testing.T) {
	m := New(TestConfig(), testEnc)
	m.CostNorm = nn.Normalizer{MinLog: 1, MaxLog: 2}
	m.CardNorm = nn.Normalizer{MinLog: 3, MaxLog: 4}
	before := modelBits(m)
	nParams := len(m.PS.Params())

	valid := AppendModelPayload(nil, m, []int{0, 2})
	mutate := func(mod func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mod(b)
		return b
	}
	cases := []struct {
		name    string
		payload []byte
		full    bool
		errLike string
	}{
		{"too short", valid[:10], false, "at least"},
		{"snapshot count mismatch", valid, true, "model has"},
		{"index out of range", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[normsSize+4:], uint32(nParams))
		}), false, "out of range"},
		{"value length mismatch", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[normsSize+8:], 3)
		}), false, "values"},
		{"record truncated", valid[:normsSize+4+6], false, "truncated"},
		{"values truncated", valid[:len(valid)-4], false, "truncated"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), false, "trailing"},
		{"duplicate param", AppendModelPayload(nil, m, []int{1, 1}), false, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			touched, err := ApplyModelPayload(m, tc.payload, tc.full, nil)
			if err == nil {
				t.Fatal("malformed payload applied")
			}
			if !strings.Contains(err.Error(), tc.errLike) {
				t.Fatalf("error %q does not mention %q", err, tc.errLike)
			}
			if len(touched) != 0 {
				t.Fatalf("error returned %d touched params", len(touched))
			}
			after := modelBits(m)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("model mutated at word %d despite error (validate-then-commit broken)", i)
				}
			}
		})
	}

	// The valid payload does apply, exactly.
	src := New(TestConfig(), testEnc)
	for i, p := range src.PS.Params() {
		for j := range p.Value {
			p.Value[j] = float64(i) + float64(j)*0.25
		}
	}
	src.CostNorm = nn.Normalizer{MinLog: -1, MaxLog: 5}
	src.CardNorm = nn.Normalizer{MinLog: 0, MaxLog: 9}
	allIdx := make([]int, nParams)
	for i := range allIdx {
		allIdx[i] = i
	}
	full := AppendModelPayload(nil, src, allIdx)
	touched, err := ApplyModelPayload(m, full, true, nil)
	if err != nil {
		t.Fatalf("full payload: %v", err)
	}
	if len(touched) != nParams {
		t.Fatalf("touched %d params, want %d", len(touched), nParams)
	}
	want, got := modelBits(src), modelBits(m)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("word %d differs after full apply", i)
		}
	}
}

func TestSchemaHash(t *testing.T) {
	a := New(TestConfig(), testEnc)
	b := New(TestConfig(), testEnc)
	if SchemaHash(a) != SchemaHash(b) {
		t.Fatal("identical architectures hash differently")
	}
	cfg := TestConfig()
	cfg.Hidden += 4
	c := New(cfg, testEnc)
	if SchemaHash(a) == SchemaHash(c) {
		t.Fatal("different architectures share a schema hash")
	}
}
