package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// savedModelBytes serializes a small trained-shape model — the valid-input
// seed for the checkpoint fuzzer.
func savedModelBytes(tb testing.TB) []byte {
	tb.Helper()
	m := New(TestConfig(), testEnc)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// reseal returns a copy of data with its last four bytes replaced by the
// CRC-32C of the rest, so a mutated checkpoint gets past the checksum and
// reaches the header and payload decoders behind it.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	b := append([]byte(nil), data...)
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, crcTable))
	return b
}

// FuzzLoadModel drives the model payload codec with arbitrary bytes, both
// ways it reads them: as a payload (ApplyModelPayload, with and without
// requireFull) and as a checkpoint file (LoadModel, on the input as given
// and re-sealed with a valid checksum). Each must return a result or an
// error, never panic, never trust a header enough to allocate unboundedly
// (the Config sanity guard exists for exactly the inputs this fuzzer
// constructs), and never apply a NaN or an infinity.
func FuzzLoadModel(f *testing.F) {
	valid := savedModelBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // truncated mid-payload
	f.Add(valid[:len(modelMagic)+10]) // truncated mid-header
	f.Add([]byte(modelMagic))         // magic only
	f.Add([]byte("COSTESTX garbage")) // wrong magic
	f.Add([]byte{})                   // empty
	corrupt := append([]byte(nil), valid...)
	corrupt[len(modelMagic)+12] ^= 0xFF // flipped header byte
	f.Add(corrupt)
	m := New(TestConfig(), testEnc)
	f.Add(fullPayload(m))
	f.Add(AppendModelPayload(nil, m, []int{0}))
	f.Add(AppendModelPayload(nil, m, nil))
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
		for _, file := range [][]byte{data, reseal(data)} {
			loaded, err := LoadModel(bytes.NewReader(file), testEnc)
			if err != nil {
				continue
			}
			if loaded == nil {
				t.Fatal("LoadModel returned nil model and nil error")
			}
			if err := loaded.CheckFinite(); err != nil {
				t.Fatalf("LoadModel loaded a non-finite model: %v", err)
			}
		}
	})
}
