package core

import (
	"bytes"
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

// FuzzLoadModel drives the self-describing checkpoint loader with arbitrary
// bytes: it must return a model or an error, never panic, and never trust a
// header enough to allocate unboundedly (the Config sanity guard exists for
// exactly the inputs this fuzzer constructs).
func FuzzLoadModel(f *testing.F) {
	valid := savedModelBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // truncated mid-payload
	f.Add(valid[:len(modelMagic)+10]) // truncated mid-header
	f.Add([]byte(modelMagic))         // magic only
	f.Add([]byte("COSTESTX garbage")) // wrong magic
	f.Add([]byte{})                   // empty
	corrupt := append([]byte(nil), valid...)
	corrupt[len(modelMagic)+4] ^= 0xFF // flipped header byte
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data), testEnc)
		if err == nil && m == nil {
			t.Fatal("LoadModel returned nil model and nil error")
		}
	})
}
