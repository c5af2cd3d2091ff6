package replica

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"costest/internal/core"
	"costest/internal/nn"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := map[FrameType][]byte{
		FrameHello:     {1, 2, 3, 4, 5, 6, 7, 8},
		FrameSnapshot:  bytes.Repeat([]byte{0xAB}, 100),
		FrameDelta:     {},
		FrameAck:       nil,
		FrameResync:    nil,
		FrameHeartbeat: nil,
		FrameFenced:    nil,
	}
	var stream []byte
	order := []FrameType{FrameHello, FrameSnapshot, FrameDelta, FrameAck, FrameResync, FrameHeartbeat, FrameFenced}
	for i, typ := range order {
		stream = AppendFrame(stream, typ, uint64(9000+i), uint64(100+i), uint64(i), payloads[typ])
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for i, typ := range order {
		f, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != typ || f.Epoch != uint64(9000+i) || f.Gen != uint64(100+i) || f.Prev != uint64(i) {
			t.Fatalf("frame %d: got %v epoch %d gen %d prev %d", i, f.Type, f.Epoch, f.Gen, f.Prev)
		}
		if !bytes.Equal(f.Payload, payloads[typ]) {
			t.Fatalf("frame %d: payload %x, want %x", i, f.Payload, payloads[typ])
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("after stream end: %v, want EOF", err)
	}
}

func TestFrameReaderRejects(t *testing.T) {
	valid := AppendFrame(nil, FrameDelta, 1, 7, 6, []byte{1, 2, 3, 4})
	mutate := func(mod func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mod(b)
		return b
	}
	cases := []struct {
		name    string
		stream  []byte
		errLike string
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), "magic"},
		{"bad version", mutate(func(b []byte) { b[4] = 99 }), "version"},
		{"zero type", mutate(func(b []byte) { b[5] = 0 }), "type"},
		{"unknown type", mutate(func(b []byte) { b[5] = 42 }), "type"},
		{"oversize payload", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[30:], MaxPayload+1)
		}), "exceeds limit"},
		{"truncated header", valid[:10], "EOF"},
		{"truncated body", valid[:len(valid)-2], "short frame body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewFrameReader(bytes.NewReader(tc.stream)).Read()
			if err == nil {
				t.Fatal("decoded a malformed frame")
			}
			if !strings.Contains(err.Error(), tc.errLike) {
				t.Fatalf("error %q does not mention %q", err, tc.errLike)
			}
		})
	}

	// A checksum failure consumes the frame whole and keeps the stream in
	// sync: the next frame still decodes.
	flipped := mutate(func(b []byte) { b[headerSize+1] ^= 0xFF })
	stream := append(append([]byte(nil), flipped...), valid...)
	fr := NewFrameReader(bytes.NewReader(stream))
	if _, err := fr.Read(); err != ErrChecksum {
		t.Fatalf("corrupt frame: %v, want ErrChecksum", err)
	}
	f, err := fr.Read()
	if err != nil || f.Gen != 7 {
		t.Fatalf("frame after corrupt one: %+v, %v", f, err)
	}
}

// TestFrameApplyAllocs pins the follower's frame-apply hot path — decode,
// validate, write values, stamp — at zero heap allocations steady-state.
func TestFrameApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is enforced in the non-race pass")
	}
	m := core.New(core.TestConfig(), testEnc)
	frame := AppendFrame(nil, FrameDelta, 1, 2, 1, core.AppendModelPayload(nil, m, []int{0, 3, 5}))
	br := bytes.NewReader(frame)
	fr := NewFrameReader(br)
	touched := make([]*nn.Param, 0, len(m.PS.Params()))

	apply := func() {
		br.Reset(frame)
		fm, err := fr.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		touched, err = core.ApplyModelPayload(m, fm.Payload, false, touched)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		m.PS.MarkParamsUpdated(touched)
	}
	apply() // warm: size the reader buffer
	if avg := testing.AllocsPerRun(200, apply); avg != 0 {
		t.Fatalf("frame apply allocates %v/op, want 0", avg)
	}
}
