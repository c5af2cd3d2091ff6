package replica

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/nn"
)

// scriptedPrimary lets a test play the primary's side of the protocol with
// hand-built frames against a real Follower.
type scriptedPrimary struct {
	t    *testing.T
	conn net.Conn
	fr   *FrameReader
}

func (sp *scriptedPrimary) expect(typ FrameType, gen uint64) {
	sp.t.Helper()
	sp.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := sp.fr.Read()
	if err != nil {
		sp.t.Fatalf("reading frame (want %v gen %d): %v", typ, gen, err)
	}
	if f.Type != typ || f.Gen != gen {
		sp.t.Fatalf("got %v gen %d, want %v gen %d", f.Type, f.Gen, typ, gen)
	}
}

func (sp *scriptedPrimary) send(b []byte) {
	sp.t.Helper()
	if _, err := sp.conn.Write(b); err != nil {
		sp.t.Fatalf("writing frame: %v", err)
	}
}

// expectEstimatesMatch compares the follower server's estimates bitwise
// against a reference server.
func expectEstimatesMatch(t *testing.T, what string, srv, ref *core.Server, srvEps, refEps []*feature.EncodedPlan) {
	t.Helper()
	for i := range srvEps {
		sc, sd, _ := srv.Estimate(srvEps[i])
		rc, rd, _ := ref.Estimate(refEps[i])
		if math.Float64bits(sc) != math.Float64bits(rc) || math.Float64bits(sd) != math.Float64bits(rd) {
			t.Fatalf("%s: plan %d: follower (%x, %x), reference (%x, %x)",
				what, i, math.Float64bits(sc), math.Float64bits(sd), math.Float64bits(rc), math.Float64bits(rd))
		}
	}
}

// TestFollowerProtocol drives a real Follower with scripted frames: snapshot
// bootstrap, a generation-gap delta that must trigger resync without being
// applied, a corrupt frame that must be rejected by checksum without being
// applied, and finally the clean delta.
func TestFollowerProtocol(t *testing.T) {
	samples := labeledSamples(t, 19, 8)
	refEps := encodePlans(t, samples)
	m, _ := trainedModel(t, refEps, 1)

	model := core.New(m.Cfg, testEnc)
	srv := core.NewServer(model, core.NewMemoryPool())
	srvEps := encodePlans(t, samples)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	f := NewFollower(FollowerConfig{
		Peers:    []string{ln.Addr().String()},
		Server:   srv,
		Model:    model,
		RetryMin: 5 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
		// The scripted primary plays frames by hand at test pace: silence
		// the follower's heartbeats and read deadline so they never
		// interleave with the script.
		Heartbeat:   time.Hour,
		PeerTimeout: time.Hour,
		Logf:        t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer conn.Close()
	sp := &scriptedPrimary{t: t, conn: conn, fr: NewFrameReader(conn)}

	// Handshake: the follower introduces itself at generation 0 with the
	// model's schema hash.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hf, err := sp.fr.Read()
	if err != nil || hf.Type != FrameHello || hf.Gen != 0 {
		t.Fatalf("bad hello: %+v, %v", hf, err)
	}
	if got := binary.LittleEndian.Uint64(hf.Payload); got != core.SchemaHash(model) {
		t.Fatalf("hello schema %#x, want %#x", got, core.SchemaHash(model))
	}

	// Snapshot bootstrap at generation 5.
	allIdx := make([]int, len(m.PS.Params()))
	for i := range allIdx {
		allIdx[i] = i
	}
	ref5 := core.NewServer(m, core.NewMemoryPool()) // reference for m's gen-5 weights
	sp.send(AppendFrame(nil, FrameSnapshot, 1, 5, 5, core.AppendModelPayload(nil, m, allIdx)))
	sp.expect(FrameAck, 5)
	if g := f.Generation(); g != 5 {
		t.Fatalf("generation %d after snapshot, want 5", g)
	}
	expectEstimatesMatch(t, "after snapshot", srv, ref5, srvEps, refEps)

	// Mutate one parameter on the scripted primary: generation 6.
	p0 := m.PS.Params()[0]
	p0.Value[0] += 0.25
	m.PS.MarkParamsUpdated([]*nn.Param{p0})
	ref6 := core.NewServer(m, core.NewMemoryPool())
	delta65 := AppendFrame(nil, FrameDelta, 1, 6, 5, core.AppendModelPayload(nil, m, []int{0}))

	// A delta building on generation 6 while the follower holds 5 is a gap:
	// it must be skipped (never applied) and answered with a resync request.
	sp.send(AppendFrame(nil, FrameDelta, 1, 7, 6, core.AppendModelPayload(nil, m, []int{0})))
	sp.expect(FrameResync, 5)
	if st := f.Stats(); st.GenerationGaps != 1 {
		t.Fatalf("generation gaps = %d, want 1 (%+v)", st.GenerationGaps, st)
	}
	expectEstimatesMatch(t, "after gap delta", srv, ref5, srvEps, refEps)

	// A corrupted copy of the clean delta must be rejected by checksum —
	// never applied — and answered with a resync request.
	corrupt := append([]byte(nil), delta65...)
	corrupt[len(corrupt)-7] ^= 0xFF // flip a payload byte
	sp.send(corrupt)
	sp.expect(FrameResync, 5)
	if st := f.Stats(); st.CorruptRejected != 1 {
		t.Fatalf("corrupt rejected = %d, want 1 (%+v)", st.CorruptRejected, st)
	}
	expectEstimatesMatch(t, "after corrupt delta", srv, ref5, srvEps, refEps)
	if g := f.Generation(); g != 5 {
		t.Fatalf("generation %d after rejected frames, want 5", g)
	}

	// The clean delta applies and the follower serves generation 6 bits.
	sp.send(delta65)
	sp.expect(FrameAck, 6)
	expectEstimatesMatch(t, "after clean delta", srv, ref6, srvEps, refEps)
	if st := f.Stats(); st.DeltasApplied != 1 || st.SnapshotsApplied != 1 {
		t.Fatalf("frame counters: %+v", st)
	}
}

// TestFollowerRefusesNonFiniteFrame hands a real Follower CRC-valid frames
// whose payloads carry a NaN: a snapshot, then — after a clean bootstrap — a
// delta. Neither may be applied or acknowledged: the follower drops the
// session and reconnects at the generation it still serves (the handshake
// that resyncs it by snapshot), and its server keeps answering the last clean
// weights.
func TestFollowerRefusesNonFiniteFrame(t *testing.T) {
	samples := labeledSamples(t, 23, 8)
	refEps := encodePlans(t, samples)
	m, _ := trainedModel(t, refEps, 1)
	ref := core.NewServer(m, core.NewMemoryPool())

	model := core.New(m.Cfg, testEnc)
	srv := core.NewServer(model, core.NewMemoryPool())
	srvEps := encodePlans(t, samples)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	f := NewFollower(FollowerConfig{
		Peers:       []string{ln.Addr().String()},
		Server:      srv,
		Model:       model,
		RetryMin:    5 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		Heartbeat:   time.Hour,
		PeerTimeout: time.Hour,
		Logf:        t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// accept takes the follower's next connection and checks its hello.
	accept := func(gen uint64) *scriptedPrimary {
		t.Helper()
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		sp := &scriptedPrimary{t: t, conn: conn, fr: NewFrameReader(conn)}
		sp.expect(FrameHello, gen)
		return sp
	}
	// refused checks that the follower answered a frame by hanging up.
	refused := func(sp *scriptedPrimary, what string) {
		t.Helper()
		sp.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if fm, err := sp.fr.Read(); err == nil {
			t.Fatalf("%s: follower answered with %v gen %d instead of dropping the session", what, fm.Type, fm.Gen)
		}
	}
	allIdx := make([]int, len(m.PS.Params()))
	for i := range allIdx {
		allIdx[i] = i
	}
	withNaN := func(idx []int) []byte {
		p := core.AppendModelPayload(nil, m, idx)
		first := len(core.AppendModelPayload(nil, m, nil)) + 8 // first record's first value
		binary.LittleEndian.PutUint64(p[first:], math.Float64bits(math.NaN()))
		return p
	}

	sp := accept(0)
	sp.send(AppendFrame(nil, FrameSnapshot, 1, 5, 5, withNaN(allIdx)))
	refused(sp, "NaN snapshot")
	sp = accept(0)
	if g, v := f.Generation(), srv.Version(); g != 0 || v != 1 {
		t.Fatalf("after a NaN snapshot: generation %d, version %d; want 0, 1", g, v)
	}

	sp.send(AppendFrame(nil, FrameSnapshot, 1, 5, 5, core.AppendModelPayload(nil, m, allIdx)))
	sp.expect(FrameAck, 5)
	expectEstimatesMatch(t, "after clean snapshot", srv, ref, srvEps, refEps)

	sp.send(AppendFrame(nil, FrameDelta, 1, 6, 5, withNaN([]int{0})))
	refused(sp, "NaN delta")
	accept(5)
	if g := f.Generation(); g != 5 {
		t.Fatalf("generation %d after a NaN delta, want 5", g)
	}
	expectEstimatesMatch(t, "after NaN delta", srv, ref, srvEps, refEps)
}
