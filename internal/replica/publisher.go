package replica

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
)

// Fault-injection sites on the replication link live in the central
// registry (internal/fault/sites.go, enforced by the costlint faultsite
// analyzer): fault.SiteReplicaSend, fault.SiteReplicaSendCorrupt,
// fault.SiteReplicaRecv, fault.SiteReplicaHeartbeatSend and
// fault.SiteReplicaHeartbeatRecv. The corrupt site is interpreted by the
// sender as "flip bytes in a private copy of the frame before writing" —
// the follower must reject it by checksum.

// DefaultEpoch is the epoch a zero PublisherConfig publishes under — the
// boot primary's epoch. A promoting Member always seeds its epoch strictly
// above it (see promoteEpoch), so a member that never heard from any primary
// cannot collide with a default-configured boot primary.
const DefaultEpoch = 1

// connQueueDepth bounds the per-follower outbound frame queue. A follower
// that falls further behind than this stops receiving deltas and is healed
// with a snapshot at the next publication instead (slow followers must not
// block or bloat the primary).
const connQueueDepth = 32

// PublisherConfig tunes the primary side of replication. The zero value is
// usable: epoch 1, no auth token, 2s heartbeats.
type PublisherConfig struct {
	// Epoch is the primary epoch stamped into every frame — the cluster's
	// fencing token. Exactly one publisher may stream under a given epoch;
	// a promoted Member publishes under its predecessor's epoch + 1.
	// Defaults to 1.
	Epoch uint64
	// Token is the pre-shared replication auth token. When non-empty, every
	// follower hello must carry it (constant-time compare of fixed-length
	// digests) or the connection is rejected before any payload is parsed.
	// Empty disables the check entirely: a tokenless primary accepts
	// followers whether or not they present a token.
	Token string
	// Heartbeat is the interval between liveness frames on every follower
	// connection (default 2s).
	Heartbeat time.Duration
	// PeerTimeout bounds silence from a follower: each read arms a deadline
	// of this length, and follower heartbeats keep it fed. A wedged peer is
	// disconnected instead of blocking forever. Default 4 × Heartbeat.
	PeerTimeout time.Duration
	// WriteTimeout bounds every frame write (default PeerTimeout).
	WriteTimeout time.Duration
	// EvictAfter is how many consecutive publications may find a follower's
	// send queue full before the follower is evicted (disconnected; it
	// reconnects and heals by snapshot). Default 3.
	EvictAfter int
	// Logf receives lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

func (cfg *PublisherConfig) fill() {
	if cfg.Epoch == 0 {
		cfg.Epoch = DefaultEpoch
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 4 * cfg.Heartbeat
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = cfg.PeerTimeout
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Publisher is the primary side of replication: it taps every Server
// publication (register OnPublish via core.Server.SetPublishHook), keeps a
// private mirror of the published weights, and streams delta frames to every
// connected follower. The mirror makes catch-up independent of training:
// snapshot frames for new or lagging followers are encoded from the mirror
// under the publisher's own lock, at any time, without touching the live
// (possibly mid-step) training model.
//
// The publisher owns the replication generation counter: every publication
// advances it by one, whatever the local Server version says. (A promoted
// Member's server has its own version history; the replication generation is
// the cluster-wide one.) OnPublish returns the (epoch, generation) it
// streams, and the Server stores it in the snapshot it is about to serve.
type Publisher struct {
	cfg PublisherConfig

	mu     sync.Mutex
	mirror *core.Model // publisher-owned copy of the last published weights
	stamps []uint64    // per-param source stamps at last mirror sync
	src    *core.Model // source model of the last publication
	gen    uint64      // replication generation of the mirror
	schema uint64
	conns  map[*pubConn]struct{}
	closed bool
	ln     net.Listener
	logf   func(format string, args ...any)
	wg     sync.WaitGroup

	dirty  []int // scratch: indices dirtied by the current publication
	allIdx []int // 0..nparams-1, for snapshot encoding

	genA   atomic.Uint64 // lock-free view of gen (heartbeats, stats)
	fenced atomic.Bool   // deposed: a follower proved a higher epoch exists
	seenEp atomic.Uint64 // highest foreign epoch reported by a FrameFenced

	publications      atomic.Uint64
	deltaFrames       atomic.Uint64
	snapshotFrames    atomic.Uint64
	deltaBytes        atomic.Uint64
	snapshotBytes     atomic.Uint64
	lastDeltaBytes    atomic.Uint64
	lastSnapshotBytes atomic.Uint64
	droppedFrames     atomic.Uint64
	corruptInjected   atomic.Uint64
	rejectedConns     atomic.Uint64
	authRejects       atomic.Uint64
	heartbeatsSent    atomic.Uint64
	evictions         atomic.Uint64
	fencedDrops       atomic.Uint64 // publications ignored because fenced
}

// pubConn is one follower connection. needsSnapshot, ready and stalls are
// guarded by Publisher.mu; the counters are read by Stats without the lock.
type pubConn struct {
	nc            net.Conn
	out           chan []byte // immutable encoded frames, shared across conns
	done          chan struct{}
	closeOnce     sync.Once
	ready         bool // handshake complete, eligible for broadcast
	needsSnapshot bool // next publication must send a full snapshot
	stalls        int  // consecutive publications that found the queue full
	acked         atomic.Uint64
	framesSent    atomic.Uint64
	framesDropped atomic.Uint64
	hbOut         []byte // writeLoop-only heartbeat scratch
}

func (c *pubConn) trySend(b []byte) bool {
	select {
	case c.out <- b:
		return true
	default:
		return false
	}
}

// NewPublisher builds a publisher mirroring m at replication generation gen
// (the owning Server's current version on a fresh primary, or the sealed
// generation on a promoted Member). The caller must have m quiesced —
// construct the publisher after the initial publish, before training starts
// — and then register pub.OnPublish with core.Server.SetPublishHook.
//
// The mirror is what every follower's bootstrap snapshot carries, and a
// follower refuses NaN or infinite values, so a model holding one is refused
// here (core.Model.CheckFinite, the scan PublishDelta refuses on) rather
// than handed to followers that would never become ready.
func NewPublisher(m *core.Model, gen uint64, cfg PublisherConfig) (*Publisher, error) {
	if err := m.CheckFinite(); err != nil {
		return nil, fmt.Errorf("replica: refusing to publish: %w", err)
	}
	cfg.fill()
	params := m.PS.Params()
	p := &Publisher{
		cfg:    cfg,
		mirror: core.New(m.Cfg, m.Enc),
		stamps: make([]uint64, len(params)),
		src:    m,
		gen:    gen,
		schema: SchemaHash(m),
		conns:  make(map[*pubConn]struct{}),
		logf:   cfg.Logf,
		allIdx: make([]int, len(params)),
	}
	p.genA.Store(gen)
	mir := p.mirror.PS.Params()
	for i, sp := range params {
		copy(mir[i].Value, sp.Value)
		p.stamps[i] = sp.Stamp()
		p.allIdx[i] = i
	}
	p.mirror.CostNorm, p.mirror.CardNorm = m.CostNorm, m.CardNorm
	return p, nil
}

// Epoch returns the epoch this publisher streams under.
func (p *Publisher) Epoch() uint64 { return p.cfg.Epoch }

// Generation returns the current replication generation.
func (p *Publisher) Generation() uint64 { return p.genA.Load() }

// Fenced reports whether the publisher has been deposed by a higher epoch.
func (p *Publisher) Fenced() bool { return p.fenced.Load() }

// FencedBy returns the strictly higher epoch that deposed this publisher,
// 0 while unfenced.
func (p *Publisher) FencedBy() uint64 { return p.seenEp.Load() }

// OnPublish is the publish hook: called under the Server's publication lock
// with training quiesced, it advances the replication generation, syncs the
// dirty parameters into the mirror, encodes one immutable delta frame, and
// broadcasts it. Followers flagged for catch-up get a snapshot frame
// instead; a follower whose queue is full is skipped and flagged (healed by
// snapshot at a later publication), and after EvictAfter consecutive stalls
// it is evicted outright. It returns the publication's coordinates — this
// publisher's epoch and the new generation — for the Server to store in the
// snapshot. A fenced or closed publisher ignores publications entirely and
// returns (0, 0): they serve unlabeled.
func (p *Publisher) OnPublish(m *core.Model, _ uint64) (epoch, gen uint64) {
	if p.fenced.Load() {
		p.fencedDrops.Add(1)
		return 0, 0
	}
	var evict []*pubConn
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, 0
	}
	if m != p.src {
		// A different source model (e.g. a checkpoint swap): every recorded
		// stamp is meaningless, resync the whole mirror.
		p.src = m
		for i := range p.stamps {
			p.stamps[i] = 0
		}
	}
	p.dirty = p.dirty[:0]
	srcParams := m.PS.Params()
	mirParams := p.mirror.PS.Params()
	for i, sp := range srcParams {
		if st := sp.Stamp(); st > p.stamps[i] {
			p.stamps[i] = st
			copy(mirParams[i].Value, sp.Value)
			p.dirty = append(p.dirty, i)
		}
	}
	p.mirror.CostNorm, p.mirror.CardNorm = m.CostNorm, m.CardNorm
	prev := p.gen
	p.gen++
	gen = p.gen
	p.genA.Store(gen)
	p.publications.Add(1)

	frame := AppendFrame(nil, FrameDelta, p.cfg.Epoch, gen, prev, AppendModelPayload(nil, p.mirror, p.dirty))
	p.lastDeltaBytes.Store(uint64(len(frame)))
	var snap []byte
	for c := range p.conns {
		if !c.ready {
			continue
		}
		if c.needsSnapshot {
			if snap == nil {
				snap = p.encodeSnapshotLocked()
			}
			if c.trySend(snap) {
				c.needsSnapshot = false
				c.stalls = 0
				p.snapshotFrames.Add(1)
				p.snapshotBytes.Add(uint64(len(snap)))
			} else if c.stalled(p.cfg.EvictAfter) {
				evict = append(evict, c)
			} else {
				p.droppedFrames.Add(1)
			}
		} else if c.trySend(frame) {
			c.stalls = 0
			p.deltaFrames.Add(1)
			p.deltaBytes.Add(uint64(len(frame)))
		} else {
			c.needsSnapshot = true
			if c.stalled(p.cfg.EvictAfter) {
				evict = append(evict, c)
			} else {
				p.droppedFrames.Add(1)
			}
		}
	}
	p.mu.Unlock()
	for _, c := range evict {
		p.evictions.Add(1)
		p.logf("replica: evicting slow follower %s (%d consecutive stalled publications)", c.nc.RemoteAddr(), p.cfg.EvictAfter)
		p.drop(c)
	}
	return p.cfg.Epoch, gen
}

// stalled records one more publish-time queue stall and reports whether the
// eviction budget is exhausted. Caller holds p.mu.
func (c *pubConn) stalled(evictAfter int) bool {
	c.stalls++
	c.framesDropped.Add(1)
	return c.stalls >= evictAfter
}

// encodeSnapshotLocked encodes a full-snapshot frame of the mirror at the
// current generation. Caller holds p.mu.
func (p *Publisher) encodeSnapshotLocked() []byte {
	b := AppendFrame(nil, FrameSnapshot, p.cfg.Epoch, p.gen, p.gen, AppendModelPayload(nil, p.mirror, p.allIdx))
	p.lastSnapshotBytes.Store(uint64(len(b)))
	return b
}

// Serve accepts follower connections on ln until the listener is closed
// (Close does). Run it on its own goroutine.
func (p *Publisher) Serve(ln net.Listener) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := &pubConn{nc: nc, out: make(chan []byte, connQueueDepth), done: make(chan struct{})}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			return
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.handleConn(c)
	}
}

// handleConn validates the hello handshake — auth token first, in constant
// time, before any payload field is parsed — starts the writer, and then
// consumes control frames until the connection dies. Every read arms a
// PeerTimeout deadline; the follower's heartbeats keep it fed.
func (p *Publisher) handleConn(c *pubConn) {
	defer p.wg.Done()
	defer p.drop(c)
	if p.fenced.Load() {
		p.rejectedConns.Add(1)
		return
	}
	fr := NewFrameReader(bufio.NewReaderSize(c.nc, 32<<10))
	c.nc.SetReadDeadline(time.Now().Add(p.cfg.PeerTimeout))
	f, err := fr.Read()
	if err != nil || f.Type != FrameHello || len(f.Payload) < 8 {
		p.rejectedConns.Add(1)
		p.logf("replica: rejected connection from %s: bad hello (%v)", c.nc.RemoteAddr(), err)
		return
	}
	if p.cfg.Token != "" {
		// Compare fixed-length digests: constant time for any presented
		// token (ConstantTimeCompare short-circuits on length mismatch,
		// which would leak the configured token's length).
		want := sha256.Sum256([]byte(p.cfg.Token))
		got := sha256.Sum256(f.Payload[8:])
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			p.rejectedConns.Add(1)
			p.authRejects.Add(1)
			p.logf("replica: rejected connection from %s: bad auth token", c.nc.RemoteAddr())
			return
		}
	}
	if got := binary.LittleEndian.Uint64(f.Payload); got != p.schema {
		p.rejectedConns.Add(1)
		p.logf("replica: rejected follower %s: schema %#x, primary has %#x", c.nc.RemoteAddr(), got, p.schema)
		return
	}
	if f.Epoch > p.cfg.Epoch {
		// The follower claims a higher epoch exists. Its first stale-epoch
		// frame from us will draw an authenticated FrameFenced reply, which
		// is what actually fences us — a hello alone doesn't depose a
		// primary, but it is worth logging.
		p.logf("replica: follower %s reports epoch %d above ours (%d)", c.nc.RemoteAddr(), f.Epoch, p.cfg.Epoch)
	}

	p.mu.Lock()
	if _, live := p.conns[c]; !live {
		p.mu.Unlock()
		return
	}
	gen := p.gen
	c.ready = true
	if f.Gen == p.gen && f.Gen != 0 && f.Epoch == p.cfg.Epoch {
		// Reconnecting follower already at our generation and epoch:
		// nothing to send.
		c.acked.Store(f.Gen)
	} else {
		snap := p.encodeSnapshotLocked()
		if c.trySend(snap) {
			p.snapshotFrames.Add(1)
			p.snapshotBytes.Add(uint64(len(snap)))
		} else {
			c.needsSnapshot = true
		}
	}
	p.mu.Unlock()
	p.logf("replica: follower %s connected at generation %d (primary at %d, epoch %d)", c.nc.RemoteAddr(), f.Gen, gen, p.cfg.Epoch)

	p.wg.Add(1)
	go p.writeLoop(c)
	for {
		c.nc.SetReadDeadline(time.Now().Add(p.cfg.PeerTimeout))
		f, err := fr.Read()
		if err == ErrChecksum {
			continue // control frame corrupted in transit; follower will resend
		}
		if err != nil {
			return
		}
		switch f.Type {
		case FrameAck:
			c.acked.Store(f.Gen)
		case FrameHeartbeat:
			// Liveness only: receiving it already re-armed the deadline.
		case FrameFenced:
			// An authenticated follower proved a higher epoch exists: we
			// are deposed. Fence ourselves — stop broadcasting, sever every
			// follower so they move to the new primary. Only a strictly
			// higher epoch is evidence of a successor: an equal, lower or
			// zero claim must not silence a healthy primary.
			if f.Epoch > p.cfg.Epoch {
				p.fence(f.Epoch)
				return
			}
			p.logf("replica: ignoring fence claim at epoch %d from %s (ours is %d)",
				f.Epoch, c.nc.RemoteAddr(), p.cfg.Epoch)
		case FrameResync:
			p.mu.Lock()
			if _, live := p.conns[c]; live {
				snap := p.encodeSnapshotLocked()
				if c.trySend(snap) {
					c.needsSnapshot = false
					p.snapshotFrames.Add(1)
					p.snapshotBytes.Add(uint64(len(snap)))
				} else {
					c.needsSnapshot = true
				}
			}
			p.mu.Unlock()
		}
	}
}

// fence marks the publisher deposed by a higher epoch. Publications become
// no-ops and every follower is severed so it can find the new primary.
func (p *Publisher) fence(higher uint64) {
	if p.fenced.Swap(true) {
		return
	}
	p.seenEp.Store(higher)
	p.logf("replica: FENCED — epoch %d deposed by epoch %d, ceasing publication", p.cfg.Epoch, higher)
	p.DisconnectAll()
}

// writeLoop drains the connection's frame queue onto the socket, applying
// the fault-injection sites, and interleaves heartbeat frames so the
// follower's lease and read deadline stay fed between publications.
func (p *Publisher) writeLoop(c *pubConn) {
	defer p.wg.Done()
	hb := time.NewTicker(p.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case b := <-c.out:
			if err := p.writeFrame(c, b); err != nil {
				p.drop(c)
				return
			}
			c.framesSent.Add(1)
		case <-hb.C:
			if fault.Point(fault.SiteReplicaHeartbeatSend) != nil {
				continue // injected heartbeat suppression: peer sees silence
			}
			c.hbOut = AppendFrame(c.hbOut[:0], FrameHeartbeat, p.cfg.Epoch, p.genA.Load(), 0, nil)
			if err := p.writeFrame(c, c.hbOut); err != nil {
				p.drop(c)
				return
			}
			c.framesSent.Add(1)
			p.heartbeatsSent.Add(1)
		case <-c.done:
			return
		}
	}
}

func (p *Publisher) writeFrame(c *pubConn, b []byte) error {
	if err := fault.Point(fault.SiteReplicaSend); err != nil {
		return err
	}
	if fault.Point(fault.SiteReplicaSendCorrupt) != nil {
		// Transmit a corrupted copy: the shared frame bytes stay pristine
		// (other followers send the same slice), the wire sees flipped bits
		// mid-frame. Framing fields are intact, so the follower consumes the
		// frame whole and must reject it by checksum.
		cb := append([]byte(nil), b...)
		cb[len(cb)/2] ^= 0x5A
		b = cb
		p.corruptInjected.Add(1)
	}
	c.nc.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_, err := c.nc.Write(b)
	return err
}

// drop unregisters and closes a connection; idempotent, callable from any
// goroutine.
func (p *Publisher) drop(c *pubConn) {
	p.mu.Lock()
	_, live := p.conns[c]
	delete(p.conns, c)
	p.mu.Unlock()
	c.closeOnce.Do(func() { close(c.done) })
	c.nc.Close()
	if live {
		p.logf("replica: follower %s disconnected", c.nc.RemoteAddr())
	}
}

// DisconnectAll severs every follower connection (they will reconnect and
// catch up) — a fencing, test and drain hook.
func (p *Publisher) DisconnectAll() {
	p.mu.Lock()
	conns := make([]*pubConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		p.drop(c)
	}
}

// Close stops accepting, severs every follower, and waits for connection
// goroutines to exit. The publisher stays registered as a publish hook but
// ignores further publications.
func (p *Publisher) Close() {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	conns := make([]*pubConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		p.drop(c)
	}
	p.wg.Wait()
}

// PubConnStats is the per-follower-connection view inside PublisherStats.
type PubConnStats struct {
	Remote        string `json:"remote"`
	AckedGen      uint64 `json:"acked_generation"`
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
}

// PublisherStats is the /statsz view of a publisher.
type PublisherStats struct {
	Epoch             uint64         `json:"epoch"`
	Fenced            bool           `json:"fenced"`
	FencedBy          uint64         `json:"fenced_by_epoch,omitempty"`
	Generation        uint64         `json:"generation"`
	Followers         int            `json:"followers"`
	MinAckedGen       uint64         `json:"min_acked_generation"`
	Publications      uint64         `json:"publications"`
	DeltaFrames       uint64         `json:"delta_frames"`
	SnapshotFrames    uint64         `json:"snapshot_frames"`
	DeltaBytes        uint64         `json:"delta_bytes"`
	SnapshotBytes     uint64         `json:"snapshot_bytes"`
	LastDeltaBytes    uint64         `json:"last_delta_bytes"`
	LastSnapshotBytes uint64         `json:"last_snapshot_bytes"`
	DroppedFrames     uint64         `json:"dropped_frames"`
	CorruptInjected   uint64         `json:"corrupt_frames_injected"`
	RejectedConns     uint64         `json:"rejected_conns"`
	AuthRejects       uint64         `json:"auth_rejects"`
	HeartbeatsSent    uint64         `json:"heartbeats_sent"`
	Evictions         uint64         `json:"slow_follower_evictions"`
	FencedDrops       uint64         `json:"fenced_publications_dropped"`
	Conns             []PubConnStats `json:"conns,omitempty"`
}

// Stats snapshots the publisher's counters.
func (p *Publisher) Stats() PublisherStats {
	st := PublisherStats{
		Epoch:             p.cfg.Epoch,
		Fenced:            p.fenced.Load(),
		FencedBy:          p.seenEp.Load(),
		Publications:      p.publications.Load(),
		DeltaFrames:       p.deltaFrames.Load(),
		SnapshotFrames:    p.snapshotFrames.Load(),
		DeltaBytes:        p.deltaBytes.Load(),
		SnapshotBytes:     p.snapshotBytes.Load(),
		LastDeltaBytes:    p.lastDeltaBytes.Load(),
		LastSnapshotBytes: p.lastSnapshotBytes.Load(),
		DroppedFrames:     p.droppedFrames.Load(),
		CorruptInjected:   p.corruptInjected.Load(),
		RejectedConns:     p.rejectedConns.Load(),
		AuthRejects:       p.authRejects.Load(),
		HeartbeatsSent:    p.heartbeatsSent.Load(),
		Evictions:         p.evictions.Load(),
		FencedDrops:       p.fencedDrops.Load(),
	}
	p.mu.Lock()
	st.Generation = p.gen
	for c := range p.conns {
		if !c.ready {
			continue
		}
		st.Followers++
		a := c.acked.Load()
		if st.MinAckedGen == 0 || a < st.MinAckedGen {
			st.MinAckedGen = a
		}
		st.Conns = append(st.Conns, PubConnStats{
			Remote:        c.nc.RemoteAddr().String(),
			AckedGen:      a,
			FramesSent:    c.framesSent.Load(),
			FramesDropped: c.framesDropped.Load(),
		})
	}
	p.mu.Unlock()
	return st
}
