package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/nn"
)

// follower is a Member's replica half: it dials through the member's peer
// list, applies snapshot and delta frames into the member's model,
// republishes each applied generation through Server.PublishDelta (so local
// serving hot-swaps exactly like the primary's), labels the snapshot with
// the frame's (epoch, generation), and acknowledges it. Corrupt frames are
// rejected by checksum and never applied; generation gaps — missed frames,
// reconnects — trigger a full-snapshot resync; frames from a stale primary
// epoch are rejected outright and answered with FrameFenced, so a deposed
// primary can never diverge this replica. Its run goroutine owns the model: no
// other writer may touch it.
type follower struct {
	m      *Member // config, timing and lease; promotes on lease expiry
	schema uint64

	// touched is session-goroutine scratch: frame-apply is allocation-free
	// steady-state. outBuf is the control-frame scratch, guarded by writeMu
	// (the heartbeat goroutine and the session loop both send).
	touched []*nn.Param
	writeMu sync.Mutex
	outBuf  []byte
	// applyEpoch and applyGen are the coordinates of the frame applyFrame
	// is publishing, which the label hook returns. Written and read on the
	// run goroutine only: the Server calls the hook on the publishing
	// goroutine.
	applyEpoch, applyGen uint64

	gen        atomic.Uint64 // last applied + locally published generation
	epoch      atomic.Uint64 // highest primary epoch ever seen
	primaryGen atomic.Uint64 // highest generation heard from the primary
	connected  atomic.Bool
	lastRenew  atomic.Int64 // UnixNano of the last lease renewal

	readyOnce sync.Once
	ready     chan struct{}

	snapshots      atomic.Uint64
	deltas         atomic.Uint64
	corrupt        atomic.Uint64
	gaps           atomic.Uint64
	reconnects     atomic.Uint64
	acks           atomic.Uint64
	fencedFrames   atomic.Uint64 // stale-epoch frames rejected
	heartbeatsIn   atomic.Uint64
	heartbeatsOut  atomic.Uint64
	lastApplyNanos atomic.Uint64
}

func newFollower(m *Member) *follower {
	return &follower{
		m:       m,
		schema:  core.SchemaHash(m.cfg.Model),
		touched: make([]*nn.Param, 0, len(m.cfg.Model.PS.Params())),
		ready:   make(chan struct{}),
	}
}

// backoffDelay computes the reconnect sleep for the given 0-based failed
// attempt: min doubled per attempt, clamped to max, plus jitter of at most
// half the base (jit in [0,1)), never exceeding max. Pure — the budget is
// fully pinned by a table test.
func backoffDelay(attempt int, minD, maxD time.Duration, jit float64) time.Duration {
	if minD <= 0 {
		minD = time.Millisecond
	}
	if maxD < minD {
		maxD = minD
	}
	base := minD
	for i := 0; i < attempt && base < maxD; i++ {
		base *= 2
	}
	if base > maxD {
		base = maxD
	}
	d := base + time.Duration(jit*float64(base/2))
	if d > maxD {
		d = maxD
	}
	return d
}

// run dials through the peer list and replicates until ctx is canceled,
// advancing to the next peer with budgeted jittered backoff on any
// connection loss or fencing. Between sessions it checks the primary lease;
// on expiry the member may promote and end run. It is the
// follower's only model-writing goroutine, and it labels the Server's
// publications: run registers the follower as the Server's publish hook, so
// every snapshot a frame publishes carries that frame's (epoch, generation).
// run leaves the hook in place when it returns — a promotion has already
// replaced it with the new publisher's.
func (f *follower) run(ctx context.Context) {
	f.m.cfg.Server.SetPublishHook(f.label)
	f.lastRenew.Store(time.Now().UnixNano())
	attempt := 0
	peer := 0
	for ctx.Err() == nil {
		addr := f.m.cfg.Peers[peer%len(f.m.cfg.Peers)]
		d := net.Dialer{Timeout: f.leaseBound(f.m.tm.dial)}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			delay := backoffDelay(attempt, f.m.tm.retryMin, f.m.tm.retryMax, rand.Float64())
			f.m.cfg.Logf("replica: dial %s: %v (next peer in %v)", addr, err, delay)
			if f.checkLease() {
				return
			}
			if !sleepCtx(ctx, f.leaseBound(delay)) {
				return
			}
			attempt++
			peer++
			continue
		}
		applied := f.session(ctx, nc, addr)
		f.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		f.reconnects.Add(1)
		if f.checkLease() {
			return
		}
		if applied {
			attempt = 0
		} else {
			attempt++
		}
		peer++
		if !sleepCtx(ctx, f.leaseBound(backoffDelay(attempt, f.m.tm.retryMin, f.m.tm.retryMax, rand.Float64()))) {
			return
		}
	}
}

// checkLease reports whether the primary lease has lapsed AND the member
// promoted (run must stop). Renewal bookkeeping is fault-gated at
// fault.SiteReplicaLeaseRenew, so chaos tests can starve the lease.
func (f *follower) checkLease() bool {
	lease := f.m.lease()
	if lease <= 0 {
		return false
	}
	last := time.Unix(0, f.lastRenew.Load())
	if time.Since(last) < lease {
		return false
	}
	f.m.cfg.Logf("replica: primary lease lapsed (last renewal %v ago, lease %v)", time.Since(last).Round(time.Millisecond), lease)
	return f.m.onLeaseExpired()
}

// renewLease stamps the primary as live now. Gated by the fault.SiteReplicaLeaseRenew
// fault site: an injected error suppresses the renewal, so the lease ages
// as if the primary had gone silent.
func (f *follower) renewLease() {
	if fault.Point(fault.SiteReplicaLeaseRenew) != nil {
		return
	}
	f.lastRenew.Store(time.Now().UnixNano())
}

// leaseBound caps a dial timeout, read deadline or backoff sleep by the
// remaining primary lease, so a black-holed dial or wedged connection can
// never push the next lease-lapse check past the lease itself — failover
// latency tracks the configured lease, not lease + dial or peer timeout.
// A healthy stream is unaffected: frames keep the remaining lease pinned
// near its full length. Members that never promote get d unchanged.
func (f *follower) leaseBound(d time.Duration) time.Duration {
	lease := f.m.lease()
	if lease <= 0 {
		return d
	}
	rem := lease - time.Since(time.Unix(0, f.lastRenew.Load()))
	// Floor keeps an already-lapsed lease from spinning the dial loop hot
	// while promotion attempts are aborted (fault injection, bind failure).
	const floor = 5 * time.Millisecond
	if rem < floor {
		rem = floor
	}
	if rem < d {
		return rem
	}
	return d
}

// observeEpoch raises the follower's highest-seen epoch to at least e. A
// demoting Member folds the epoch that fenced it back in before rejoining,
// so stale frames below it stay rejected and a later re-promotion seeds
// strictly above every epoch already consumed.
func (f *follower) observeEpoch(e uint64) {
	for {
		cur := f.epoch.Load()
		if e <= cur || f.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// session runs one connection: hello handshake (schema + auth token), a
// heartbeat goroutine keeping the primary's read deadline fed, then apply
// frames until the stream breaks, a deadline lapses, or a stale-epoch frame
// fences the peer. It reports whether at least one frame was applied (used
// to reset the reconnect backoff budget).
func (f *follower) session(ctx context.Context, nc net.Conn, addr string) (applied bool) {
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()

	hello := make([]byte, 8, 8+len(f.m.cfg.Token))
	binary.LittleEndian.PutUint64(hello, f.schema)
	hello = append(hello, f.m.cfg.Token...)
	if !f.send(nc, FrameHello, f.gen.Load(), hello) {
		f.m.cfg.Logf("replica: hello to %s: write failed", addr)
		return false
	}
	f.connected.Store(true)
	f.m.cfg.Logf("replica: connected to primary %s at generation %d (epoch %d)", addr, f.gen.Load(), f.epoch.Load())

	// Heartbeats keep the primary's read deadline fed between acks. The
	// goroutine dies with the session: closing hbStop (deferred) or the
	// socket (on write error) ends it.
	hbStop := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		t := time.NewTicker(f.m.tm.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if fault.Point(fault.SiteReplicaHeartbeatSend) != nil {
					continue // injected heartbeat suppression
				}
				if !f.send(nc, FrameHeartbeat, f.gen.Load(), nil) {
					nc.Close()
					return
				}
				f.heartbeatsOut.Add(1)
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWg.Wait()
	}()

	fr := NewFrameReader(bufio.NewReaderSize(nc, 64<<10))
	for {
		if err := fault.Point(fault.SiteReplicaRecv); err != nil {
			f.m.cfg.Logf("replica: injected receive fault: %v", err)
			return applied
		}
		nc.SetReadDeadline(time.Now().Add(f.leaseBound(f.m.tm.peerTimeout)))
		fm, err := fr.Read()
		if err == ErrChecksum {
			// The frame was consumed whole; its bytes are untrusted and are
			// dropped without touching the model. Whatever generation it
			// carried is lost, so ask for a snapshot.
			f.corrupt.Add(1)
			f.m.cfg.Logf("replica: corrupt frame rejected, requesting resync at generation %d", f.gen.Load())
			if !f.send(nc, FrameResync, f.gen.Load(), nil) {
				return applied
			}
			continue
		}
		if err != nil {
			if ctx.Err() == nil {
				f.m.cfg.Logf("replica: stream from %s broke: %v", addr, err)
			}
			return applied
		}
		if ep := f.epoch.Load(); fm.Epoch < ep {
			// Stale-epoch frame: a deposed primary is still talking. Never
			// apply a byte of it — tell it the cluster has moved on and
			// walk away to the next peer.
			f.fencedFrames.Add(1)
			f.m.cfg.Logf("replica: fencing %s — %s frame from stale epoch %d (cluster is at %d)", addr, fm.Type, fm.Epoch, ep)
			f.send(nc, FrameFenced, f.gen.Load(), nil)
			return applied
		} else if fm.Epoch > ep {
			f.epoch.Store(fm.Epoch)
			f.m.cfg.Logf("replica: adopting primary epoch %d (was %d)", fm.Epoch, ep)
		}
		switch fm.Type {
		case FrameHeartbeat:
			if fault.Point(fault.SiteReplicaHeartbeatRecv) != nil {
				continue // injected: drop the heartbeat, lease not renewed
			}
			f.heartbeatsIn.Add(1)
			f.primaryGen.Store(fm.Gen)
			f.renewLease()
		case FrameSnapshot:
			f.primaryGen.Store(fm.Gen)
			f.renewLease()
			if !f.applyAndAck(nc, fm, true) {
				return applied
			}
			applied = true
		case FrameDelta:
			f.primaryGen.Store(fm.Gen)
			f.renewLease()
			if fm.Prev != f.gen.Load() {
				// Generation gap: this delta builds on a publication we never
				// applied (dropped for backpressure, lost to a reconnect, or
				// rejected as corrupt). Applying it would silently diverge —
				// skip it and catch up by snapshot.
				f.gaps.Add(1)
				f.m.cfg.Logf("replica: generation gap (have %d, delta builds on %d), requesting resync", f.gen.Load(), fm.Prev)
				if !f.send(nc, FrameResync, f.gen.Load(), nil) {
					return applied
				}
				continue
			}
			if !f.applyAndAck(nc, fm, false) {
				return applied
			}
			applied = true
		}
	}
}

// applyFrame is the warm apply core: decode the payload into the local
// model and republish it through the local Server, labeled with the frame's
// (epoch, generation) by the label hook run registered.
// This is the follower half of the apply→PublishDelta round trip whose
// steady state the AllocsPerRun conformance test pins at zero; the ready
// signalling and ack I/O live in applyAndAck so this body stays
// allocation-free.
//
// costlint:noalloc
func (f *follower) applyFrame(fm Frame, full bool) error {
	start := time.Now()
	touched, err := core.ApplyModelPayload(f.m.cfg.Model, fm.Payload, full, f.touched)
	f.touched = touched
	if err != nil {
		return err
	}
	f.m.cfg.Model.PS.MarkParamsUpdated(touched)
	f.applyEpoch, f.applyGen = fm.Epoch, fm.Gen
	f.m.cfg.Server.PublishDelta(f.m.cfg.Model)
	f.gen.Store(fm.Gen)
	f.lastApplyNanos.Store(uint64(time.Since(start)))
	if full {
		f.snapshots.Add(1)
	} else {
		f.deltas.Add(1)
	}
	return nil
}

// applyAndAck applies a validated frame into the local model, republishes it
// through the local Server, and acknowledges the generation. A payload that
// fails validation despite an intact checksum — a protocol bug, or NaN/Inf
// weights — is never applied: the session drops and the reconnect handshake
// resyncs from a snapshot, under the reconnect backoff, so a primary that
// keeps sending the same bad payload cannot spin the follower.
func (f *follower) applyAndAck(nc net.Conn, fm Frame, full bool) bool {
	if err := f.applyFrame(fm, full); err != nil {
		f.m.cfg.Logf("replica: %s frame for generation %d failed to apply: %v", fm.Type, fm.Gen, err)
		return false
	}
	f.readyOnce.Do(func() { close(f.ready) })
	if !f.send(nc, FrameAck, fm.Gen, nil) {
		return false
	}
	f.acks.Add(1)
	return true
}

// send writes one follower frame (hello / ack / resync / heartbeat /
// fenced), stamped with the highest epoch seen. writeMu serializes the
// session loop and the heartbeat goroutine over the shared scratch buffer
// and the socket.
func (f *follower) send(nc net.Conn, t FrameType, gen uint64, payload []byte) bool {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	nc.SetWriteDeadline(time.Now().Add(f.m.tm.writeTimeout))
	f.outBuf = AppendFrame(f.outBuf[:0], t, f.epoch.Load(), gen, 0, payload)
	_, err := nc.Write(f.outBuf)
	return err == nil
}

// label is the follower's publish hook: the coordinates of the frame
// applyFrame is publishing.
func (f *follower) label(*core.Model, uint64) (epoch, gen uint64) {
	return f.applyEpoch, f.applyGen
}

// Generation returns the last applied and locally served generation.
func (f *follower) Generation() uint64 { return f.gen.Load() }

// Epoch returns the highest primary epoch the follower has seen.
func (f *follower) Epoch() uint64 { return f.epoch.Load() }

// FollowerStats is the /statsz view of a follower, lag included.
type FollowerStats struct {
	Connected          bool   `json:"connected"`
	Epoch              uint64 `json:"epoch"`
	Generation         uint64 `json:"generation"`
	PrimaryGeneration  uint64 `json:"primary_generation"`
	Lag                uint64 `json:"lag"`
	SnapshotsApplied   uint64 `json:"snapshot_frames_applied"`
	DeltasApplied      uint64 `json:"delta_frames_applied"`
	CorruptRejected    uint64 `json:"corrupt_frames_rejected"`
	FencedRejected     uint64 `json:"stale_epoch_frames_rejected"`
	GenerationGaps     uint64 `json:"generation_gaps"`
	Reconnects         uint64 `json:"reconnects"`
	Acks               uint64 `json:"acks"`
	HeartbeatsReceived uint64 `json:"heartbeats_received"`
	HeartbeatsSent     uint64 `json:"heartbeats_sent"`
	LastApplyNanos     uint64 `json:"last_apply_nanos"`
}

// Stats snapshots the follower's counters. Lag is how many generations the
// follower knows it is behind the primary (0 while caught up; between
// publications primary and follower agree).
func (f *follower) Stats() FollowerStats {
	st := FollowerStats{
		Connected:          f.connected.Load(),
		Epoch:              f.epoch.Load(),
		Generation:         f.gen.Load(),
		PrimaryGeneration:  f.primaryGen.Load(),
		SnapshotsApplied:   f.snapshots.Load(),
		DeltasApplied:      f.deltas.Load(),
		CorruptRejected:    f.corrupt.Load(),
		FencedRejected:     f.fencedFrames.Load(),
		GenerationGaps:     f.gaps.Load(),
		Reconnects:         f.reconnects.Load(),
		Acks:               f.acks.Load(),
		HeartbeatsReceived: f.heartbeatsIn.Load(),
		HeartbeatsSent:     f.heartbeatsOut.Load(),
		LastApplyNanos:     f.lastApplyNanos.Load(),
	}
	if st.PrimaryGeneration > st.Generation {
		st.Lag = st.PrimaryGeneration - st.Generation
	}
	return st
}

// sleepCtx sleeps for d unless ctx expires first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
