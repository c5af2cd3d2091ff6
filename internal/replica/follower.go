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

// FollowerConfig configures a replica-side Follower.
type FollowerConfig struct {
	// Peers is the ordered list of replication listeners the follower dials
	// through: the primary first, then promotion-ranked successors. On any
	// connection loss or fencing the follower advances to the next peer
	// with jittered backoff, cycling until one answers with a live epoch.
	Peers []string
	// Token is the pre-shared replication auth token sent in the hello.
	Token string
	// Server is the local serving runtime frames publish into.
	Server *core.Server
	// Model is the local mirror model the Server serves from; replication
	// frames write its parameters. Nothing else may mutate it while the
	// follower runs.
	Model *core.Model
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// RetryMin/RetryMax bound the reconnect backoff (default 100ms / 2s).
	// Each consecutive failed attempt doubles the base from RetryMin,
	// clamped to RetryMax, plus jitter of at most half the base (see
	// backoffDelay); a session that applies a frame resets the budget.
	RetryMin time.Duration
	RetryMax time.Duration
	// Heartbeat is the interval between follower→primary liveness frames
	// (default 2s). They keep the primary's read deadline fed.
	Heartbeat time.Duration
	// PeerTimeout bounds silence from the primary: each read arms a
	// deadline of this length, and primary heartbeats keep it fed. A dead
	// or wedged primary is detected within this bound instead of blocking
	// forever. Default 4 × Heartbeat.
	PeerTimeout time.Duration
	// WriteTimeout bounds every control-frame write (default PeerTimeout).
	WriteTimeout time.Duration
	// Lease is the primary liveness lease: every valid frame from a
	// current-epoch primary renews it, and when it lapses (no primary
	// reachable anywhere in Peers for this long) OnLeaseExpired fires.
	// Dial timeouts, read deadlines and reconnect sleeps are capped by the
	// remaining lease (see leaseBound), so the lapse is detected within the
	// lease bound even against a black-holed or wedged peer. Zero disables
	// lease tracking.
	Lease time.Duration
	// OnLeaseExpired is called (from the Run goroutine, between sessions)
	// when the lease lapses. Returning true stops Run — the callback has
	// promoted this replica and the follower's job is done. Nil means this
	// replica never promotes.
	OnLeaseExpired func() bool
	// Logf receives connection lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Follower is the replica side of replication: it dials through the peer
// list, applies snapshot and delta frames into its local model, republishes
// each applied generation through Server.PublishDelta (so local serving
// hot-swaps exactly like the primary's), labels the snapshot with the
// frame's (epoch, generation), and acknowledges it. Corrupt frames
// are rejected by checksum and never applied; generation gaps — missed
// frames, reconnects — trigger a full-snapshot resync; frames from a stale
// primary epoch are rejected outright and answered with FrameFenced, so a
// deposed primary can never diverge this replica. Run owns the model: no
// other writer may touch it.
type Follower struct {
	cfg    FollowerConfig
	schema uint64

	// touched is session-goroutine scratch: frame-apply is allocation-free
	// steady-state. outBuf is the control-frame scratch, guarded by writeMu
	// (the heartbeat goroutine and the session loop both send).
	touched []*nn.Param
	writeMu sync.Mutex
	outBuf  []byte
	// applyEpoch and applyGen are the coordinates of the frame applyFrame
	// is publishing, which the label hook returns. Written and read on the
	// Run goroutine only: the Server calls the hook on the publishing
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

// NewFollower builds a follower; call Run to start it. Server and Model
// must be non-nil and the model must be the one the server serves from.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Server == nil || cfg.Model == nil {
		panic("replica: FollowerConfig needs Server and Model")
	}
	if len(cfg.Peers) == 0 {
		panic("replica: FollowerConfig needs Peers")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 100 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = 2 * time.Second
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
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Follower{
		cfg:     cfg,
		schema:  SchemaHash(cfg.Model),
		touched: make([]*nn.Param, 0, len(cfg.Model.PS.Params())),
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

// Run dials through the peer list and replicates until ctx is canceled,
// advancing to the next peer with budgeted jittered backoff on any
// connection loss or fencing. Between sessions it checks the primary lease;
// on expiry OnLeaseExpired may promote this replica and end Run. It is the
// follower's only model-writing goroutine, and it labels the Server's
// publications: Run registers the follower as the Server's publish hook, so
// every snapshot a frame publishes carries that frame's (epoch, generation).
// Run leaves the hook in place when it returns — a promotion has already
// replaced it with the new publisher's.
func (f *Follower) Run(ctx context.Context) {
	f.cfg.Server.SetPublishHook(f.label)
	f.lastRenew.Store(time.Now().UnixNano())
	attempt := 0
	peer := 0
	for ctx.Err() == nil {
		addr := f.cfg.Peers[peer%len(f.cfg.Peers)]
		d := net.Dialer{Timeout: f.leaseBound(f.cfg.DialTimeout)}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			delay := backoffDelay(attempt, f.cfg.RetryMin, f.cfg.RetryMax, rand.Float64())
			f.cfg.Logf("replica: dial %s: %v (next peer in %v)", addr, err, delay)
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
		if !sleepCtx(ctx, f.leaseBound(backoffDelay(attempt, f.cfg.RetryMin, f.cfg.RetryMax, rand.Float64()))) {
			return
		}
	}
}

// checkLease reports whether the primary lease has lapsed AND the expiry
// callback promoted this replica (Run must stop). Renewal bookkeeping is
// fault-gated at fault.SiteReplicaLeaseRenew, so chaos tests can starve the lease.
func (f *Follower) checkLease() bool {
	if f.cfg.Lease <= 0 || f.cfg.OnLeaseExpired == nil {
		return false
	}
	last := time.Unix(0, f.lastRenew.Load())
	if time.Since(last) < f.cfg.Lease {
		return false
	}
	f.cfg.Logf("replica: primary lease lapsed (last renewal %v ago, lease %v)", time.Since(last).Round(time.Millisecond), f.cfg.Lease)
	return f.cfg.OnLeaseExpired()
}

// renewLease stamps the primary as live now. Gated by the fault.SiteReplicaLeaseRenew
// fault site: an injected error suppresses the renewal, so the lease ages
// as if the primary had gone silent.
func (f *Follower) renewLease() {
	if fault.Point(fault.SiteReplicaLeaseRenew) != nil {
		return
	}
	f.lastRenew.Store(time.Now().UnixNano())
}

// leaseBound caps a dial timeout, read deadline or backoff sleep by the
// remaining primary lease, so a black-holed dial or wedged connection can
// never push the next lease-lapse check past the lease itself — failover
// latency tracks the configured lease, not lease + DialTimeout/PeerTimeout.
// A healthy stream is unaffected: frames keep the remaining lease pinned
// near its full length. Not lease-tracking members get d unchanged.
func (f *Follower) leaseBound(d time.Duration) time.Duration {
	if f.cfg.Lease <= 0 || f.cfg.OnLeaseExpired == nil {
		return d
	}
	rem := f.cfg.Lease - time.Since(time.Unix(0, f.lastRenew.Load()))
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

// ObserveEpoch raises the follower's highest-seen epoch to at least e. A
// demoting Member folds the epoch that fenced it back in before rejoining,
// so stale frames below it stay rejected and a later re-promotion seeds
// strictly above every epoch already consumed.
func (f *Follower) ObserveEpoch(e uint64) {
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
func (f *Follower) session(ctx context.Context, nc net.Conn, addr string) (applied bool) {
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()

	hello := make([]byte, 8, 8+len(f.cfg.Token))
	binary.LittleEndian.PutUint64(hello, f.schema)
	hello = append(hello, f.cfg.Token...)
	if !f.send(nc, FrameHello, f.gen.Load(), hello) {
		f.cfg.Logf("replica: hello to %s: write failed", addr)
		return false
	}
	f.connected.Store(true)
	f.cfg.Logf("replica: connected to primary %s at generation %d (epoch %d)", addr, f.gen.Load(), f.epoch.Load())

	// Heartbeats keep the primary's read deadline fed between acks. The
	// goroutine dies with the session: closing hbStop (deferred) or the
	// socket (on write error) ends it.
	hbStop := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		t := time.NewTicker(f.cfg.Heartbeat)
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
			f.cfg.Logf("replica: injected receive fault: %v", err)
			return applied
		}
		nc.SetReadDeadline(time.Now().Add(f.leaseBound(f.cfg.PeerTimeout)))
		fm, err := fr.Read()
		if err == ErrChecksum {
			// The frame was consumed whole; its bytes are untrusted and are
			// dropped without touching the model. Whatever generation it
			// carried is lost, so ask for a snapshot.
			f.corrupt.Add(1)
			f.cfg.Logf("replica: corrupt frame rejected, requesting resync at generation %d", f.gen.Load())
			if !f.send(nc, FrameResync, f.gen.Load(), nil) {
				return applied
			}
			continue
		}
		if err != nil {
			if ctx.Err() == nil {
				f.cfg.Logf("replica: stream from %s broke: %v", addr, err)
			}
			return applied
		}
		if ep := f.epoch.Load(); fm.Epoch < ep {
			// Stale-epoch frame: a deposed primary is still talking. Never
			// apply a byte of it — tell it the cluster has moved on and
			// walk away to the next peer.
			f.fencedFrames.Add(1)
			f.cfg.Logf("replica: fencing %s — %s frame from stale epoch %d (cluster is at %d)", addr, fm.Type, fm.Epoch, ep)
			f.send(nc, FrameFenced, f.gen.Load(), nil)
			return applied
		} else if fm.Epoch > ep {
			f.epoch.Store(fm.Epoch)
			f.cfg.Logf("replica: adopting primary epoch %d (was %d)", fm.Epoch, ep)
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
				f.cfg.Logf("replica: generation gap (have %d, delta builds on %d), requesting resync", f.gen.Load(), fm.Prev)
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
// (epoch, generation) by the label hook Run registered.
// This is the follower half of the apply→PublishDelta round trip whose
// steady state the AllocsPerRun conformance test pins at zero; the ready
// signalling and ack I/O live in applyAndAck so this body stays
// allocation-free.
//
// costlint:noalloc
func (f *Follower) applyFrame(fm Frame, full bool) error {
	start := time.Now()
	touched, err := ApplyModelPayload(f.cfg.Model, fm.Payload, full, f.touched)
	f.touched = touched
	if err != nil {
		return err
	}
	f.cfg.Model.PS.MarkParamsUpdated(touched)
	f.applyEpoch, f.applyGen = fm.Epoch, fm.Gen
	f.cfg.Server.PublishDelta(f.cfg.Model)
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
func (f *Follower) applyAndAck(nc net.Conn, fm Frame, full bool) bool {
	if err := f.applyFrame(fm, full); err != nil {
		f.cfg.Logf("replica: %s frame for generation %d failed to apply: %v", fm.Type, fm.Gen, err)
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
func (f *Follower) send(nc net.Conn, t FrameType, gen uint64, payload []byte) bool {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	nc.SetWriteDeadline(time.Now().Add(f.cfg.WriteTimeout))
	f.outBuf = AppendFrame(f.outBuf[:0], t, f.epoch.Load(), gen, 0, payload)
	_, err := nc.Write(f.outBuf)
	return err == nil
}

// label is the follower's publish hook: the coordinates of the frame
// applyFrame is publishing.
func (f *Follower) label(*core.Model, uint64) (epoch, gen uint64) {
	return f.applyEpoch, f.applyGen
}

// Generation returns the last applied and locally served generation.
func (f *Follower) Generation() uint64 { return f.gen.Load() }

// Epoch returns the highest primary epoch the follower has seen.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

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
func (f *Follower) Stats() FollowerStats {
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
