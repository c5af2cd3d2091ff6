package core

import (
	"sync"
	"sync/atomic"

	"costest/internal/feature"
)

// Server is the hot-swap serving runtime: it binds the batch sessions and
// the representation memory pool to the current ModelSnapshot, re-resolving
// the snapshot pointer on every request. A long-lived optimizer process
// keeps one Server; a ParallelTrainer retrains the live model in place and
// calls PublishDelta between epochs, while concurrent EstimateBatchInto
// callers keep serving — requests in flight finish on the snapshot they
// started with, later requests pick up the new one, and no request ever
// observes torn weights.
//
// The memory pool is generation-tagged with the snapshot version, so a
// publish invalidates every pooled representation in O(1) (SetGeneration)
// instead of flushing the pool: entries from the old generation are
// rejected by new-generation lookups and evicted lazily. A publish starts no
// work of its own: the next request that needs a stale sub-plan recomputes it
// and offers it to the pool at the new generation.
//
// Sessions are recycled through an internal sync.Pool and lazily rebound to
// the current snapshot on checkout, so steady-state EstimateBatchInto does the
// same zero-allocation work as a session held directly against a fixed model.
// EstimateBatch allocates only its result slice (the session-owned slab
// cannot outlive the checkout), len(eps) Estimates per call.
type Server struct {
	cur  atomic.Pointer[ModelSnapshot]
	pool *MemoryPool

	// pubMu serializes publishers and makes each publication atomic: the
	// snapshot build, the pool-generation bump and the snapshot install
	// happen as one unit, so racing publishers can never interleave a
	// version install with an older generation bump. Readers are lock-free.
	pubMu sync.Mutex

	// delta is the publication state (created by NewServer, reset when the
	// source model changes); guarded by pubMu.
	delta *deltaPub

	// retiredHW is the high-water mark of the retired-snapshot drain list —
	// how many superseded snapshots have ever been awaiting drain at once.
	// Steady-state double buffering holds it at 1; growth means retirees
	// are not draining (long-held snapshots or requests stuck on old
	// versions) and each stuck retiree is a full weight-buffer set that cannot
	// be recycled. Guarded by pubMu.
	retiredHW int

	// refused counts publications PublishDelta refused for non-finite
	// values.
	refused atomic.Uint64

	// publishHook, when set, sees every publication with the source model
	// and the version about to be installed, and returns the snapshot's
	// replication coordinates. It is called under pubMu on the publishing
	// goroutine — i.e. with training quiesced, so the hook may read m's
	// parameter values and stamps exactly like the publication itself did.
	// This is the tap replication streams from: a replica.Publisher
	// registers here and serializes the dirty parameters of each
	// publication to its followers. Guarded by pubMu.
	publishHook func(m *Model, version uint64) (epoch, gen uint64)

	batchSessions sync.Pool

	// nodesPlaced and nodesShared accumulate every served call's in-batch
	// sharing counts (see SharingStats), fed by putSession.
	nodesPlaced, nodesShared atomic.Int64
}

// NewServer returns a server whose initial snapshot (version 1) copies m's
// current weights into the first buffer set of PublishDelta's rotation. The
// pool may be nil to serve without representation caching; a non-nil pool is
// owned by the server from here on — its generation tracks the published
// version.
func NewServer(m *Model, pool *MemoryPool) *Server {
	srv := &Server{pool: pool, delta: &deltaPub{src: m}}
	sl := newSlot(m)
	srv.delta.lastCopied = sl.sync(m)
	srv.install(&ModelSnapshot{version: 1, model: sl.model, slot: sl})
	return srv
}

// acquire checks the current snapshot out for one request. The reference
// count guarantees a publish never recycles the snapshot's buffers
// mid-request, and the load/ref/re-check loop closes the race with a
// publisher that retires the snapshot between the load and the ref — a
// reader that loses the race releases and retries, never touching the stale
// snapshot's weights.
func (srv *Server) acquire() *ModelSnapshot {
	for {
		s := srv.cur.Load()
		s.refs.Add(1)
		if srv.cur.Load() == s {
			return s
		}
		s.refs.Add(-1)
	}
}

// release returns a snapshot checked out by acquire.
func (srv *Server) release(s *ModelSnapshot) { s.refs.Add(-1) }

// AcquireSnapshot checks the current snapshot out with a reference held,
// exactly as a served request does: while held, the snapshot's weights are
// guaranteed frozen, however many publishes follow. The reference is returned
// with ReleaseSnapshot, at which point the buffers rejoin the recycling
// rotation — how the daemon's supervisor reads the served model for its gate
// and checkpoints. Serving never needs it: EstimateBatch and EstimateBatchInto
// each hold the current snapshot for the length of one call.
func (srv *Server) AcquireSnapshot() *ModelSnapshot { return srv.acquire() }

// ReleaseSnapshot returns a reference taken by AcquireSnapshot.
func (srv *Server) ReleaseSnapshot(s *ModelSnapshot) { srv.release(s) }

// Version returns the currently served snapshot version.
func (srv *Server) Version() uint64 { return srv.cur.Load().version }

// Pool returns the server's memory pool (nil when serving uncached).
func (srv *Server) Pool() *MemoryPool { return srv.pool }

// SetPublishHook installs h to see every subsequent publication with the
// source model and the version it will be served as. h returns the
// publication's replication coordinates, which PublishDelta stores in the
// snapshot (ModelSnapshot.Coordinates) before installing it, so no reader can
// see the snapshot unlabeled; (0, 0) leaves it unlabeled. The hook runs on the
// publishing goroutine under the publication lock — training is quiesced
// there, so h may read m's parameters the way the publication did — after
// the finite check and the weight copy, before the install: a replication
// follower may receive a publication before this server serves it. Install
// before publishing begins; pass nil to remove.
func (srv *Server) SetPublishHook(h func(m *Model, version uint64) (epoch, gen uint64)) {
	srv.pubMu.Lock()
	defer srv.pubMu.Unlock()
	srv.publishHook = h
}

// PublishDelta atomically installs m's current weights as the next snapshot
// and advances the pool generation, logically invalidating every pooled
// representation computed under older weights. Per-param dirty stamps
// (nn.ParamSet) tell it which parameters moved since the target buffer set
// was last synced, and only those are copied — between two publishes that
// trained a handful of parameters, publication cost drops from a full weight
// copy to the touched slice, making frequent publication affordable.
// Buffers double-buffer in steady state: the snapshot retired by the
// previous publish drains its in-flight requests and is re-synced by the
// next one. The returned snapshot is therefore only guaranteed frozen until
// two further publishes — hold it longer through AcquireSnapshot; served
// estimates are unaffected either way, since a buffer is never recycled while
// a reference is held on it.
//
// Publication is finite or refused: when a value it would copy is NaN or an
// infinity, PublishDelta copies and installs nothing, advances no
// generation, calls no hook, counts the refusal (PublishesRefused) and
// returns the current snapshot unchanged.
//
// The first PublishDelta for a new source model full-copies into a fresh
// buffer set; a full publication of the same model is
// nn.ParamSet.MarkAllUpdated followed by PublishDelta. The copy reads m on
// the calling goroutine: call from the goroutine that trains m (between
// optimizer steps), or with training otherwise quiesced. Concurrent serving
// needs no quiescing — that is the point. Dirty tracking covers Adam steps
// and a model payload applied with its touched parameters marked
// (LoadModel, a replication follower); code that writes parameter values
// directly must call nn.ParamSet.MarkAllUpdated first.
func (srv *Server) PublishDelta(m *Model) *ModelSnapshot {
	srv.pubMu.Lock()
	defer srv.pubMu.Unlock()
	if srv.delta.src != m {
		srv.delta = &deltaPub{src: m}
	}
	sl := srv.delta.takeSlot()
	if sl == nil {
		sl = newSlot(m)
	}
	if !sl.finite(m) {
		srv.refused.Add(1)
		return srv.cur.Load()
	}
	srv.delta.lastCopied = sl.sync(m)
	snap := &ModelSnapshot{version: srv.cur.Load().version + 1, model: sl.model, slot: sl}
	if srv.publishHook != nil {
		// The only write of a snapshot's coordinates: before install, so the
		// snapshot is labeled before any reader can acquire it.
		snap.epoch, snap.gen = srv.publishHook(m, snap.version)
	}
	srv.install(snap)
	return snap
}

// PublishesRefused reports how many publications PublishDelta refused
// because a value it would have copied was NaN or an infinity.
func (srv *Server) PublishesRefused() uint64 { return srv.refused.Load() }

// DrainStats reports the state of the retired-snapshot-slot drain list:
// Retired is the number of superseded snapshots currently awaiting drain
// (their weight buffers cannot be recycled until every reference held on them
// — an in-flight request, an AcquireSnapshot holder — is released),
// RetiredHighWater the most that have ever waited at once. Healthy
// steady-state publication double-buffers, so the high water sits at 1; a
// climbing mark is the observable symptom of references holding old versions
// alive.
type DrainStats struct {
	Retired          int
	RetiredHighWater int
}

// SnapshotDrainStats returns the server's current drain-list statistics.
func (srv *Server) SnapshotDrainStats() DrainStats {
	srv.pubMu.Lock()
	defer srv.pubMu.Unlock()
	return DrainStats{Retired: len(srv.delta.retired), RetiredHighWater: srv.retiredHW}
}

// install makes snap the served snapshot: generation bump first, then the
// snapshot store, so a snapshot is never observable before the pool accepts
// its generation; the retiring snapshot (if any) joins the drain list for
// buffer reuse. Caller holds pubMu (or owns srv exclusively, in NewServer).
func (srv *Server) install(snap *ModelSnapshot) {
	if srv.pool != nil {
		srv.pool.SetGeneration(snap.version)
	}
	prev := srv.cur.Load()
	srv.cur.Store(snap)
	if prev != nil {
		srv.delta.retired = append(srv.delta.retired, prev)
		if n := len(srv.delta.retired); n > srv.retiredHW {
			srv.retiredHW = n
		}
	}
}

// EstimateBatch serves a batch of plans against the current snapshot
// through the server's pool (see Model.EstimateBatch for the level-batched
// algorithm), returning one estimate per plan and the snapshot version that
// produced them. The whole batch is served by a single snapshot resolution,
// so every returned estimate belongs to the same version. The int argument
// is ignored — a batch runs on the caller's goroutine; it remains only for
// the benchmark's trace replay, and goes when ROADMAP 1.2 deletes that
// replay.
func (srv *Server) EstimateBatch(eps []*feature.EncodedPlan, _ int) ([]Estimate, uint64) {
	var out []Estimate
	if len(eps) > 0 {
		out = make([]Estimate, len(eps))
	}
	out, version, _, _ := srv.EstimateBatchInto(eps, out)
	return out, version
}

// EstimateBatchInto serves eps against the current snapshot, writing the
// estimates into caller-provided storage: out must have len(eps) elements
// and is returned filled, with the local version and the replication
// coordinates (ModelSnapshot.Coordinates) of the snapshot that answered. The
// snapshot is held for the call alone, so the batch is bit-identical to a
// single-threaded evaluation of that version even when a publish lands
// mid-batch; the hold is returned on every path, a panic in the batch
// included. The warm path performs zero heap allocations — each of the
// serving scheduler's run slots reuses one result buffer across batches,
// which is what keeps Submit→served round trips allocation-free in steady
// state.
//
// costlint:noalloc
func (srv *Server) EstimateBatchInto(eps []*feature.EncodedPlan, out []Estimate) (ests []Estimate, version, epoch, gen uint64) {
	snap := srv.acquire()
	defer srv.release(snap)
	epoch, gen = snap.Coordinates()
	if len(eps) == 0 {
		return out[:0], snap.version, epoch, gen
	}
	s := srv.batchSession(snap)
	copy(out, s.EstimateBatchWithPool(eps, srv.pool))
	s.releasePlans()
	srv.putSession(s)
	return out, snap.version, epoch, gen
}

// batchSession checks a recycled session out of the pool, rebinding it to
// snap when it last served a different version (one pointer store; the warm
// arenas carry over because all snapshots share a configuration).
func (srv *Server) batchSession(snap *ModelSnapshot) *BatchSession {
	if v := srv.batchSessions.Get(); v != nil {
		s := v.(*BatchSession)
		if s.poolGen != snap.version {
			s.Rebind(snap.model)
			s.poolGen = snap.version
		}
		return s
	}
	s := NewBatchSession(snap.model)
	s.poolGen = snap.version
	return s
}

// putSession returns a session checked out by batchSession, folding its last
// call's sharing counts into the server's.
//
// costlint:noalloc
func (srv *Server) putSession(s *BatchSession) {
	srv.nodesPlaced.Add(int64(s.placed))
	srv.nodesShared.Add(int64(s.shared))
	srv.batchSessions.Put(s)
}

// SharingStats is the in-batch half of sub-plan reuse, the half the pool's
// hit rate cannot show: of the plan nodes the served batches placed, how many
// repeated an earlier node of the same batch and were aliased to it instead of
// being looked up in the pool or evaluated. Nodes below an aliased or pooled
// node are never placed, so neither counter includes them.
type SharingStats struct {
	NodesPlaced int64
	NodesShared int64
}

// SharingStats returns the server's lifetime in-batch sharing counters.
func (srv *Server) SharingStats() SharingStats {
	return SharingStats{NodesPlaced: srv.nodesPlaced.Load(), NodesShared: srv.nodesShared.Load()}
}
