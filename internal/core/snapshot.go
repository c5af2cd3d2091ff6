package core

import (
	"fmt"
	"math"
	"sync/atomic"
)

// ModelSnapshot is an immutable, versioned copy of a model's weights and
// target normalizers — the unit of publication for hot-swap serving. A
// snapshot owns a private Model (its own ParamSet) that shares only the
// read-only feature encoder with the source, so the trainer can keep mutating
// its live weights while every goroutine holding the snapshot reads a frozen,
// torn-write-free view.
//
// Snapshots are created by NewServer (version 1) and Server.PublishDelta and
// are never mutated while reachable: the serving invariant — any estimate
// served at version V is bit-identical to a single-threaded evaluation of V's
// weights — depends on it. A snapshot also names itself to the cluster: its
// replication coordinates (see Coordinates) are written by PublishDelta
// before the snapshot becomes visible and travel with it for as long as
// anyone holds it. Every snapshot's weights live in a recyclable buffer set
// (see snapshotSlot): once a snapshot has been superseded AND has no
// reference held on it, a later PublishDelta may reuse its buffers. Hold a
// snapshot past the next publish only through Server.AcquireSnapshot, until
// Server.ReleaseSnapshot.
type ModelSnapshot struct {
	version uint64
	model   *Model
	// epoch and gen are the replication coordinates the publish hook returned
	// for this snapshot; both zero when it was not replicated.
	epoch, gen uint64

	// refs counts the references held on this snapshot — in-flight server
	// requests, pre-warm replays, AcquireSnapshot holders; the acquire/release
	// protocol in Server keeps it exact.
	refs atomic.Int64
	// slot is the recyclable buffer set backing the snapshot; nil once a
	// later publish has harvested it. Guarded by the server's publisher lock.
	slot *snapshotSlot
}

// Version returns the snapshot's publication version. Versions start at 1
// (NewServer's initial snapshot) and increase by one per publish; they
// double as the memory-pool generation for entries computed under this
// snapshot.
func (s *ModelSnapshot) Version() uint64 { return s.version }

// Coordinates returns the cluster-wide (epoch, generation) this snapshot
// serves under: two snapshots with the same non-zero coordinates hold the same
// weights, whichever process serves them. Zero means not replicated — no
// publish hook labeled it (a daemon that does not replicate, NewServer's
// version 1, or a publication a fenced publisher refused to stream).
func (s *ModelSnapshot) Coordinates() (epoch, gen uint64) { return s.epoch, s.gen }

// Model returns the snapshot's frozen model. Callers may evaluate it (its
// own Estimate/EstimateBatch, NewBatchSession, ValidationError) but must treat
// the weights as read-only; training against a snapshot model breaks the
// immutability every concurrent reader relies on. The weights stay frozen
// only while a reference is held (Server.AcquireSnapshot).
func (s *ModelSnapshot) Model() *Model { return s.model }

// recyclable reports whether the snapshot's slot may be reused for a new
// publication: no reference is held on it. Callers must already have retired
// it from serving (it is not the current snapshot).
func (s *ModelSnapshot) recyclable() bool {
	return s.slot != nil && s.refs.Load() == 0
}

// snapshotSlot is one recyclable weight-buffer set for delta publication: a
// snapshot model plus, per parameter, the source-ParamSet stamp its copy of
// that parameter reflects. Syncing a slot copies only the parameters whose
// live stamp moved past the slot's recorded stamp — everything the slot
// already holds from its previous turn in the rotation is kept as is.
//
// A server in steady-state publication rotates exactly two slots (double
// buffering): the slot serving as the current snapshot and the slot
// retired one publish ago, which drains and is re-synced by the next
// publish. A still-referenced retiree sits out the rotation until its last
// reference goes, and a fresh slot takes its place meanwhile.
type snapshotSlot struct {
	// src is the live model whose stamps this slot's records refer to; a
	// slot is only ever re-synced against its own source (stamps from a
	// different model's clock would make the delta comparison meaningless).
	src   *Model
	model *Model
	// stamps[i] is src.PS.Params()[i].Stamp() at this slot's last sync;
	// zero-valued for a fresh slot, which therefore full-copies (live
	// stamps are always >= 1, parameters are stamped at registration).
	stamps []uint64
}

// newSlot builds an unsynced slot for src.
func newSlot(src *Model) *snapshotSlot {
	return &snapshotSlot{
		src:    src,
		model:  New(src.Cfg, src.Enc),
		stamps: make([]uint64, len(src.PS.Params())),
	}
}

// finite reports whether every value sync would copy from src is neither NaN
// nor an infinity: the normalizers, and each parameter whose stamp advanced
// past the slot's record.
func (sl *snapshotSlot) finite(src *Model) bool { return src.checkFinite(sl.stamps) == nil }

// CheckFinite returns an error naming the first NaN or infinite value among
// m's normalizers and parameters — everything a full publication copies. It
// is the scan PublishDelta refuses a publication on.
func (m *Model) CheckFinite() error { return m.checkFinite(nil) }

// checkFinite scans the normalizers and each parameter whose stamp is above
// its entry in since (every parameter when since is nil).
func (m *Model) checkFinite(since []uint64) error {
	for _, v := range [...]float64{m.CostNorm.MinLog, m.CostNorm.MaxLog, m.CardNorm.MinLog, m.CardNorm.MaxLog} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite normalizer bound %v", v)
		}
	}
	for i, p := range m.PS.Params() {
		if since != nil && p.Stamp() <= since[i] {
			continue
		}
		for _, v := range p.Value {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: parameter %q holds non-finite value %v", p.Name, v)
			}
		}
	}
	return nil
}

// sync brings the slot's weights up to date with src, copying only the
// parameters whose stamp advanced past the slot's record, and returns how
// many parameters were copied. Normalizers are two scalars and copy
// unconditionally. sync reads src on the caller's goroutine with training
// quiesced.
func (sl *snapshotSlot) sync(src *Model) int {
	if src != sl.src {
		panic("core: slot re-synced against a different source model")
	}
	sp, dp := src.PS.Params(), sl.model.PS.Params()
	if len(sp) != len(dp) || len(sp) != len(sl.stamps) {
		panic(fmt.Sprintf("core: slot parameter count mismatch: %d vs %d (stamps %d)",
			len(sp), len(dp), len(sl.stamps)))
	}
	copied := 0
	for i := range sp {
		if sp[i].Name != dp[i].Name {
			panic(fmt.Sprintf("core: slot parameter order mismatch: %q vs %q", sp[i].Name, dp[i].Name))
		}
		if st := sp[i].Stamp(); st > sl.stamps[i] {
			copy(dp[i].Value, sp[i].Value)
			sl.stamps[i] = st
			copied++
		}
	}
	sl.model.CostNorm, sl.model.CardNorm = src.CostNorm, src.CardNorm
	return copied
}

// deltaPub is a Server's publication state for one source model: retired
// snapshots awaiting drain (oldest first) and the count of parameters
// copied by the last sync (observable for tests and metrics).
type deltaPub struct {
	src        *Model
	retired    []*ModelSnapshot
	lastCopied int
}

// takeSlot returns a drained retired slot for reuse, or nil if none is
// reclaimable. Reclaimed retirees leave the list; still-referenced ones stay
// for a later publish.
func (d *deltaPub) takeSlot() *snapshotSlot {
	var found *snapshotSlot
	kept := d.retired[:0]
	for _, snap := range d.retired {
		switch {
		case snap.slot != nil && snap.slot.src != d.src:
			// Dropped: a slot synced against a different source model
			// carries stamps from the wrong clock.
		case found == nil && snap.recyclable():
			found = snap.slot
			snap.slot = nil // the snapshot object no longer owns the buffers
		default:
			kept = append(kept, snap)
		}
	}
	d.retired = kept
	return found
}
