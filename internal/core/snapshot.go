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
// weights — depends on it. Every snapshot's weights live in a recyclable
// buffer set (see snapshotSlot): once a snapshot has been superseded AND has
// no in-flight server request reading it AND was never pinned, a later
// PublishDelta may reuse its buffers. Hold a snapshot past the next publish
// only after calling Pin (Server.Snapshot does).
type ModelSnapshot struct {
	version uint64
	model   *Model

	// refs counts in-flight server requests (and pre-warm replays) reading
	// this snapshot; the acquire/release protocol in Server keeps it exact.
	refs atomic.Int64
	// pinned marks a snapshot handed out for indefinite retention
	// (Server.Snapshot, ModelSnapshot.Pin): its buffers are never recycled.
	pinned atomic.Bool
	// slot is the recyclable buffer set backing the snapshot; nil once a
	// later publish has harvested it. Guarded by the server's publisher lock.
	slot *snapshotSlot
}

// Version returns the snapshot's publication version. Versions start at 1
// (NewServer's initial snapshot) and increase by one per publish; they
// double as the memory-pool generation for entries computed under this
// snapshot.
func (s *ModelSnapshot) Version() uint64 { return s.version }

// Model returns the snapshot's frozen model. Callers may evaluate it (its
// own Estimate/EstimateBatch, NewBatchSession, ValidationError) but must treat
// the weights as read-only; training against a snapshot model breaks the
// immutability every concurrent reader relies on. Call Pin first if the model
// will be used past the next publish.
func (s *ModelSnapshot) Model() *Model { return s.model }

// Pin marks the snapshot for indefinite retention: its weight buffers are
// excluded from publication recycling, so it stays frozen forever. Pinning is
// sticky and idempotent.
func (s *ModelSnapshot) Pin() { s.pinned.Store(true) }

// recyclable reports whether the snapshot's slot may be reused for a new
// publication: nobody pinned it and no request is mid-flight on it. Callers
// must already have retired it from serving (it is not the current snapshot).
func (s *ModelSnapshot) recyclable() bool {
	return s.slot != nil && !s.pinned.Load() && s.refs.Load() == 0
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
// publish. Pinned or still-referenced retirees drop out of the rotation and
// a fresh slot takes their place.
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
// reclaimable. Reclaimed and permanently unreclaimable (pinned) retirees
// leave the list; still-referenced ones stay for a later publish.
func (d *deltaPub) takeSlot() *snapshotSlot {
	var found *snapshotSlot
	kept := d.retired[:0]
	for _, snap := range d.retired {
		switch {
		case snap.pinned.Load(), snap.slot != nil && snap.slot.src != d.src:
			// Dropped: pinned retirees are frozen forever, and a slot
			// synced against a different source model carries stamps from
			// the wrong clock.
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
