package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/feature"
)

// supervisor owns the daemon's continuous retrain loop and keeps it from
// hurting the serving path. Three protections stack:
//
//   - Containment: each retrain cycle runs under panic recovery, through the
//     "daemon.retrain" fault hook. A crashing cycle costs that cycle, never
//     the process; repeated failures restart with exponential backoff plus
//     jitter (capped), so a persistently broken trainer degrades to a quiet
//     periodic retry instead of a crash loop.
//   - Gated publish: a freshly trained model is validated on a held-out
//     slice before PublishDelta. A cost Q-error regression beyond GateSlack
//     of the last published model's is skipped and logged — serving keeps
//     the better model; training continues and may recover by the next
//     cycle. This is the rollback: the bad weights simply never reach the
//     serving path. A non-finite training loss or validation Q-error is not
//     a regression to weigh but a failed cycle, whatever GateSlack says.
//   - Crash-safe checkpoints: every published model is saved through
//     core.SaveCheckpoint (write-fsync-rename, .prev kept), so a kill at any
//     instant leaves a cold-loadable last-good file.
//
// One supervisor serves every primary term of its process: a boot primary
// runs it once, a cluster member runs it on each promotion (as
// replica.MemberConfig.Primary). Each run is one term with a fresh trainer
// and a fresh gate baseline; the counters span all terms.
type supervisor struct {
	srv    *core.Server
	model  *core.Model
	shards int
	train  []*feature.EncodedPlan
	valid  []*feature.EncodedPlan

	// Interval between cycle starts; failures wait nextBackoff instead.
	Interval time.Duration
	// GateSlack is the allowed relative validation regression: a candidate
	// publishes only while candQ <= pubQ*(1+GateSlack). Negative disables
	// the gate (every cycle publishes).
	GateSlack float64
	// CheckpointPath, when set, receives a crash-safe checkpoint of every
	// published model.
	CheckpointPath string
	// BackoffBase/BackoffMax bound the failure backoff (defaulted in run).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// onPublish, when set, observes every published snapshot version (test
	// hook; chaos tests pin expected versions with it).
	onPublish func(version uint64)
	logf      func(format string, args ...any)
	rng       *rand.Rand

	// pubQBits is the published model's validation cost Q-error (float64
	// bits — /statsz reads it concurrently with the loop writing it).
	pubQBits atomic.Uint64

	cycles, panics, publishes atomic.Uint64
	gateSkipped, failures     atomic.Uint64
	checkpoints, ckptErrors   atomic.Uint64
	backoffNanos              atomic.Int64
}

// newSupervisor builds a supervisor that retrains model (the live model
// srv publishes from) with shards-wide trainers, splitting eps 4:1 into
// train/held-out validation.
func newSupervisor(srv *core.Server, model *core.Model, shards int, eps []*feature.EncodedPlan, seed int64) *supervisor {
	cut := len(eps) * 4 / 5
	if cut < 1 {
		cut = len(eps)
	}
	return &supervisor{
		srv:    srv,
		model:  model,
		shards: shards,
		train:  eps[:cut],
		valid:  eps[cut:],
		logf:   func(format string, args ...any) {},
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// pubQ returns the publish gate's current baseline Q-error.
func (sv *supervisor) pubQ() float64 { return math.Float64frombits(sv.pubQBits.Load()) }

// run is one primary term's supervision loop: it builds the term's trainer,
// anchors the publish gate at the served model's validation error, then runs
// retrain cycles at Interval while healthy, exponential backoff with jitter
// after failures, until ctx ends. It never returns early — a supervisor
// outlives every injected fault.
func (sv *supervisor) run(ctx context.Context) {
	if sv.BackoffBase <= 0 {
		sv.BackoffBase = 500 * time.Millisecond
	}
	if sv.BackoffMax <= 0 {
		sv.BackoffMax = 30 * time.Second
	}
	tr := core.NewParallelTrainer(sv.model, sv.shards)
	defer tr.Close()
	snap := sv.srv.AcquireSnapshot()
	vc, _ := snap.Model().ValidationError(sv.valid)
	sv.srv.ReleaseSnapshot(snap)
	sv.pubQBits.Store(math.Float64bits(vc))

	var backoff time.Duration
	timer := time.NewTimer(sv.Interval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if err := sv.cycle(ctx, tr); err != nil {
			sv.failures.Add(1)
			backoff = sv.nextBackoff(backoff)
			sv.backoffNanos.Store(int64(backoff))
			sv.logf("costestd: retrain cycle failed: %v (restarting in %v)", err, backoff.Round(time.Millisecond))
			timer.Reset(backoff)
			continue
		}
		if backoff > 0 {
			sv.logf("costestd: retrain recovered after backoff")
		}
		backoff = 0
		sv.backoffNanos.Store(0)
		timer.Reset(sv.Interval)
	}
}

// cycle runs one contained retrain attempt with tr: train an epoch,
// validate, gate, publish, checkpoint. Panics become errors — the caller's
// backoff handles them like any other failure. A cycle whose ctx ended
// before it could publish (the daemon drains, or a promoted member was
// fenced) publishes nothing.
func (sv *supervisor) cycle(ctx context.Context, tr *core.ParallelTrainer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			sv.panics.Add(1)
			err = fmt.Errorf("retrain panic: %v", p)
		}
	}()
	sv.cycles.Add(1)
	if err := fault.Point(fault.SiteDaemonRetrain); err != nil {
		return err
	}
	loss := tr.TrainEpochParallel(sv.train, 16)

	// Publish gate: validate the candidate on the held-out slice against the
	// published baseline before it can reach the serving path. NaN compares
	// false against everything, so non-finite candidates are refused before
	// the comparison, gate on or off: publishing one would serve NaN and
	// poison the baseline (and, on a primary, every follower).
	candQ, candCardQ := sv.model.ValidationError(sv.valid)
	if !isFinite(loss) || !isFinite(candQ) || !isFinite(candCardQ) {
		return fmt.Errorf("non-finite candidate (loss %v, valid q-error cost %v card %v), keeping served model",
			loss, candQ, candCardQ)
	}
	if pub := sv.pubQ(); sv.GateSlack >= 0 && pub > 0 && candQ > pub*(1+sv.GateSlack) {
		sv.gateSkipped.Add(1)
		sv.logf("costestd: publish gated: candidate q-error %.3f vs published %.3f (slack %.0f%%), keeping served model",
			candQ, pub, sv.GateSlack*100)
		return nil
	}
	if ctx.Err() != nil {
		sv.logf("costestd: primary term ended mid-cycle, candidate not published")
		return nil
	}

	prev := sv.srv.Version()
	snap := sv.srv.PublishDelta(sv.model)
	if snap.Version() == prev {
		return fmt.Errorf("publication refused (non-finite weights), keeping served model")
	}
	sv.publishes.Add(1)
	sv.pubQBits.Store(math.Float64bits(candQ))
	if sv.onPublish != nil {
		sv.onPublish(snap.Version())
	}
	sv.logf("costestd: retrained (loss %.3f, valid q-error %.3f) -> published v%d", loss, candQ, snap.Version())

	if sv.CheckpointPath != "" {
		sv.checkpoint()
	}
	return nil
}

// isFinite reports whether x is neither NaN nor an infinity.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkpoint saves the just-published model crash-safely. The snapshot the
// publish produced is recyclable, so the save reads from a freshly acquired
// reference — the exact published weights, protected from
// recycling for the duration. A failed save is counted and logged, never
// fatal: the previous checkpoint is still intact by SaveCheckpoint's
// contract.
func (sv *supervisor) checkpoint() {
	ck := sv.srv.AcquireSnapshot()
	err := core.SaveCheckpoint(sv.CheckpointPath, ck.Model())
	sv.srv.ReleaseSnapshot(ck)
	if err != nil {
		sv.ckptErrors.Add(1)
		sv.logf("costestd: checkpoint failed (last-good kept): %v", err)
		return
	}
	sv.checkpoints.Add(1)
	sv.logf("costestd: checkpointed v%d to %s", ck.Version(), sv.CheckpointPath)
}

// nextBackoff doubles the restart delay within [BackoffBase, BackoffMax] and
// jitters it into [next/2, next) so a fleet of daemons tripped by the same
// fault does not retrain in lockstep.
func (sv *supervisor) nextBackoff(cur time.Duration) time.Duration {
	next := cur * 2
	if next < sv.BackoffBase {
		next = sv.BackoffBase
	}
	if next > sv.BackoffMax {
		next = sv.BackoffMax
	}
	half := next / 2
	return half + time.Duration(sv.rng.Int63n(int64(half)+1))
}

// supervisorStats is the /statsz "supervisor" block.
type supervisorStats struct {
	Cycles           uint64  `json:"cycles"`
	Failures         uint64  `json:"failures"`
	Panics           uint64  `json:"panics"`
	Publishes        uint64  `json:"publishes"`
	GateSkipped      uint64  `json:"gate_skipped"`
	Checkpoints      uint64  `json:"checkpoints"`
	CheckpointErrors uint64  `json:"checkpoint_errors"`
	PublishedQError  float64 `json:"published_q_error"`
	BackoffMS        int64   `json:"backoff_ms"`
}

// stats snapshots the supervisor's counters (the Service.SupervisorStats
// hook).
func (sv *supervisor) stats() any {
	return supervisorStats{
		Cycles:           sv.cycles.Load(),
		Failures:         sv.failures.Load(),
		Panics:           sv.panics.Load(),
		Publishes:        sv.publishes.Load(),
		GateSkipped:      sv.gateSkipped.Load(),
		Checkpoints:      sv.checkpoints.Load(),
		CheckpointErrors: sv.ckptErrors.Load(),
		PublishedQError:  sv.pubQ(),
		BackoffMS:        sv.backoffNanos.Load() / int64(time.Millisecond),
	}
}
