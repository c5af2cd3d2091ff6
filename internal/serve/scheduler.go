// Package serve is the networked serving runtime: it fronts a core.Server
// with a work-conserving batching scheduler and an HTTP API (cmd/costestd is
// the daemon around it). Concurrent requests fan into one bounded queue and
// a dispatcher serves whatever queued while the previous batch ran as one
// EstimateBatch call — a lone request is never delayed, batches grow with
// load — while the robustness contract does the real work:
//
//   - Admission control: the queue is bounded and Submit never blocks on a
//     full queue; overload is an immediate ErrOverloaded (HTTP 503 +
//     Retry-After), not unbounded growth.
//   - Admitted means answered: every request that enters the queue receives
//     exactly one response, even across dispatcher panics and shutdown.
//   - Deadlines propagate: a request whose context expires while queued is
//     answered with its context error before batch dispatch — never silently
//     served late.
//   - Graceful drain: Close stops admissions, flushes everything already
//     admitted (concurrent publishes included), then returns.
//   - Degraded beats down: a circuit breaker on consecutive batch failures
//     trips the dispatcher into a fallback path serving single-plan
//     estimates from the last-known-good snapshot (flagged degraded), with
//     half-open probing to recover — an estimator that starts failing turns
//     into stale-but-correct answers, not an outage.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/feature"
)

// Admission errors. Handlers map both to HTTP 503 with a Retry-After hint;
// clients should back off and retry elsewhere or later.
var (
	// ErrOverloaded reports a full admission queue.
	ErrOverloaded = errors.New("serve: queue full, request rejected")
	// ErrDraining reports a scheduler that has stopped admitting (shutdown).
	ErrDraining = errors.New("serve: draining, not admitting requests")
)

// SchedulerConfig tunes the micro-batching scheduler.
type SchedulerConfig struct {
	// QueueDepth bounds the admission queue; a full queue rejects instead of
	// growing. <= 0 defaults to 256.
	QueueDepth int
	// MaxBatch caps how many requests one EstimateBatch call serves.
	// <= 0 defaults to 64.
	MaxBatch int
	// Workers is passed to Server.EstimateBatch (<= 0 means GOMAXPROCS).
	Workers int
	// BreakerFailures is how many consecutive batch failures (estimator
	// errors or panics) trip the circuit breaker into degraded serving.
	// <= 0 defaults to 3.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker serves pure fallback
	// before a half-open probe retries the primary path. 0 defaults to
	// 250ms; negative probes on every batch (useful in tests).
	BreakerCooldown time.Duration
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	return c
}

// Result is one served estimate and the snapshot version that produced it.
// Degraded marks an estimate served by the circuit breaker's fallback path:
// still bit-identical to its reported (last-known-good) version, but not the
// freshest published model and not micro-batched.
type Result struct {
	Cost     float64
	Card     float64
	Version  uint64
	Degraded bool
}

// response is the dispatcher's answer to one request.
type response struct {
	res Result
	err error
}

// request is one admitted estimate waiting for dispatch. done is buffered so
// the dispatcher can always complete a request without blocking on its
// waiter. Requests are pooled: the admission contract (exactly one response
// per admitted request, received by its submitter) guarantees done is empty
// again by the time a request is recycled.
type request struct {
	ctx  context.Context
	ep   *feature.EncodedPlan
	done chan response
}

// SchedulerStats is a point-in-time counter snapshot.
type SchedulerStats struct {
	// Admission outcomes.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"` // queue full at admission
	Drained  uint64 `json:"drained"`  // rejected because draining
	// Dispatch outcomes (admitted = served + expired + failed once idle).
	Served  uint64 `json:"served"`
	Expired uint64 `json:"expired"` // context expired before batch dispatch
	Failed  uint64 `json:"failed"`  // answered with an estimator error
	Panics  uint64 `json:"panics"`  // dispatcher panics survived
	// Coalescing.
	Batches        uint64  `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	MeanBatchUS    float64 `json:"mean_batch_us"` // mean primary-path service time per batch
	QueueHighWater int     `json:"queue_high_water"`
	QueueDepth     int     `json:"queue_depth"`
	// Circuit breaker / degraded serving.
	BreakerOpen     bool   `json:"breaker_open"`
	BreakerTrips    uint64 `json:"breaker_trips"`
	BreakerProbes   uint64 `json:"breaker_probes"` // half-open probes attempted
	Degraded        uint64 `json:"degraded"`       // requests served from the fallback snapshot
	FallbackVersion uint64 `json:"fallback_version"`
}

// Scheduler is the micro-batching front end over a core.Server. Create with
// NewScheduler, start the dispatcher with Start, stop with Close.
type Scheduler struct {
	srv *core.Server
	cfg SchedulerConfig

	// queue is the bounded fan-in channel decoupling producers from the
	// dispatcher. Admission sends are non-blocking; the dispatcher is the
	// only receiver.
	queue chan *request

	// admitMu linearizes admission against Close: Submit sends while holding
	// the read side, Close flips draining and closes the queue under the
	// write side, so no send can race the close and every request admitted
	// before the drain decision is in the queue when the dispatcher flushes.
	admitMu  sync.RWMutex
	draining bool

	wg sync.WaitGroup

	admitted, rejected, drained  atomic.Uint64
	served, expired, failed      atomic.Uint64
	panics, batches, batchedReqs atomic.Uint64
	busyNanos                    atomic.Int64 // time spent inside primary-path batches
	queueHW                      atomic.Int64

	// Circuit-breaker state. consecFails, good and lastTrip are
	// dispatcher-owned (single goroutine); the atomics mirror what probes
	// and Stats read concurrently.
	consecFails    int
	good           *core.ModelSnapshot // last-known-good, reference held
	lastTrip       time.Time
	brkOpen        atomic.Bool
	trips, probes  atomic.Uint64
	degradedServed atomic.Uint64
	goodVersion    atomic.Uint64
	// now is the breaker's clock (tests substitute a fake one).
	now func() time.Time

	// dispatcher-owned scratch (single goroutine, reused across batches).
	batch []*request
	live  []*request
	eps   []*feature.EncodedPlan
	res   []core.Estimate

	// reqPool recycles request objects (each with its 1-buffered done
	// channel) across Submit calls, keeping the admit and reject warm paths
	// allocation-free under steady load.
	reqPool sync.Pool
}

// NewScheduler builds a scheduler over srv. Call Start before Submit;
// requests submitted to an unstarted scheduler queue up (and are rejected
// once the queue fills) but are not dispatched.
func NewScheduler(srv *core.Server, cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		srv:   srv,
		cfg:   cfg,
		queue: make(chan *request, cfg.QueueDepth),
		batch: make([]*request, 0, cfg.MaxBatch),
		live:  make([]*request, 0, cfg.MaxBatch),
		eps:   make([]*feature.EncodedPlan, 0, cfg.MaxBatch),
		res:   make([]core.Estimate, cfg.MaxBatch),
		now:   time.Now,
	}
	s.reqPool.New = func() any {
		return &request{done: make(chan response, 1)}
	}
	return s
}

// Start launches the dispatcher goroutine. Start once; Close stops it.
func (s *Scheduler) Start() {
	s.wg.Add(1)
	go s.dispatch()
}

// Submit admits one plan for batched estimation and blocks until its batch
// is served (or its admission is refused). The contract:
//
//   - A full queue returns ErrOverloaded immediately — Submit never blocks
//     on admission, so overload backpressure reaches callers at once.
//   - After Close has begun draining, Submit returns ErrDraining.
//   - An admitted request always gets exactly one answer. If ctx expires
//     before its batch dispatches, that answer is ctx's error; an admitted
//     request is never silently served late or dropped.
//
// costlint:noalloc
func (s *Scheduler) Submit(ctx context.Context, ep *feature.EncodedPlan) (Result, error) {
	r := s.reqPool.Get().(*request)
	r.ctx, r.ep = ctx, ep
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		s.drained.Add(1)
		s.putRequest(r)
		return Result{}, ErrDraining
	}
	select {
	case s.queue <- r:
	default:
		s.admitMu.RUnlock()
		s.rejected.Add(1)
		s.putRequest(r)
		return Result{}, ErrOverloaded
	}
	s.admitMu.RUnlock()
	s.admitted.Add(1)
	if d := int64(len(s.queue)); d > s.queueHW.Load() {
		// Racy high-water update is fine: the mark is a diagnostic floor.
		s.queueHW.Store(d)
	}
	// Admitted: the dispatcher owns the request now and is guaranteed to
	// answer (drain contract), so waiting on done alone cannot hang. Once the
	// response is in hand the dispatcher is done with the request, so it can
	// be recycled here.
	resp := <-r.done
	s.putRequest(r)
	return resp.res, resp.err
}

// putRequest recycles a request whose done channel is known empty (never
// admitted, or admitted and already answered). References are cleared so a
// pooled request does not retain its caller's context or plan.
//
// costlint:noalloc
func (s *Scheduler) putRequest(r *request) {
	r.ctx, r.ep = nil, nil
	s.reqPool.Put(r)
}

// Close drains the scheduler: admission stops (Submit returns ErrDraining),
// everything already admitted is flushed through the dispatcher, and Close
// returns once the last response has been delivered. Safe to call once;
// subsequent Submits keep failing fast.
func (s *Scheduler) Close() {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue) // no sender can be in flight: sends hold admitMu.RLock
	s.admitMu.Unlock()
	s.wg.Wait()
}

// Draining reports whether Close has begun: once true, Submit fails fast
// with ErrDraining (readiness probes flip unready on it).
func (s *Scheduler) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	st := SchedulerStats{
		Admitted:        s.admitted.Load(),
		Rejected:        s.rejected.Load(),
		Drained:         s.drained.Load(),
		Served:          s.served.Load(),
		Expired:         s.expired.Load(),
		Failed:          s.failed.Load(),
		Panics:          s.panics.Load(),
		Batches:         s.batches.Load(),
		QueueHighWater:  int(s.queueHW.Load()),
		QueueDepth:      len(s.queue),
		BreakerOpen:     s.brkOpen.Load(),
		BreakerTrips:    s.trips.Load(),
		BreakerProbes:   s.probes.Load(),
		Degraded:        s.degradedServed.Load(),
		FallbackVersion: s.goodVersion.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.batchedReqs.Load()) / float64(st.Batches)
		st.MeanBatchUS = float64(s.busyNanos.Load()) / float64(st.Batches) / float64(time.Microsecond)
	}
	return st
}

// Degraded reports whether the circuit breaker is open — the scheduler is
// answering from the last-known-good snapshot instead of the primary batch
// path. Readiness probes use it to report "degraded" distinctly from
// "draining": a degraded daemon still answers.
func (s *Scheduler) Degraded() bool { return s.brkOpen.Load() }

// RetryAfterHint estimates how long a rejected client should wait before
// retrying: the time for the dispatcher to drain everything currently queued
// — depth/MaxBatch + 1 batches at the measured mean batch time /statsz
// reports. HTTP 503s derive their Retry-After from this instead of a
// constant, so the hint scales with how backed up (and how slow) the daemon
// actually is; before the first batch there is nothing measured and it is 0.
func (s *Scheduler) RetryAfterHint() time.Duration {
	st := s.Stats()
	batches := st.QueueDepth/s.cfg.MaxBatch + 1
	return time.Duration(float64(batches) * st.MeanBatchUS * float64(time.Microsecond))
}

// dispatch is the single consumer: it blocks for a batch's first request,
// takes whatever else is already queued (up to MaxBatch), and serves the
// batch with one EstimateBatch call. A closed queue (Close) drains naturally:
// buffered requests keep arriving until the channel reports empty-and-closed,
// and every one of them is answered before the goroutine exits.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	defer s.releaseGood()
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		s.batch = append(s.batch[:0], first)
		s.coalesce()
		s.runBatch(s.batch)
	}
}

// rotateGood makes snap the breaker's last-known-good fallback snapshot,
// taking ownership of the caller's acquired reference. The previous holder's
// reference is released, so at most one superseded snapshot is ever kept
// alive by the breaker — its buffers rejoin the delta-publication rotation
// the moment a newer batch succeeds.
func (s *Scheduler) rotateGood(snap *core.ModelSnapshot) {
	if s.good == snap {
		s.srv.ReleaseSnapshot(snap) // same snapshot: drop the duplicate ref
		return
	}
	if s.good != nil {
		s.srv.ReleaseSnapshot(s.good)
	}
	s.good = snap
	s.goodVersion.Store(snap.Version())
}

// releaseGood drops the fallback retention when the dispatcher exits.
func (s *Scheduler) releaseGood() {
	if s.good != nil {
		s.srv.ReleaseSnapshot(s.good)
		s.good = nil
	}
}

// coalesce fills the current batch with whatever queued while the previous
// batch was being served, without waiting: an idle dispatcher serves a lone
// request at once, a busy one finds a backlog and batches it.
func (s *Scheduler) coalesce() {
	for len(s.batch) < s.cfg.MaxBatch {
		select {
		case r, ok := <-s.queue:
			if !ok {
				return
			}
			s.batch = append(s.batch, r)
		default:
			return
		}
	}
}

// runBatch answers every request in the batch: expired ones with their
// context error before dispatch, the rest from one EstimateBatch call (or
// the batch's failure, if the estimator errored — a panic fails only this
// batch's requests, never the dispatcher). The circuit breaker wraps the
// primary call:
//
//   - closed: batches run normally; each failure increments a consecutive
//     counter, and hitting BreakerFailures trips the breaker open.
//   - open, inside BreakerCooldown: the primary path is not even tried —
//     every request is answered from the last-known-good snapshot, one
//     single-plan Estimate each, flagged degraded.
//   - open, cooldown elapsed: the batch is a half-open probe through the
//     primary path. Success closes the breaker; failure re-arms the
//     cooldown and the batch falls back to degraded answers.
//
// A failing batch with no fallback yet (no batch ever succeeded) is
// answered with its error — there is nothing stale-but-correct to serve.
func (s *Scheduler) runBatch(batch []*request) {
	s.live, s.eps = s.live[:0], s.eps[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			s.expired.Add(1)
			r.done <- response{err: fmt.Errorf("serve: request expired before dispatch: %w", err)}
			continue
		}
		s.live = append(s.live, r)
		s.eps = append(s.eps, r.ep)
	}
	if len(s.live) == 0 {
		return
	}

	probing := false
	if s.brkOpen.Load() {
		if s.now().Sub(s.lastTrip) < s.cfg.BreakerCooldown {
			s.serveDegraded(s.live)
			return
		}
		probing = true
		s.probes.Add(1)
	}

	start := time.Now()
	ests, snap, err := s.estimateBatch(s.eps)
	s.busyNanos.Add(int64(time.Since(start)))
	s.batches.Add(1)
	s.batchedReqs.Add(uint64(len(s.live)))
	if err != nil {
		s.consecFails++
		if probing {
			s.lastTrip = s.now() // probe failed: re-arm the cooldown
		} else if s.consecFails >= s.cfg.BreakerFailures && !s.brkOpen.Load() {
			s.lastTrip = s.now()
			s.trips.Add(1)
			s.brkOpen.Store(true)
		}
		if s.brkOpen.Load() && s.good != nil {
			s.serveDegraded(s.live)
			return
		}
		for _, r := range s.live {
			s.failed.Add(1)
			r.done <- response{err: err}
		}
		return
	}

	// Success: reset the breaker and retain this exact snapshot as the new
	// last-known-good fallback.
	s.consecFails = 0
	if s.brkOpen.Load() {
		s.brkOpen.Store(false)
	}
	version := snap.Version()
	s.rotateGood(snap)
	for i, r := range s.live {
		s.served.Add(1)
		r.done <- response{res: Result{Cost: ests[i].Cost, Card: ests[i].Card, Version: version}}
	}
}

// estimateBatch runs one batch through the primary path against an acquired
// snapshot, returning the snapshot (still acquired — ownership passes to the
// caller) on success. Panic recovery keeps one poisoned plan from taking the
// dispatcher (and with it every future request) down; the "serve.batch"
// fault hook is where chaos tests inject estimator failures.
func (s *Scheduler) estimateBatch(eps []*feature.EncodedPlan) (ests []core.Estimate, snap *core.ModelSnapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			if snap != nil {
				s.srv.ReleaseSnapshot(snap)
			}
			s.panics.Add(1)
			ests, snap, err = nil, nil, fmt.Errorf("serve: estimator panic: %v", p)
		}
	}()
	if err := fault.Point(fault.SiteServeBatch); err != nil {
		return nil, nil, err
	}
	snap = s.srv.AcquireSnapshot()
	// The dispatcher owns s.res (single goroutine) and every response is
	// copied out before the next batch reuses it, so writing estimates into
	// the shared scratch keeps the steady-state serve path allocation-free.
	ests = s.srv.EstimateBatchInto(snap, eps, s.res[:len(eps)], s.cfg.Workers)
	return ests, snap, nil
}

// serveDegraded answers every live request from the last-known-good
// snapshot: one single-plan Estimate each against the retained snapshot's
// frozen weights — no batching, no pool, nothing shared with the failing
// primary path — flagged degraded and stamped with the fallback version, so
// each answer is still bit-identical to a single-threaded evaluation of the
// version it reports.
func (s *Scheduler) serveDegraded(live []*request) {
	for _, r := range live {
		res, err := s.fallbackOne(r.ep)
		if err != nil {
			s.failed.Add(1)
			r.done <- response{err: err}
			continue
		}
		s.served.Add(1)
		s.degradedServed.Add(1)
		r.done <- response{res: res}
	}
}

// fallbackOne serves one plan from the fallback snapshot with its own panic
// containment (a poisoned plan fails alone, degraded mode survives).
func (s *Scheduler) fallbackOne(ep *feature.EncodedPlan) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			res, err = Result{}, fmt.Errorf("serve: degraded estimate panic: %v", p)
		}
	}()
	if s.good == nil {
		return Result{}, errors.New("serve: degraded with no last-known-good snapshot")
	}
	cost, card := s.good.Model().Estimate(ep)
	return Result{Cost: cost, Card: card, Version: s.good.Version(), Degraded: true}, nil
}
