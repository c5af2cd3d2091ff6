// Package serve is the networked serving runtime: it fronts a core.Server
// with a batching scheduler and an HTTP API (cmd/costestd is the daemon
// around it). Parallelism is by request, not by level: the scheduler holds
// GOMAXPROCS run slots, and a request whose plans find a slot free runs them
// as one EstimateBatch call on its own goroutine — no
// dispatcher to hand off to, no goroutines started per plan or per level.
// Requests that find every slot busy wait, and the runner that frees a slot
// hands it to them as one batch, so a lone request is never delayed and
// batches grow with load. A request's plans are one group throughout: admitted,
// answered, expired or refused whole. The robustness contract does the real
// work:
//
//   - Admission control: waiting is bounded in plans and Submit never blocks
//     on a full queue; overload is an immediate ErrOverloaded (HTTP 503 +
//     Retry-After), not unbounded growth.
//   - Admitted means answered: every group that is admitted receives exactly
//     one answer, even across estimator panics and shutdown.
//   - Deadlines propagate: a group whose context expires while it waits is
//     answered with its context error before it runs — never silently
//     served late.
//   - Graceful drain: Close stops admissions, answers everything already
//     admitted (concurrent publishes included), then returns.
//   - Failures stay in their run: a run whose estimator errors or panics
//     answers its own groups with that error (HTTP 500) and touches nothing
//     else — the next run starts clean, with no state carried over.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// SchedulerConfig tunes the batching scheduler. How many batches run at once
// is not configured: it is GOMAXPROCS, one single-worker run per processor.
type SchedulerConfig struct {
	// QueueDepth bounds how many plans may wait for a run slot; a group that
	// would overfill it is rejected instead of growing the queue. <= 0
	// defaults to 256.
	QueueDepth int
	// MaxBatch caps how many waiting plans one run takes (a single group
	// larger than this still runs whole). <= 0 defaults to 64.
	MaxBatch int
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// Result is one served estimate and the snapshot that produced it: its
// local Version and its replication coordinates Epoch and Generation (both
// zero when the snapshot was not replicated; see
// core.ModelSnapshot.Coordinates).
type Result struct {
	Cost       float64
	Card       float64
	Version    uint64
	Epoch      uint64
	Generation uint64
}

// group is one admitted request: its plans, where their results go, and the
// error that answers it whole. Groups are pooled; the admission contract
// (exactly one answer per admitted group, received by its submitter)
// guarantees done is empty again by the time a group is recycled.
type group struct {
	ctx context.Context
	eps []*feature.EncodedPlan
	out []Result
	err error
	// done tells a waiting submitter what happened to its group: nil once
	// another runner answered it, or a run slot whose batch (this group
	// first) the submitter is now to run.
	done chan *runSlot
	// one and oneRes back the group of a lone Submit.
	one    [1]*feature.EncodedPlan
	oneRes [1]Result
}

// runSlot is one permit to run the model, with the scratch one run reuses.
// A slot is owned by exactly one goroutine at a time: free in the
// scheduler's list, or held by the runner that took it.
type runSlot struct {
	batch []*group // the groups this run answers
	live  []*group // the batch minus groups that expired while waiting
	eps   []*feature.EncodedPlan
	res   []core.Estimate
}

// SchedulerStats is a point-in-time counter snapshot. Admission and answer
// counts are in plans; Groups counts requests.
type SchedulerStats struct {
	// Admission outcomes.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"` // queue full at admission
	Drained  uint64 `json:"drained"`  // rejected because draining
	// Answer outcomes (admitted = served + expired + failed once idle).
	Served  uint64 `json:"served"`
	Expired uint64 `json:"expired"` // context expired before the group ran
	Failed  uint64 `json:"failed"`  // answered with an estimator error
	Panics  uint64 `json:"panics"`  // estimator panics survived
	// Coalescing. A batch is one run: one EstimateBatch call.
	Batches        uint64  `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	MeanBatchUS    float64 `json:"mean_batch_us"`    // mean service time per run
	QueueHighWater int     `json:"queue_high_water"` // most plans ever waiting for a slot
	QueueDepth     int     `json:"queue_depth"`      // plans waiting for a slot now
	// Groups is how many requests were admitted, MeanGroupPlans their mean
	// size, and RunsInline how many ran on their submitter's goroutine the
	// moment they arrived (the rest waited for a slot).
	Groups         uint64  `json:"groups"`
	MeanGroupPlans float64 `json:"mean_group_plans"`
	RunsInline     uint64  `json:"runs_inline"`
}

// Scheduler is the batching front end over a core.Server. Create with
// NewScheduler, open its run slots with Start, stop with Close.
type Scheduler struct {
	srv *core.Server
	cfg SchedulerConfig

	// mu guards admission and the slots: draining, the free slots, and the
	// groups waiting for one. A group is either running on a held slot or
	// waiting, and groups wait only while no slot is free, so every waiting
	// group is handed a slot by a runner (or by Start) eventually.
	mu           sync.Mutex
	started      bool
	draining     bool
	slots        []*runSlot // all GOMAXPROCS of them
	free         []*runSlot
	waiting      []*group
	waitingPlans int
	// inflight counts admitted groups not yet answered; Close waits on it.
	inflight sync.WaitGroup

	admitted, rejected, drained  atomic.Uint64
	served, expired, failed      atomic.Uint64
	panics, batches, batchedReqs atomic.Uint64
	groups, runsInline           atomic.Uint64
	busyNanos                    atomic.Int64 // time spent inside runs
	queueHW                      atomic.Int64

	// groupPool recycles group objects (each with its 1-buffered done
	// channel), keeping the admit and reject warm paths allocation-free.
	groupPool sync.Pool
}

// NewScheduler builds a scheduler over srv with GOMAXPROCS run slots. Call
// Start before Submit; groups submitted to an unstarted scheduler wait (and
// are rejected once the queue fills) but do not run.
func NewScheduler(srv *core.Server, cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	n := runtime.GOMAXPROCS(0)
	s := &Scheduler{
		srv:     srv,
		cfg:     cfg,
		slots:   make([]*runSlot, n),
		free:    make([]*runSlot, 0, n),
		waiting: make([]*group, 0, cfg.QueueDepth),
	}
	for i := range s.slots {
		s.slots[i] = &runSlot{
			batch: make([]*group, 0, cfg.MaxBatch),
			live:  make([]*group, 0, cfg.MaxBatch),
			eps:   make([]*feature.EncodedPlan, 0, cfg.MaxBatch),
			res:   make([]core.Estimate, cfg.MaxBatch),
		}
	}
	s.groupPool.New = func() any {
		return &group{done: make(chan *runSlot, 1)}
	}
	return s
}

// Start opens the run slots, handing them first to whatever was admitted
// before the start. Later calls do nothing.
func (s *Scheduler) Start() {
	s.mu.Lock()
	started := s.started
	s.started = true
	s.mu.Unlock()
	if !started {
		for _, sl := range s.slots {
			s.release(sl)
		}
	}
}

// Submit admits one plan, a group of one, and blocks until it is answered
// (or its admission is refused). It is SubmitGroup without the slices.
//
// costlint:noalloc
func (s *Scheduler) Submit(ctx context.Context, ep *feature.EncodedPlan) (Result, error) {
	g := s.groupPool.Get().(*group)
	g.one[0] = ep
	err := s.submit(ctx, g, g.one[:], g.oneRes[:])
	res := g.oneRes[0]
	g.one[0], g.oneRes[0] = nil, Result{} // a pooled group must not hand its last estimate to a failed Submit
	g.clear()
	s.groupPool.Put(g)
	return res, err
}

// SubmitGroup admits a request's plans as one group and blocks until the
// group is answered, writing plan i's estimate to out[i] (out must be at
// least as long as eps). The contract:
//
//   - A free run slot runs the group at once, on the calling goroutine.
//   - Otherwise the group waits; if that would put more than QueueDepth
//     plans in waiting, it returns ErrOverloaded immediately — admission
//     never blocks, so overload backpressure reaches callers at once.
//   - After Close has begun draining, it returns ErrDraining.
//   - An admitted group always gets exactly one answer, for all its plans:
//     every estimate, or one error. If ctx expires before the group runs,
//     that answer is ctx's error; an admitted group is never silently
//     served late or dropped.
//
// costlint:noalloc
func (s *Scheduler) SubmitGroup(ctx context.Context, eps []*feature.EncodedPlan, out []Result) error {
	if len(eps) == 0 {
		return nil
	}
	g := s.groupPool.Get().(*group)
	err := s.submit(ctx, g, eps, out[:len(eps)])
	g.clear()
	s.groupPool.Put(g)
	return err
}

// submit is the one admission path: run g inline on a free slot, or queue it
// and wait for its answer (or for a slot to run it on).
//
// costlint:noalloc
func (s *Scheduler) submit(ctx context.Context, g *group, eps []*feature.EncodedPlan, out []Result) error {
	n := uint64(len(eps))
	g.ctx, g.eps, g.out, g.err = ctx, eps, out, nil
	var sl *runSlot
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.drained.Add(n)
		return ErrDraining
	case len(s.free) > 0:
		// A slot is only free while nothing waits, so taking it here jumps
		// no queue.
		sl = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	case s.waitingPlans+len(eps) > s.cfg.QueueDepth:
		s.mu.Unlock()
		s.rejected.Add(n)
		return ErrOverloaded
	default:
		s.waiting = append(s.waiting, g)
		s.waitingPlans += len(eps)
		if d := int64(s.waitingPlans); d > s.queueHW.Load() {
			s.queueHW.Store(d)
		}
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.admitted.Add(n)
	s.groups.Add(1)

	if sl != nil {
		s.runsInline.Add(1)
		sl.batch = sl.batch[:0]
		sl.batch = append(sl.batch, g)
		s.run(sl, g)
	} else if sl = <-g.done; sl != nil {
		// Admitted: a runner is guaranteed to answer the group or hand it a
		// slot (drain contract), so waiting on done alone cannot hang.
		s.run(sl, g)
	}
	return g.err
}

// clear drops a group's references so a pooled group retains nothing of its
// caller's.
//
// costlint:noalloc
func (g *group) clear() {
	g.ctx, g.eps, g.out, g.err = nil, nil, nil, nil
}

// takeWaiting moves the oldest waiting groups into sl's batch: at least one,
// and more while the batch stays within MaxBatch plans. Caller holds mu.
//
// costlint:noalloc
func (s *Scheduler) takeWaiting(sl *runSlot) {
	plans, k := len(s.waiting[0].eps), 1
	for k < len(s.waiting) && plans+len(s.waiting[k].eps) <= s.cfg.MaxBatch {
		plans += len(s.waiting[k].eps)
		k++
	}
	sl.batch = sl.batch[:0]
	sl.batch = append(sl.batch, s.waiting[:k]...)
	rest := copy(s.waiting, s.waiting[k:])
	clear(s.waiting[rest:])
	s.waiting = s.waiting[:rest]
	s.waitingPlans -= plans
}

// run executes sl's batch on the calling goroutine — self is the caller's
// own group, answered in place rather than signalled — then releases the
// slot.
func (s *Scheduler) run(sl *runSlot, self *group) {
	s.runBatch(sl, self)
	s.release(sl)
}

// release passes a slot on: to the oldest waiting group's submitter together
// with everything that fits a batch, or back to the free list when nothing
// waits.
func (s *Scheduler) release(sl *runSlot) {
	s.mu.Lock()
	if len(s.waiting) == 0 {
		s.free = append(s.free, sl)
		s.mu.Unlock()
		return
	}
	s.takeWaiting(sl)
	s.mu.Unlock()
	sl.batch[0].done <- sl
}

// answer completes one group: its error (nil when out is filled), then the
// signal its waiting submitter blocks on. Nothing touches g after the
// signal — its submitter recycles it.
func (s *Scheduler) answer(g, self *group, err error) {
	g.err = err
	s.inflight.Done()
	if g != self {
		g.done <- nil
	}
}

// Close drains the scheduler: admission stops (Submit returns ErrDraining),
// everything already admitted is answered — on an unstarted scheduler too,
// whose slots Close opens for it — and Close returns once the last answer is
// in. Safe to call more than once; Submits keep failing fast.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.Start()
	s.inflight.Wait()
}

// Draining reports whether Close has begun: once true, Submit fails fast
// with ErrDraining (readiness probes flip unready on it).
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	depth := s.waitingPlans
	s.mu.Unlock()
	st := SchedulerStats{
		Admitted:       s.admitted.Load(),
		Rejected:       s.rejected.Load(),
		Drained:        s.drained.Load(),
		Served:         s.served.Load(),
		Expired:        s.expired.Load(),
		Failed:         s.failed.Load(),
		Panics:         s.panics.Load(),
		Batches:        s.batches.Load(),
		QueueHighWater: int(s.queueHW.Load()),
		QueueDepth:     depth,
		Groups:         s.groups.Load(),
		RunsInline:     s.runsInline.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.batchedReqs.Load()) / float64(st.Batches)
		st.MeanBatchUS = float64(s.busyNanos.Load()) / float64(st.Batches) / float64(time.Microsecond)
	}
	if st.Groups > 0 {
		st.MeanGroupPlans = float64(st.Admitted) / float64(st.Groups)
	}
	return st
}

// RetryAfterHint estimates how long a rejected client should wait before
// retrying: the time the run slots need to clear what waits now. The waiting
// plans take waiting/MaxBatch + 1 runs, spread over the slots, each at the
// measured mean service time /statsz reports. HTTP 503s derive their
// Retry-After from this instead of a constant, so the hint scales with how
// backed up (and how slow) the daemon actually is; before the first run
// there is nothing measured and it is 0.
func (s *Scheduler) RetryAfterHint() time.Duration {
	st := s.Stats()
	runs := float64(st.QueueDepth/s.cfg.MaxBatch+1) / float64(len(s.slots))
	return time.Duration(runs * st.MeanBatchUS * float64(time.Microsecond))
}

// runBatch answers every group in sl's batch: expired ones with their
// context error before anything runs, the rest from one EstimateBatchInto
// call — or, if the run fails (the estimator errors or panics), each with
// the run's error. A failure fails exactly this run's groups; it leaves no
// state behind, so the next run starts clean.
func (s *Scheduler) runBatch(sl *runSlot, self *group) {
	sl.live, sl.eps = sl.live[:0], sl.eps[:0]
	for _, g := range sl.batch {
		if err := g.ctx.Err(); err != nil {
			s.expired.Add(uint64(len(g.eps)))
			s.answer(g, self, fmt.Errorf("serve: request expired before dispatch: %w", err))
			continue
		}
		sl.live = append(sl.live, g)
		sl.eps = append(sl.eps, g.eps...)
	}
	if len(sl.live) == 0 {
		return
	}

	start := time.Now()
	ests, version, epoch, gen, err := s.estimateBatch(sl)
	s.busyNanos.Add(int64(time.Since(start)))
	s.batches.Add(1)
	s.batchedReqs.Add(uint64(len(sl.eps)))
	if err != nil {
		for _, g := range sl.live {
			s.failed.Add(uint64(len(g.eps)))
			s.answer(g, self, err)
		}
		return
	}
	for _, g := range sl.live {
		for i := range g.eps {
			g.out[i] = Result{Cost: ests[i].Cost, Card: ests[i].Card, Version: version, Epoch: epoch, Generation: gen}
		}
		ests = ests[len(g.eps):]
		s.served.Add(uint64(len(g.eps)))
		s.answer(g, self, nil)
	}
}

// estimateBatch runs sl's live plans as one batch on the current snapshot,
// with one worker — the parallelism is across runs — and returns the
// estimates with the version and coordinates of the snapshot that answered.
// Panic recovery turns a panic anywhere in the run into this run's error;
// the "serve.batch" fault hook is where chaos tests inject estimator
// failures.
func (s *Scheduler) estimateBatch(sl *runSlot) (ests []core.Estimate, version, epoch, gen uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			err = fmt.Errorf("serve: estimator panic: %v", p)
		}
	}()
	if err := fault.Point(fault.SiteServeBatch); err != nil {
		return nil, 0, 0, 0, err
	}
	if len(sl.eps) > len(sl.res) {
		sl.res = make([]core.Estimate, len(sl.eps)) // a group larger than MaxBatch
	}
	// The slot's holder owns sl.res, and every estimate is copied out before
	// the slot's next run reuses it, so the steady-state serve path stays
	// allocation-free.
	ests, version, epoch, gen = s.srv.EstimateBatchInto(sl.eps, sl.res[:len(sl.eps)])
	return ests, version, epoch, gen, nil
}
