package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/tensor"
)

// ParallelTrainer is the trainer: mini-batch Adam on the multitask q-error
// loss of Section 4.3, with every minibatch sharded across a fixed number of
// long-lived worker BatchSessions, each accumulating into a private gradient
// ParamSet that shadows the live weights, and a deterministic ordered
// reduction into the shared optimizer state before each SGD step. One shard
// is plain batched training; there is no separate sequential driver.
//
// Determinism contract (tested):
//
//   - The shard count is fixed at construction and shard assignment is a pure
//     function of (minibatch length, shards): shard i always takes the i-th
//     contiguous chunk of the shuffled minibatch. Every shard of a minibatch
//     runs at once, and scheduling can never perturb the result.
//   - Gradients are reduced in ascending shard order through
//     tensor.AddVecsInto's strict left-to-right accumulation, then clipped
//     and stepped. With shards=1 the reduction is a bit-exact copy of the
//     one shard's gradient; with more shards the per-parameter sums
//     reassociate across shard boundaries, so weights match the one-shard
//     result to floating-point reassociation (≤1e-6 relative).
//
// Each worker's shadow model aliases the live model's weight storage
// (nn.ParamSet.AliasValues) — forwards read the real weights with no copying
// — while its gradient accumulators stay private, so concurrent workers
// never write shared state. The optimizer steps only between worker joins,
// which is also when PublishDelta may run: hot-swap serving composes
// unchanged, since serving never touches the training model.
//
// Workers are goroutines with session-sized arenas, started lazily on the
// first epoch; call Close when done training to release them. A
// ParallelTrainer is driven from one goroutine at a time.
type ParallelTrainer struct {
	M   *Model
	Opt *nn.Adam
	rng *rand.Rand

	costLoss nn.Loss
	cardLoss nn.Loss

	// batchBuf is the reusable minibatch gather slice and permBuf the
	// reusable epoch shuffle.
	batchBuf []*feature.EncodedPlan
	permBuf  []int

	// shards is the fixed data-parallel width (resolved once at
	// construction; <= 0 meant GOMAXPROCS).
	shards int

	workers []*trainWorker
	wg      sync.WaitGroup

	// mainGrads[p] is the live model's gradient for parameter p;
	// gradSrcs[p][s] is shard s's private gradient for the same parameter.
	// Built once so the per-minibatch reduction is allocation-free.
	mainGrads []tensor.Vec
	gradSrcs  [][]tensor.Vec

	// stop is the early-stopping configuration of Fit (zero Patience
	// disables it).
	stop EarlyStopOptions
}

// EarlyStopOptions configures validation-based early stopping in
// ParallelTrainer.Fit.
type EarlyStopOptions struct {
	// Patience is how many consecutive epochs the combined validation
	// q-error (cost + card) may fail to improve before Fit stops; <= 0
	// disables early stopping.
	Patience int
	// MinDelta is the least absolute improvement over the best combined
	// validation error that counts as progress; epochs inside the band count
	// against the patience budget.
	MinDelta float64
}

// trainWorker is one shard's long-lived state: a shadow model whose
// parameters alias the live weights but carry private gradients, the
// worker's forward/backward arena bound to that shadow, and the channel its
// slice of each minibatch arrives on.
type trainWorker struct {
	shadow *Model
	sess   *BatchSession
	work   chan []*feature.EncodedPlan
	// loss is the shard's last summed supervision-normalized loss; written
	// by the worker, read by the coordinator after the join.
	loss float64
}

// NewParallelTrainer builds a data-parallel trainer for the live model with
// a fixed shard count (shards <= 0 resolves to GOMAXPROCS). The shard count
// determines the trained bits; see the type comment.
func NewParallelTrainer(m *Model, shards int) *ParallelTrainer {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &ParallelTrainer{
		M:      m,
		Opt:    nn.NewAdam(m.Cfg.LearnRate),
		rng:    rand.New(rand.NewSource(m.Cfg.Seed + 1000)),
		shards: shards,
	}
}

// Shards returns the fixed data-parallel width.
func (pt *ParallelTrainer) Shards() int { return pt.shards }

// EarlyStop installs validation-based early stopping on Fit: training stops
// once the combined validation q-error has gone opts.Patience consecutive
// epochs without improving its best value by more than opts.MinDelta, so a
// long `epochs` budget terminates when the model plateaus instead of burning
// the remaining epochs. Zero Patience (the default) disables stopping.
func (pt *ParallelTrainer) EarlyStop(opts EarlyStopOptions) {
	pt.stop = opts
}

// Fit trains for the given number of epochs: normalizers are fitted on the
// training set, each epoch runs shuffled minibatches (sharded across the
// trainer's workers), and validation q-errors are reported per epoch through
// cb (which may be nil). More than one shard reassociates gradient sums
// across shard boundaries only. The int argument is ignored — every shard of
// a minibatch runs at once; it remains only for the benchmark's trace replay,
// and goes when ROADMAP 1.2 deletes that replay.
//
// The trainer never publishes: a caller that serves the model calls
// Server.PublishDelta itself, from cb or between Fit calls — both run on
// the training goroutine with the workers joined. When EarlyStop has been
// configured, Fit may return before `epochs` epochs — the history's length
// is the number actually run. Fit returns the stats history — the data
// behind the paper's validation-error curves (Figures 7 and 8).
func (pt *ParallelTrainer) Fit(train, valid []*feature.EncodedPlan, epochs, batchSize, _ int,
	cb func(EpochStats)) []EpochStats {
	pt.FitNormalizers(train)
	history := make([]EpochStats, 0, epochs)
	best, sinceBest := math.Inf(1), 0
	for e := 0; e < epochs; e++ {
		loss := pt.TrainEpochParallel(train, batchSize)
		vc, vd := pt.M.ValidationError(valid)
		st := EpochStats{Epoch: e, TrainLoss: loss, ValidCost: vc, ValidCard: vd}
		history = append(history, st)
		if cb != nil {
			cb(st)
		}
		if vc+vd < best-pt.stop.MinDelta {
			best, sinceBest = vc+vd, 0
		} else if sinceBest++; pt.stop.Patience > 0 && sinceBest >= pt.stop.Patience {
			break
		}
	}
	return history
}

// Close shuts the worker goroutines down. The trainer remains usable: a
// later TrainEpochParallel call restarts fresh workers.
func (pt *ParallelTrainer) Close() {
	for _, w := range pt.workers {
		close(w.work)
	}
	pt.workers = nil
	pt.mainGrads, pt.gradSrcs = nil, nil
}

// ensureWorkers lazily builds the shard workers, their shadow models and the
// flattened gradient views the reduction sweeps over.
func (pt *ParallelTrainer) ensureWorkers() {
	if pt.workers != nil {
		return
	}
	pt.workers = make([]*trainWorker, pt.shards)
	for i := range pt.workers {
		shadow := newShadowModel(pt.M)
		w := &trainWorker{
			shadow: shadow,
			sess:   NewBatchSession(shadow),
			work:   make(chan []*feature.EncodedPlan, 1),
		}
		pt.workers[i] = w
		go pt.workerLoop(w)
	}
	params := pt.M.PS.Params()
	pt.mainGrads = make([]tensor.Vec, len(params))
	pt.gradSrcs = make([][]tensor.Vec, len(params))
	for pi, p := range params {
		pt.mainGrads[pi] = p.Grad
		pt.gradSrcs[pi] = make([]tensor.Vec, pt.shards)
		for si, w := range pt.workers {
			pt.gradSrcs[pi][si] = w.shadow.PS.Params()[pi].Grad
		}
	}
}

// newShadowModel builds a model that reads m's live weights (value storage
// is aliased, so optimizer steps are visible without copying) but owns
// private gradient accumulators — one data-parallel worker's view.
func newShadowModel(m *Model) *Model {
	s := New(m.Cfg, m.Enc)
	s.PS.AliasValues(m.PS)
	s.CostNorm, s.CardNorm = m.CostNorm, m.CardNorm
	return s
}

// workerLoop runs one shard's slice of each minibatch until Close, joining
// the minibatch through pt.wg.
func (pt *ParallelTrainer) workerLoop(w *trainWorker) {
	for eps := range w.work {
		w.loss = pt.shardAccumulate(w, eps)
		pt.wg.Done()
	}
}

// shardAccumulate runs forward + backward for one shard of a minibatch
// through the worker's private session and gradient set, returning the
// shard's summed per-sample loss. The warm path performs zero heap
// allocations — the parallelism lives across shards, not inside them.
func (pt *ParallelTrainer) shardAccumulate(w *trainWorker, eps []*feature.EncodedPlan) float64 {
	w.shadow.PS.ZeroGrad()
	w.sess.run(eps, nil, true)
	loss := pt.batchLossAndGrads(w.sess)
	w.sess.backward()
	return loss
}

// Warmup sizes every worker's arenas by running one full training pass of
// samples through each worker session (the gradients land in the worker's
// private set and are discarded). Per-level arena shapes are additive over
// plans, so the full corpus is a superset of every minibatch shard a later
// shuffle can produce — after Warmup, epochs over any subset of samples run
// at zero heap allocations per worker, no matter how the shuffle falls
// (without it, a new shuffle can still raise a high-water mark mid-epoch).
func (pt *ParallelTrainer) Warmup(samples []*feature.EncodedPlan) {
	if pt.costLoss == nil {
		pt.rebuildLosses()
	}
	pt.ensureWorkers()
	if len(samples) == 0 {
		return
	}
	for _, w := range pt.workers {
		pt.shardAccumulate(w, samples)
	}
}

// TrainEpochParallel runs one epoch over samples in shuffled minibatches,
// sharding each across the trainer's worker sessions: every shard forwards
// and backwards its chunk concurrently into private gradients (the
// level-wise batched forward of Section 4.3 paired with the level-wise GEMM
// backward of batch_backward.go), the shards are reduced in fixed order into
// the live ParamSet, and one clipped Adam step applies — data-parallel SGD
// with single-shard semantics. Returns the mean per-sample loss.
func (pt *ParallelTrainer) TrainEpochParallel(samples []*feature.EncodedPlan, batchSize int) float64 {
	if pt.costLoss == nil {
		pt.rebuildLosses()
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	pt.ensureWorkers()

	idx := pt.permute(len(samples))
	var total float64
	for start := 0; start < len(idx); start += batchSize {
		end := start + batchSize
		if end > len(idx) {
			end = len(idx)
		}
		pt.batchBuf = pt.batchBuf[:0]
		for _, i := range idx[start:end] {
			pt.batchBuf = append(pt.batchBuf, samples[i])
		}
		total += pt.stepParallel(pt.batchBuf)
	}
	return total / float64(len(samples))
}

// stepParallel processes one minibatch: fixed contiguous shard assignment,
// concurrent shard accumulation, ordered gradient reduction, then the
// clip + Adam step.
func (pt *ParallelTrainer) stepParallel(batch []*feature.EncodedPlan) float64 {
	// Shard assignment depends only on (len(batch), shards): shard i takes
	// rows [i*chunk, (i+1)*chunk).
	chunk := (len(batch) + pt.shards - 1) / pt.shards
	active := (len(batch) + chunk - 1) / chunk
	pt.wg.Add(active)
	for i := 0; i < active; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		pt.workers[i].work <- batch[lo:hi]
	}
	pt.wg.Wait()

	// Ordered reduction: shard 0's gradient is copied (bit-exact — with one
	// shard nothing is reassociated), the rest accumulate in ascending shard
	// order via the deterministic reduction kernel — a pure function of the
	// active shard count, never of scheduling.
	var loss float64
	for i := 0; i < active; i++ {
		loss += pt.workers[i].loss
	}
	for pi, dst := range pt.mainGrads {
		srcs := pt.gradSrcs[pi]
		copy(dst, srcs[0])
		tensor.AddVecsInto(dst, srcs[1:active]...)
	}
	pt.M.PS.ClipGradNorm(pt.M.Cfg.GradClip * float64(len(batch)))
	pt.Opt.Step(pt.M.PS)
	return loss
}
