package main

// surface.go is the only file of the benchmark that imports the repository.
// Everything costload touches is named here — the daemon flags it passes and
// the public functions it calls for corpus generation and per-layer timing —
// so a change that renames or removes any of them breaks this one file, and
// TestSurfaceIsTheOnlyImporter keeps it that way.
//
// Deliberately absent, because ROADMAP direction 2 deletes them:
// -follow, -batch-window, -max-batch, Trainer.TrainEpoch*, Server.Publish,
// bare replica.Follower, InferenceSession, v1/v2 checkpoints.

import (
	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/plan"
	"costest/internal/planner"
	"costest/internal/query"
	"costest/internal/replica"
	"costest/internal/serve"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/tensor"
	"costest/internal/workload"
)

// The daemon, built from source by `go build`, and the only flags the
// benchmark passes it. Everything else runs at its shipped default.
const (
	daemonPkg           = "costest/cmd/costestd"
	flagAddr            = "-addr"
	flagRetrain         = "-retrain"
	flagReplicateListen = "-replicate-listen"
	flagPeers           = "-peers"
)

// The daemon's own substrate and training constants (cmd/costestd defaults).
// Request plans must be planned against the same database and catalog the
// daemon encodes them with; the in-process trace replays the same model
// shape and training corpus.
const (
	daemonScale       = 0.03
	daemonTrainSeed   = 42
	daemonTrainSize   = 240
	daemonEpochs      = 20
	daemonPatience    = 3
	daemonBatchSize   = 16
	daemonPoolBound   = 4096
	daemonStatBuckets = 40
	daemonSampleSize  = 64
)

type (
	database     = dataset.DB
	catalog      = stats.Catalog
	queryT       = query.Query
	planNode     = plan.Node
	wirePlan     = serve.WirePlan
	encoder      = feature.Encoder
	encodedPlan  = feature.EncodedPlan
	model        = core.Model
	server       = core.Server
	estimate     = core.Estimate
	scheduler    = serve.Scheduler
	service      = serve.Service
	frameReader  = replica.FrameReader
	param        = nn.Param
	tensorMat    = tensor.Mat
	tensorVec    = tensor.Vec
	planOperator = plan.NodeType
	queryPlanner = planner.Planner
)

// joinOperators are the physical join operators enum_batch64 swaps between.
var joinOperators = [...]planOperator{plan.HashJoin, plan.MergeJoin, plan.NestedLoop}

// Corpus generation: dataset → statistics → planner → wire plans.
func generateDB() *database {
	return dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: daemonScale})
}

func collectStats(db *database) *catalog {
	return stats.Collect(db, stats.Options{Buckets: daemonStatBuckets, SampleSize: daemonSampleSize, Seed: 1})
}

func newPlanner(db *database, cat *catalog) *queryPlanner {
	return planner.New(pg.New(cat), db.Schema)
}

var (
	scaleQueries   = workload.Scale
	jobFullQueries = workload.JOBFull
	encodeWire     = serve.EncodeWire
)

// Request path, in the handler's order.
func newEncoder(cat *catalog) *encoder {
	return feature.NewEncoder(cat, strembed.ZeroEncoder{}, true)
}

func newPooledServer(m *model) *server {
	return core.NewServer(m, core.NewBoundedMemoryPool(daemonPoolBound))
}

func newPoollessServer(m *model) *server { return core.NewServer(m, nil) }

// newService wires the HTTP layer the way the daemon does, over a scheduler
// with the zero-value SchedulerConfig (no batch window: the in-process replay
// measures the handler's own work, not the wait).
func newService(srv *server, enc *encoder) (*service, *scheduler) {
	sched := serve.NewScheduler(srv, serve.SchedulerConfig{})
	sched.Start()
	svc := serve.NewService(sched, srv, enc)
	svc.SetReady(true)
	return svc, sched
}

// Write path: train step → PublishDelta → frame → follower apply.
func newModel(enc *encoder) *model { return core.New(core.TestConfig(), enc) }

// labeledTrainingPlans reproduces the daemon's training corpus: the labeled
// numeric workload at the daemon's seed, feature-encoded.
func labeledTrainingPlans(db *database, cat *catalog, enc *encoder) ([]*encodedPlan, error) {
	labeler := &workload.Labeler{Planner: newPlanner(db, cat), Engine: exec.NewEngine(db)}
	labeled := labeler.Label(workload.TrainingNumeric(db, daemonTrainSeed, daemonTrainSize))
	eps := make([]*encodedPlan, 0, len(labeled))
	for _, s := range labeled {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

// parallelTrainer is the one-shard data-parallel trainer the daemon boots
// with, early stopping included.
func parallelTrainer(m *model) *core.ParallelTrainer {
	pt := core.NewParallelTrainer(m, 1)
	pt.EarlyStop(core.EarlyStopOptions{Patience: daemonPatience})
	return pt
}

var (
	appendModelPayload = replica.AppendModelPayload
	appendFrame        = replica.AppendFrame
	newFrameReader     = replica.NewFrameReader
	applyModelPayload  = replica.ApplyModelPayload
)

const frameDelta = replica.FrameDelta

// Kernels, and the canonical reduction every float64 sum here goes through.
var (
	matMulTransBInto = tensor.MatMulTransBInto
	dot              = tensor.Dot
	sum              = tensor.Sum
	newMat           = tensor.NewMat
)
