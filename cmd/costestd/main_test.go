package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/fnv"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/fault"
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/plan"
	"costest/internal/planner"
	"costest/internal/serve"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// Shared test substrate: one small synthetic database and labeled corpus for
// every daemon test (built once — substrate generation dominates test time).
var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 30, SampleSize: 48, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
	testEnc = feature.NewEncoder(testCat, strembed.HashEmbedder{DimN: 12}, true)
)

// testCorpus labels a plan corpus against the shared substrate.
func testCorpus(tb testing.TB, seed int64, n int) ([]*plan.Node, []*feature.EncodedPlan) {
	tb.Helper()
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	samples := lab.Label(workload.TrainingStrings(testDB, seed, n))
	plans := make([]*plan.Node, 0, len(samples))
	eps := make([]*feature.EncodedPlan, 0, len(samples))
	for _, s := range samples {
		ep, err := testEnc.Encode(s.Plan)
		if err != nil {
			tb.Fatalf("encode: %v", err)
		}
		plans = append(plans, s.Plan)
		eps = append(eps, ep)
	}
	if len(eps) < n/2 {
		tb.Fatalf("only %d/%d samples labeled", len(eps), n)
	}
	return plans, eps
}

// fixedCorpus is a training corpus that is already built.
func fixedCorpus(eps []*feature.EncodedPlan) func() []*feature.EncodedPlan {
	return func() []*feature.EncodedPlan { return eps }
}

// testStack builds a served, quick-trained model over the corpus: server,
// started scheduler, HTTP service — the daemon's serving stack minus main().
func testStack(tb testing.TB, eps []*feature.EncodedPlan, cfg serve.SchedulerConfig) (*core.Server, *core.ParallelTrainer, *serve.Scheduler, *serve.Service) {
	tb.Helper()
	m := core.New(core.TestConfig(), testEnc)
	tr := core.NewParallelTrainer(m, 1)
	tb.Cleanup(tr.Close)
	tr.FitNormalizers(eps)
	tr.TrainEpochParallel(eps, 8)
	srv := core.NewServer(m, core.NewBoundedMemoryPool(2048))
	sched := serve.NewScheduler(srv, cfg)
	sched.Start()
	svc := serve.NewService(sched, srv, testEnc)
	svc.SetReady(true)
	return srv, tr, sched, svc
}

// serveOne serves ep as a batch of one through EstimateBatchInto, the path
// the scheduler takes, returning the estimate and the version of the snapshot
// that answered.
func serveOne(srv *core.Server, ep *feature.EncodedPlan) (cost, card float64, version uint64) {
	out := make([]core.Estimate, 1)
	out, version, _, _ = srv.EstimateBatchInto([]*feature.EncodedPlan{ep}, out)
	return out[0].Cost, out[0].Card, version
}

// TestLoadOrTrainRoundTrip: a fresh path trains and saves; a second boot
// cold-loads the identical model.
func TestLoadOrTrainRoundTrip(t *testing.T) {
	_, eps := testCorpus(t, 401, 16)
	path := filepath.Join(t.TempDir(), "model.ckpt")

	m1, err := loadOrTrain(path, testEnc, fixedCorpus(eps), 2)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	// A checkpoint boot trains nothing, so it never asks for the corpus.
	m2, err := loadOrTrain(path, testEnc, func() []*feature.EncodedPlan {
		t.Fatal("checkpoint boot built the training corpus")
		return nil
	}, 2)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	for i, ep := range eps {
		c1, d1 := m1.Estimate(ep)
		c2, d2 := m2.Estimate(ep)
		if c1 != c2 || d1 != d2 {
			t.Fatalf("plan %d: cold-loaded model diverges: (%g,%g) vs (%g,%g)", i, c2, d2, c1, d1)
		}
	}
}

// TestLoadOrTrainRejectsZeroEpochs: a boot that must train with no epoch
// budget is an error, not an index panic on an empty history; a boot that
// cold-loads a checkpoint trains nothing and takes the same budget.
func TestLoadOrTrainRejectsZeroEpochs(t *testing.T) {
	_, eps := testCorpus(t, 404, 16)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	for _, epochs := range []int{0, -1} {
		if m, err := loadOrTrain(path, testEnc, fixedCorpus(eps), epochs); err == nil || m != nil {
			t.Fatalf("epochs %d: got model %v, err %v; want an error", epochs, m != nil, err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused boot left a checkpoint behind: %v", err)
	}
	if _, err := loadOrTrain(path, testEnc, fixedCorpus(eps), 1); err != nil {
		t.Fatalf("one-epoch boot: %v", err)
	}
	if m, err := loadOrTrain(path, testEnc, fixedCorpus(eps), 0); err != nil || m == nil {
		t.Fatalf("checkpoint boot with -epochs 0: model %v, err %v", m != nil, err)
	}
}

// TestSplitHoldsOutAFifth: the boot and the supervisor split a corpus one
// way — the default corpus's 240 plans 192/48, and a corpus too small to
// hold a fifth out wholly into training.
func TestSplitHoldsOutAFifth(t *testing.T) {
	eps := make([]*feature.EncodedPlan, 240)
	for _, c := range []struct{ n, train, valid int }{{240, 192, 48}, {5, 4, 1}, {2, 1, 1}, {1, 1, 0}, {0, 0, 0}} {
		train, valid := split(eps[:c.n])
		if len(train) != c.train || len(valid) != c.valid {
			t.Errorf("%d plans split %d/%d, want %d/%d", c.n, len(train), len(valid), c.train, c.valid)
		}
	}
}

// TestLoadOrTrainOnePlanCorpus: a boot over a one-plan corpus trains on that
// plan, as the supervisor does, instead of running its epochs over no plans
// and saving the model with the weights it was initialized with.
func TestLoadOrTrainOnePlanCorpus(t *testing.T) {
	_, eps := testCorpus(t, 405, 4)
	m, err := loadOrTrain("", testEnc, fixedCorpus(eps[:1]), 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := core.New(core.TestConfig(), testEnc).PS.Params()
	for i, p := range m.PS.Params() {
		for j, v := range p.Value {
			if v != initial[i].Value[j] {
				return
			}
		}
	}
	t.Fatal("a one-plan boot kept every initial weight: it trained on no plan")
}

// TestNoTrueCostIsFloored: the cost head's q-error floor sits below every
// node's true cost in the daemon's default training corpus, so the loss, the
// normalizer and validation see each sub-millisecond plan's real error.
func TestNoTrueCostIsFloored(t *testing.T) {
	nodes, cheapest := 0, math.Inf(1)
	for _, s := range defaultCorpus(t) {
		s.Plan.Walk(func(n *plan.Node) {
			nodes++
			cheapest = math.Min(cheapest, n.TrueCost)
		})
	}
	if nodes == 0 || cheapest < nn.CostFloor {
		t.Fatalf("cheapest of %d nodes costs %g ms, below the %g ms cost floor", nodes, cheapest, nn.CostFloor)
	}
}

// defaultCorpus labels the daemon's training corpus at default flags, on
// the daemon's own substrate.
func defaultCorpus(t *testing.T) []*workload.Labeled {
	labeled, _ := defaultSubstrate(t)
	return labeled
}

// defaultSubstrate is defaultCorpus with the encoder the daemon encodes it
// with.
func defaultSubstrate(t *testing.T) ([]*workload.Labeled, *feature.Encoder) {
	t.Helper()
	var o options
	if err := newFlagSet(&o).Parse(nil); err != nil {
		t.Fatal(err)
	}
	db, cat, enc := substrate(o.scale)
	lab := &workload.Labeler{Planner: planner.New(pg.New(cat), db.Schema), Engine: exec.NewEngine(db)}
	return lab.Label(workload.TrainingNumeric(db, seed, o.queries)), enc
}

// TestGoldenFeatureBits pins every feature bit of the daemon's default
// corpus as its training path encodes it (Encoder.Encode): the FNV-64a hash
// of every float of every encoded node and the child indices beside them,
// plan after plan. ID is left out: its seeds are drawn per process.
func TestGoldenFeatureBits(t *testing.T) {
	const want = 0x134c1c39c9579059
	labeled, enc := defaultSubstrate(t)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	floats := func(v []float64) {
		put(uint64(len(v)))
		for _, f := range v {
			put(math.Float64bits(f))
		}
	}
	for _, s := range labeled {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(ep.Nodes)))
		for _, n := range ep.Nodes {
			floats(n.Op)
			floats(n.Meta)
			floats(n.Bitmap)
			put(uint64(len(n.Pred.Nodes)))
			for _, p := range n.Pred.Nodes {
				floats(p.Vec)
				put(uint64(int64(p.Left)))
				put(uint64(int64(p.Right)))
			}
			put(uint64(int64(n.Left)))
			put(uint64(int64(n.Right)))
		}
	}
	if h.Sum64() != want {
		t.Fatalf("the %d plans' features hash to %#x, want %#x", len(labeled), h.Sum64(), uint64(want))
	}
}

// TestGoldenLabels pins every label of the daemon's default corpus: the
// FNV-64a hash of each node's TrueRows and TrueCost bits, in pre-order, plan
// after plan. The pinned value is that of an executor that builds every
// join, so counting the join under an Aggregate, or any other executor
// change, fails here if it moves a single label bit.
func TestGoldenLabels(t *testing.T) {
	const want = 0x765d21ad1d97c1a6
	labeled := defaultCorpus(t)
	h := fnv.New64a()
	var buf [16]byte
	for _, s := range labeled {
		s.Plan.Walk(func(n *plan.Node) {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(n.TrueRows))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(n.TrueCost))
			h.Write(buf[:])
		})
	}
	if len(labeled) != 240 || h.Sum64() != want {
		t.Fatalf("%d labeled plans hash to %#x, want 240 plans hashing to %#x", len(labeled), h.Sum64(), uint64(want))
	}
}

// TestLoadOrTrainCorruptCheckpointFallsBackToTraining: a corrupt checkpoint
// with no loadable fallback must not crash-loop the daemon — it retrains
// from the workload and overwrites the bad file with a good one.
func TestLoadOrTrainCorruptCheckpointFallsBackToTraining(t *testing.T) {
	_, eps := testCorpus(t, 402, 16)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := os.WriteFile(path, []byte("COSTESTM torn beyond repair"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := loadOrTrain(path, testEnc, fixedCorpus(eps), 2)
	if err != nil {
		t.Fatalf("corrupt checkpoint was fatal: %v", err)
	}
	if m == nil {
		t.Fatal("no model trained")
	}
	// The retrained model replaced the corrupt file atomically: the next
	// boot cold-loads it.
	got, src, err := core.LoadCheckpoint(path, testEnc)
	if err != nil {
		t.Fatalf("checkpoint not replaced after corrupt boot: %v", err)
	}
	if src != path {
		t.Fatalf("loaded from %s, want primary", src)
	}
	c1, d1 := m.Estimate(eps[0])
	c2, d2 := got.Estimate(eps[0])
	if c1 != c2 || d1 != d2 {
		t.Fatal("replacement checkpoint does not match the trained model")
	}
}

// TestLoadOrTrainInjectedReadFault: the same fallback driven by fault
// injection instead of on-disk corruption — an I/O layer that fails every
// read (both primary and .prev) still boots the daemon via fresh training.
func TestLoadOrTrainInjectedReadFault(t *testing.T) {
	_, eps := testCorpus(t, 403, 16)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if _, err := loadOrTrain(path, testEnc, fixedCorpus(eps), 2); err != nil {
		t.Fatalf("seed boot: %v", err)
	}

	fault.Enable(fault.New(5).Add(fault.Rule{Site: fault.SiteCheckpointRead, Kind: fault.Error}))
	defer fault.Disable()
	m, err := loadOrTrain(path, testEnc, fixedCorpus(eps), 2)
	if err != nil {
		t.Fatalf("unreadable checkpoint was fatal: %v", err)
	}
	if m == nil {
		t.Fatal("no model trained under read faults")
	}
}

// TestFaultSpecFlagParses pins the -faults flag's spec syntax end to end
// (the smoke test depends on it).
func TestFaultSpecFlagParses(t *testing.T) {
	inj, err := fault.ParseSpec("daemon.retrain:panic:count=2;serve.batch:error:after=5:count=4;checkpoint.rename:crash:count=1", 7)
	if err != nil {
		t.Fatalf("spec rejected: %v", err)
	}
	if inj == nil {
		t.Fatal("nil injector")
	}
	if _, err := fault.ParseSpec("serve.batch:explode", 7); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("bad kind accepted: %v", err)
	}
	if _, err := fault.ParseSpec("serve.bach:error", 7); err == nil || !strings.Contains(err.Error(), `unknown site "serve.bach"`) {
		t.Fatalf("unregistered site accepted: %v", err)
	}
}

// TestFlagSurface pins the daemon's option surface to exactly these flags. A
// new flag must be added to this list, so every added knob shows in review.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "checkpoint", "epochs", "faults", "gate-slack", "heartbeat",
		"lease", "peers", "promote-rank", "queries", "replicate-listen",
		"replicate-token", "retrain", "scale",
	}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("costestd registers %d flags:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, " "), len(want), strings.Join(want, " "))
	}
}

// TestBootRefusesNonFiniteWeights: a primary must not boot holding a NaN
// weight and hand followers a bootstrap snapshot they refuse forever. Here
// the weight comes from a checkpoint, which the loader refuses; at -epochs 0
// the daemon cannot retrain instead, so it exits at boot and says why. The daemon runs as a child process: this test binary re-executed with
// COSTESTD_TEST_MAIN holding main's arguments.
func TestBootRefusesNonFiniteWeights(t *testing.T) {
	if args, ok := os.LookupEnv("COSTESTD_TEST_MAIN"); ok {
		os.Args = append([]string{"costestd"}, strings.Fields(args)...)
		main()
		return
	}
	var o options
	newFlagSet(&o).Parse(nil)
	_, _, enc := substrate(o.scale)
	m := core.New(core.TestConfig(), enc)
	m.PS.Params()[0].Value[0] = math.NaN()
	path := filepath.Join(t.TempDir(), "nan.ckpt")
	if err := core.SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := osexec.CommandContext(ctx, os.Args[0], "-test.run=^TestBootRefusesNonFiniteWeights$")
	cmd.Env = append(os.Environ(), "COSTESTD_TEST_MAIN=-addr 127.0.0.1:0 -replicate-listen 127.0.0.1:0 -epochs 0 -checkpoint "+path)
	out, err := cmd.CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("daemon with NaN weights: %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "CHECKPOINT UNRECOVERABLE") || !strings.Contains(string(out), "non-finite") {
		t.Fatalf("daemon exited without saying why:\n%s", out)
	}
	if strings.Contains(string(out), "labeled") {
		t.Fatalf("a checkpoint boot that never trains built the training corpus:\n%s", out)
	}
}
