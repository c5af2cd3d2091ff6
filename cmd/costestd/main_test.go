package main

import (
	"context"
	"errors"
	"flag"
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

// testStack builds a served, quick-trained model over the corpus: server,
// started scheduler, HTTP service — the daemon's serving stack minus main().
func testStack(tb testing.TB, eps []*feature.EncodedPlan, cfg serve.SchedulerConfig) (*core.Server, *core.ParallelTrainer, *serve.Scheduler, *serve.Service) {
	tb.Helper()
	m := core.New(core.TestConfig(), testEnc)
	tr := core.NewParallelTrainer(m, 1)
	tb.Cleanup(tr.Close)
	tr.FitNormalizers(eps)
	tr.TrainEpochParallel(eps, 8, 1)
	srv := core.NewServer(m, core.NewBoundedMemoryPool(2048))
	sched := serve.NewScheduler(srv, cfg)
	sched.Start()
	svc := serve.NewService(sched, srv, testEnc)
	svc.SetReady(true)
	return srv, tr, sched, svc
}

// TestLoadOrTrainRoundTrip: a fresh path trains and saves; a second boot
// cold-loads the identical model.
func TestLoadOrTrainRoundTrip(t *testing.T) {
	_, eps := testCorpus(t, 401, 16)
	path := filepath.Join(t.TempDir(), "model.ckpt")

	m1, err := loadOrTrain(path, testEnc, eps, 2, 1, 0)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	m2, err := loadOrTrain(path, testEnc, eps, 2, 1, 0)
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

// TestLoadOrTrainCorruptCheckpointFallsBackToTraining: a corrupt checkpoint
// with no loadable fallback must not crash-loop the daemon — it retrains
// from the workload and overwrites the bad file with a good one.
func TestLoadOrTrainCorruptCheckpointFallsBackToTraining(t *testing.T) {
	_, eps := testCorpus(t, 402, 16)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := os.WriteFile(path, []byte("COSTESTM torn beyond repair"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := loadOrTrain(path, testEnc, eps, 2, 1, 0)
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
	if _, err := loadOrTrain(path, testEnc, eps, 2, 1, 0); err != nil {
		t.Fatalf("seed boot: %v", err)
	}

	fault.Enable(fault.New(5).Add(fault.Rule{Site: "checkpoint.read", Kind: fault.Error}))
	defer fault.Disable()
	m, err := loadOrTrain(path, testEnc, eps, 2, 1, 0)
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
}

// TestFlagSurface pins the daemon's option surface to exactly these flags. A
// new flag must be added to this list, so every added knob shows in review.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "checkpoint", "epochs", "fault-seed", "faults", "gate-slack",
		"heartbeat", "lease", "patience", "peers", "promote-rank", "queries",
		"replicate-listen", "replicate-token", "retrain", "scale", "seed", "shards",
	}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("costestd registers %d flags:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, " "), len(want), strings.Join(want, " "))
	}
}

// TestBootRefusesNonFiniteWeights: a primary that would boot holding a NaN
// weight (here from a checkpoint, which loads it) must not hand followers a
// bootstrap snapshot they refuse forever; the daemon exits at boot and says
// why. The daemon runs as a child process: this test binary re-executed with
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
	cmd.Env = append(os.Environ(), "COSTESTD_TEST_MAIN=-addr 127.0.0.1:0 -replicate-listen 127.0.0.1:0 -checkpoint "+path)
	out, err := cmd.CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("daemon with NaN weights: %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "refusing to publish") || !strings.Contains(string(out), "non-finite") {
		t.Fatalf("daemon exited without saying why:\n%s", out)
	}
}
