package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
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
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 30, SampleSize: 48, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
	testEnc = feature.NewEncoder(testCat, strembed.HashEmbedder{DimN: 12}, true)
)

// countNodes returns the number of nodes in the plan tree.
func countNodes(n *plan.Node) int {
	c := 0
	n.Walk(func(*plan.Node) { c++ })
	return c
}

// testCorpus labels a small plan corpus and returns both the physical plans
// (for wire-format tests) and their encodings.
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

// testServer builds a trained server plus its trainer (for publish-churn
// tests) over a generation-tagged bounded pool.
func testServer(tb testing.TB, eps []*feature.EncodedPlan) (*core.Server, *core.ParallelTrainer) {
	tb.Helper()
	m := core.New(core.TestConfig(), testEnc)
	tr := core.NewParallelTrainer(m, 1)
	tb.Cleanup(tr.Close)
	tr.FitNormalizers(eps)
	tr.TrainEpochParallel(eps, 8)
	srv := core.NewServer(m, core.NewBoundedMemoryPool(2048))
	return srv, tr
}

// heldSnapshot acquires srv's current snapshot and holds it until the test
// ends, so its weights stay frozen across any later publishes.
func heldSnapshot(tb testing.TB, srv *core.Server) *core.ModelSnapshot {
	snap := srv.AcquireSnapshot()
	tb.Cleanup(func() { srv.ReleaseSnapshot(snap) })
	return snap
}

// oneSlot runs the calling test with GOMAXPROCS 1, so the schedulers it
// builds have a single run slot: one busy run is enough to make every later
// group wait, which is how tests stage a backlog deterministically.
func oneSlot(tb testing.TB) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(1)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// slotState is how many of s's run slots are held right now (by a runner, or
// in hand-off to a waiting group), and whether a slot sits idle while groups
// wait — which would strand them.
func slotState(s *Scheduler) (held int, idleWhileWaiting bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots) - len(s.free), len(s.free) > 0 && len(s.waiting) > 0
}

// waitStats polls until the scheduler's counters satisfy ok — the
// deterministic way to stage tests against what the runners have (not) done
// yet.
func waitStats(tb testing.TB, s *Scheduler, what string, ok func(SchedulerStats) bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(s.Stats()) {
		if time.Now().After(deadline) {
			tb.Fatalf("never reached %s: %+v", what, s.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitDepth waits until want plans wait for a run slot.
func waitDepth(tb testing.TB, s *Scheduler, want int) {
	tb.Helper()
	waitStats(tb, s, fmt.Sprintf("queue depth %d", want), func(st SchedulerStats) bool { return st.QueueDepth == want })
}

// waitPickedUp waits until the admitted-th admitted plan has left the queue
// for a run slot (and, in tests that inject batch latency, sits in the run).
func waitPickedUp(tb testing.TB, s *Scheduler, admitted uint64) {
	tb.Helper()
	waitStats(tb, s, fmt.Sprintf("request %d picked up", admitted), func(st SchedulerStats) bool {
		return st.Admitted == admitted && st.QueueDepth == 0
	})
}

// TestSchedulerCoalescesIntoOneBatch stages 16 concurrent requests against an
// unstarted scheduler, then starts it: everything already waiting must be
// served by a single EstimateBatch call, each response bit-identical to a
// single-threaded evaluation of the served snapshot and stamped with its
// version.
func TestSchedulerCoalescesIntoOneBatch(t *testing.T) {
	_, eps := testCorpus(t, 101, 20)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 32, MaxBatch: 32})

	const n = 16
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(), eps[i%len(eps)])
		}(i)
	}
	waitDepth(t, s, n)
	s.Start()
	wg.Wait()
	defer s.Close()

	snap := heldSnapshot(t, srv)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i].Version != snap.Version() {
			t.Fatalf("request %d served version %d, want %d", i, results[i].Version, snap.Version())
		}
		c, d := snap.Model().Estimate(eps[i%len(eps)])
		if results[i].Cost != c || results[i].Card != d {
			t.Fatalf("request %d: batched estimate (%g,%g) != single-threaded (%g,%g)",
				i, results[i].Cost, results[i].Card, c, d)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.MeanBatch != n {
		t.Fatalf("16 staged requests dispatched as %d batches (mean %.1f), want 1 of %d",
			st.Batches, st.MeanBatch, n)
	}
	if st.Served != n || st.Admitted != n {
		t.Fatalf("stats = %+v, want %d admitted and served", st, n)
	}
}

// TestSchedulerBatchesWhileBusy: natural batching survives without a window.
// A latency fault holds the only run slot in the estimator; the n submits
// that arrive meanwhile wait behind it and are coalesced into the next run,
// not served one by one.
func TestSchedulerBatchesWhileBusy(t *testing.T) {
	oneSlot(t)
	_, eps := testCorpus(t, 106, 20)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 32, MaxBatch: 32})
	fault.Enable(fault.New(1).Add(fault.Rule{
		Site: fault.SiteServeBatch, Kind: fault.Latency, Delay: 200 * time.Millisecond, Count: 1}))
	defer fault.Disable()
	s.Start()
	defer s.Close()

	const n = 16
	errs := make([]error, n+1)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), eps[i%len(eps)])
		}()
	}
	submit(n)
	waitPickedUp(t, s, 1) // the first run now sits in the injected delay
	for i := 0; i < n; i++ {
		submit(i)
	}
	waitDepth(t, s, n)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Served != n+1 || st.Batches > 3 || st.MeanBatch <= 1 {
		t.Fatalf("%d requests behind a busy run slot: served %d in %d batches (mean %.1f), want <= 3 batches",
			n+1, st.Served, st.Batches, st.MeanBatch)
	}
}

// TestSchedulerLoneRequestNotDelayed: on an idle scheduler a lone Submit is
// a batch of one, run at once on the caller's goroutine — every sequential
// submit advances Batches and RunsInline by exactly one — and no timer exists
// in Scheduler for a batching window to come back through.
func TestSchedulerLoneRequestNotDelayed(t *testing.T) {
	_, eps := testCorpus(t, 107, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{})
	s.Start()
	defer s.Close()

	for i := 0; i < 200; i++ {
		if _, err := s.Submit(context.Background(), eps[i%len(eps)]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st := s.Stats(); st.Batches != uint64(i+1) || st.RunsInline != uint64(i+1) {
			t.Fatalf("after %d sequential submits: %d batches, %d inline, want one inline run per submit", i+1, st.Batches, st.RunsInline)
		}
	}
	if st := s.Stats(); st.MeanBatch != 1 || st.MeanBatchUS <= 0 {
		t.Fatalf("lone requests: mean batch %.2f (%.1f us), want 1 and a measured time", st.MeanBatch, st.MeanBatchUS)
	}

	var walk func(path string, typ reflect.Type)
	seen := map[reflect.Type]bool{}
	walk = func(path string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ == reflect.TypeOf(time.Timer{}) || typ == reflect.TypeOf(time.Ticker{}) {
			t.Errorf("%s is a %v: the scheduler must not wait on a clock", path, typ)
		}
		if typ.Kind() != reflect.Struct || typ.PkgPath() != reflect.TypeOf(s).Elem().PkgPath() || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
		}
	}
	walk("Scheduler", reflect.TypeOf(s))
}

// TestSchedulerAdmissionControl pins the bounded-queue contract: a full
// queue rejects immediately with ErrOverloaded (no blocking, no growth), the
// rejected request is gone for good, and everything admitted before the
// rejection still completes once the run slots open.
func TestSchedulerAdmissionControl(t *testing.T) {
	_, eps := testCorpus(t, 102, 8)
	srv, _ := testServer(t, eps)
	const depth = 4
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: depth, MaxBatch: 8})

	var wg sync.WaitGroup
	errs := make([]error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), eps[0])
		}(i)
	}
	waitDepth(t, s, depth)

	start := time.Now()
	if _, err := s.Submit(context.Background(), eps[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit to full queue returned %v, want ErrOverloaded", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("overload rejection took %v; admission must not block", since)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}

	s.Start()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
	s.Close()
	if _, err := s.Submit(context.Background(), eps[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Close returned %v, want ErrDraining", err)
	}
}

// TestSchedulerDeadlineExpiry: a request whose context dies while queued is
// answered with the context error before batch dispatch — it never occupies
// a place in the model call and is never served late. Fresh requests on the
// same scheduler keep working.
func TestSchedulerDeadlineExpiry(t *testing.T) {
	_, eps := testCorpus(t, 103, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 8, MaxBatch: 8})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var expiredErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, expiredErr = s.Submit(ctx, eps[0])
	}()
	waitDepth(t, s, 1)
	cancel() // the request is queued; kill it before any slot is open
	s.Start()
	wg.Wait()
	defer s.Close()

	if !errors.Is(expiredErr, context.Canceled) {
		t.Fatalf("expired request returned %v, want context.Canceled", expiredErr)
	}
	st := s.Stats()
	if st.Expired != 1 || st.Batches != 0 {
		t.Fatalf("stats after expiry = %+v, want 1 expired and 0 batches", st)
	}
	if _, err := s.Submit(context.Background(), eps[1]); err != nil {
		t.Fatalf("live request after an expiry failed: %v", err)
	}
}

// TestSchedulerPanicRecovery poisons a batch with an unservable plan: the
// batch's requests fail with an error, the scheduler survives, and the next
// request is served normally — a panic fails only the affected requests.
func TestSchedulerPanicRecovery(t *testing.T) {
	_, eps := testCorpus(t, 104, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 8, MaxBatch: 8})
	s.Start()
	defer s.Close()

	poison := &feature.EncodedPlan{Nodes: make([]feature.EncodedNode, 1), Root: 7}
	if _, err := s.Submit(context.Background(), poison); err == nil {
		t.Fatal("poisoned plan was served without error")
	}
	if st := s.Stats(); st.Panics != 1 || st.Failed != 1 {
		t.Fatalf("stats after poison = %+v, want 1 panic and 1 failed", st)
	}
	res, err := s.Submit(context.Background(), eps[0])
	if err != nil {
		t.Fatalf("request after a panic failed: %v", err)
	}
	if res.Version == 0 {
		t.Fatal("request after a panic served version 0")
	}
}

// TestDrainContractUnderLoad is the graceful-drain acceptance test, run
// under -race in CI: sustained concurrent load, a trainer continuously
// delta-publishing mid-flight, and a Close racing all of it. Every admitted
// request must complete with no error and a result bit-identical to a
// single-threaded evaluation of the snapshot version it reports; admission
// after the drain begins fails fast; nothing is dropped after admission.
func TestDrainContractUnderLoad(t *testing.T) {
	_, eps := testCorpus(t, 105, 24)
	srv, tr := testServer(t, eps)
	// Each run holds its slot for a millisecond, so the loaders queue behind
	// it and the coalescing check below does not depend on CPU contention.
	fault.Enable(fault.New(1).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Latency, Delay: time.Millisecond}))
	defer fault.Disable()
	s := NewScheduler(srv, SchedulerConfig{
		QueueDepth: 64,
		MaxBatch:   8,
	})
	s.Start()

	// Hold every published snapshot so each reported version can be
	// replayed bit for bit after the fact.
	var versions sync.Map
	v1 := heldSnapshot(t, srv)
	versions.Store(v1.Version(), v1)

	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stopPub:
				return
			default:
			}
			tr.TrainEpochParallel(eps, 8)
			srv.PublishDelta(tr.M)
			snap := heldSnapshot(t, srv) // the only publisher: the version just published
			versions.Store(snap.Version(), snap)
		}
	}()

	type servedReq struct {
		ep  *feature.EncodedPlan
		res Result
	}
	const loaders = 8
	var (
		mu        sync.Mutex
		completed []servedReq
		rejected  int
	)
	var loadWG sync.WaitGroup
	for w := 0; w < loaders; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			for k := 0; ; k++ {
				ep := eps[(w*31+k)%len(eps)]
				res, err := s.Submit(context.Background(), ep)
				switch {
				case err == nil:
					mu.Lock()
					completed = append(completed, servedReq{ep, res})
					mu.Unlock()
				case errors.Is(err, ErrOverloaded):
					mu.Lock()
					rejected++
					mu.Unlock()
				case errors.Is(err, ErrDraining):
					return
				default:
					t.Errorf("loader %d: admitted request failed: %v", w, err)
					return
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	s.Close() // races the loaders and the publisher — that is the point
	loadWG.Wait()
	close(stopPub)
	pubWG.Wait()

	st := s.Stats()
	if st.Admitted != st.Served+st.Expired {
		t.Fatalf("dropped after admission: admitted %d != served %d + expired %d",
			st.Admitted, st.Served, st.Expired)
	}
	if st.Failed != 0 || st.Expired != 0 {
		t.Fatalf("drain must complete admitted work cleanly: %+v", st)
	}
	if uint64(len(completed)) != st.Served {
		t.Fatalf("loaders recorded %d completions, scheduler served %d", len(completed), st.Served)
	}
	if len(completed) == 0 {
		t.Fatal("no requests completed; load generator broken")
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("waiting groups were not coalesced under load: mean batch %.2f", st.MeanBatch)
	}

	// Bit-identity: every completed request replays exactly on the snapshot
	// version it reported, regardless of publish churn during its flight.
	distinct := map[uint64]bool{}
	for i, sr := range completed {
		v, ok := versions.Load(sr.res.Version)
		if !ok {
			t.Fatalf("request %d reported unknown version %d", i, sr.res.Version)
		}
		snap := v.(*core.ModelSnapshot)
		c, d := snap.Model().Estimate(sr.ep)
		if sr.res.Cost != c || sr.res.Card != d {
			t.Fatalf("request %d: served (%g,%g) at v%d, single-threaded replay (%g,%g)",
				i, sr.res.Cost, sr.res.Card, sr.res.Version, c, d)
		}
		distinct[sr.res.Version] = true
	}
	if len(distinct) < 2 {
		t.Logf("served %d requests all on one version; publish churn did not overlap load", len(completed))
	}
	t.Logf("drain contract held: %d served (%d rejected) across %d versions, mean batch %.2f, queue high water %d",
		len(completed), rejected, len(distinct), st.MeanBatch, st.QueueHighWater)
}
