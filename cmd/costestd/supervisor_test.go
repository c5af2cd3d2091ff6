package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/nn"
	"costest/internal/serve"
)

// waitFor polls cond for up to 10s — chaos timing is nondeterministic by
// design, assertions wait for the state instead of sleeping for it.
func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// param returns the model parameter called name.
func param(tb testing.TB, ps *nn.ParamSet, name string) *nn.Param {
	tb.Helper()
	for _, p := range ps.Params() {
		if p.Name == name {
			return p
		}
	}
	tb.Fatalf("no parameter %q", name)
	return nil
}

// TestSupervisorPanicRecoveryBackoffThenPublish: injected retrain panics are
// contained (backoff restarts, counted), and once the fault clears the loop
// recovers and publishes — all while concurrent /estimate load is served
// without interruption.
func TestSupervisorPanicRecoveryBackoffThenPublish(t *testing.T) {
	plans, eps := testCorpus(t, 501, 24)
	srv, tr, sched, svc := testStack(t, eps, serve.SchedulerConfig{QueueDepth: 64, MaxBatch: 16})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})

	sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
	sup.Interval = time.Millisecond
	sup.GateSlack = -1 // gate is the next test's subject
	sup.BackoffBase = 2 * time.Millisecond
	sup.BackoffMax = 10 * time.Millisecond
	sup.logf = t.Logf

	// The first two cycles panic inside the trainer; the rest succeed.
	fault.Enable(fault.New(3).Add(fault.Rule{Site: fault.SiteDaemonRetrain, Kind: fault.Panic, Count: 2}))
	defer fault.Disable()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sup.run(ctx) }()

	// Concurrent serving load for the supervisor's whole arc.
	var wg sync.WaitGroup
	stopLoad := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				body, _ := json.Marshal(map[string]any{"plan": serve.EncodeWire(plans[(w+i)%len(plans)])})
				resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("load worker %d: %v", w, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("load worker %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	waitFor(t, "2 contained panics", func() bool { return sup.panics.Load() == 2 })
	waitFor(t, "post-panic publish", func() bool { return sup.publishes.Load() >= 1 })
	close(stopLoad)
	wg.Wait()
	cancel()
	<-done

	if got := sup.failures.Load(); got != 2 {
		t.Fatalf("failures=%d, want exactly the 2 injected panics", got)
	}
	st := sup.stats().(supervisorStats)
	if st.Panics != 2 || st.Publishes < 1 {
		t.Fatalf("stats %+v: want 2 panics and >=1 publish", st)
	}
	if sst := sched.Stats(); sst.Admitted != sst.Served+sst.Expired+sst.Failed {
		t.Fatalf("drain contract under supervisor churn: admitted %d != served %d + expired %d + failed %d",
			sst.Admitted, sst.Served, sst.Expired, sst.Failed)
	}
}

// TestSupervisorGateRejectsRegression: a candidate whose held-out Q-error
// regresses past the slack never reaches the serving path — the served
// version stays put and the skip is counted. Disabling the gate publishes
// the same candidate.
func TestSupervisorGateRejectsRegression(t *testing.T) {
	_, eps := testCorpus(t, 502, 24)
	srv, tr, sched, _ := testStack(t, eps, serve.SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	t.Cleanup(sched.Close)

	sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
	sup.GateSlack = 0.10
	sup.logf = t.Logf

	// Force the baseline to an unbeatable Q-error: every candidate is a
	// regression (real Q-errors are >= 1 by construction).
	sup.pubQBits.Store(math.Float64bits(1e-9))
	v0 := srv.Version()
	if err := sup.cycle(context.Background(), tr); err != nil {
		t.Fatalf("gated cycle errored: %v", err)
	}
	if got := srv.Version(); got != v0 {
		t.Fatalf("gated candidate was published: v%d -> v%d", v0, got)
	}
	if sup.gateSkipped.Load() != 1 || sup.publishes.Load() != 0 {
		t.Fatalf("skipped=%d publishes=%d, want 1/0", sup.gateSkipped.Load(), sup.publishes.Load())
	}

	// Same candidate, gate disabled: publishes and advances the baseline.
	sup.GateSlack = -1
	if err := sup.cycle(context.Background(), tr); err != nil {
		t.Fatalf("ungated cycle errored: %v", err)
	}
	if got := srv.Version(); got == v0 {
		t.Fatal("ungated cycle did not publish")
	}
	if sup.publishes.Load() != 1 {
		t.Fatalf("publishes=%d, want 1", sup.publishes.Load())
	}
	if q := sup.pubQ(); q == 1e-9 {
		t.Fatal("publish did not advance the gate baseline")
	}
}

// TestSupervisorRefusesNonFiniteCandidate: a candidate with a non-finite
// weight has NaN loss and NaN validation Q-error, and NaN compares false
// against every gate threshold — so it must be refused before the
// comparison, with the gate on and with it off. The cycle counts as a
// failure (backoff, never a publish), the baseline stays put, and the served
// snapshot keeps answering finite estimates.
func TestSupervisorRefusesNonFiniteCandidate(t *testing.T) {
	for _, slack := range []float64{0.10, -1} {
		_, eps := testCorpus(t, 504, 24)
		srv, tr, sched, _ := testStack(t, eps, serve.SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
		t.Cleanup(sched.Close)

		sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
		sup.Interval = time.Millisecond
		sup.GateSlack = slack
		sup.BackoffBase = time.Hour // exactly one cycle runs before the test ends
		sup.BackoffMax = time.Hour
		sup.logf = t.Logf
		// run anchors the gate at the served model's Q-error.
		v0 := srv.Version()
		_, valid := split(sup.corpus())
		q0, _ := tr.M.ValidationError(valid)

		// Poison one weight on the cost head's path; stamp it so a delta
		// publish would carry it.
		param(t, tr.M.PS, "est.cost.h.W").Value[0] = math.NaN()
		tr.M.PS.MarkAllUpdated()

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); sup.run(ctx) }()
		waitFor(t, "the poisoned cycle to finish", func() bool {
			return sup.failures.Load()+sup.publishes.Load()+sup.gateSkipped.Load() > 0
		})
		cancel()
		<-done

		if got := srv.Version(); got != v0 {
			t.Fatalf("slack %v: non-finite candidate was published: v%d -> v%d", slack, v0, got)
		}
		if sup.failures.Load() != 1 || sup.publishes.Load() != 0 {
			t.Fatalf("slack %v: failures=%d publishes=%d, want 1/0", slack, sup.failures.Load(), sup.publishes.Load())
		}
		if sup.pubQ() != q0 {
			t.Fatalf("slack %v: gate baseline moved to %v", slack, sup.pubQ())
		}
		for i, ep := range eps[:4] {
			cost, card, _ := serveOne(srv, ep)
			if !isFinite(cost) || !isFinite(card) {
				t.Fatalf("slack %v: plan %d served (%v, %v)", slack, i, cost, card)
			}
		}
	}
}

// TestSupervisorCountsRefusedPublication: a -Inf bias in front of a ReLU
// keeps the loss and the validation Q-error finite, so the candidate passes
// the supervisor's own checks. PublishDelta must refuse it, and the
// supervisor must count the cycle as a failure — not a publish, and with no
// checkpoint of the unchanged model.
func TestSupervisorCountsRefusedPublication(t *testing.T) {
	_, eps := testCorpus(t, 505, 24)
	srv, tr, sched, _ := testStack(t, eps, serve.SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	t.Cleanup(sched.Close)

	sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
	sup.Interval = time.Millisecond
	sup.GateSlack = -1
	sup.CheckpointPath = filepath.Join(t.TempDir(), "model.ckpt")
	sup.BackoffBase = time.Hour // exactly one cycle runs before the test ends
	sup.BackoffMax = time.Hour
	sup.logf = t.Logf
	v0 := srv.Version()

	param(t, tr.M.PS, "embed.op.B").Value[0] = math.Inf(-1)
	tr.M.PS.MarkAllUpdated()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sup.run(ctx) }()
	waitFor(t, "the poisoned cycle to finish", func() bool {
		return sup.failures.Load()+sup.publishes.Load() > 0
	})
	cancel()
	<-done

	if got := srv.Version(); got != v0 {
		t.Fatalf("infinite weights were published: v%d -> v%d", v0, got)
	}
	if n := srv.PublishesRefused(); n != 1 {
		t.Fatalf("PublishesRefused = %d, want 1 (the candidate should pass the supervisor's own checks)", n)
	}
	if sup.failures.Load() != 1 || sup.publishes.Load() != 0 || sup.checkpoints.Load() != 0 {
		t.Fatalf("failures=%d publishes=%d checkpoints=%d, want 1/0/0",
			sup.failures.Load(), sup.publishes.Load(), sup.checkpoints.Load())
	}
}

// TestSupervisorPublishesNothingAfterTermEnds: a primary term can end in the
// middle of a cycle — the daemon drains, or a promoted member is fenced and
// the model is about to get a new writer. A daemon.retrain latency fault
// holds the cycle while ctx is canceled; the cycle must then publish
// nothing.
func TestSupervisorPublishesNothingAfterTermEnds(t *testing.T) {
	_, eps := testCorpus(t, 506, 24)
	srv, tr, sched, _ := testStack(t, eps, serve.SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	t.Cleanup(sched.Close)

	sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
	sup.Interval = time.Millisecond
	sup.GateSlack = -1 // every finished cycle would publish
	sup.logf = t.Logf
	v0 := srv.Version()

	fault.Enable(fault.New(7).Add(fault.Rule{
		Site: fault.SiteDaemonRetrain, Kind: fault.Latency, Delay: 200 * time.Millisecond, Count: 1,
	}))
	defer fault.Disable()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sup.run(ctx) }()
	waitFor(t, "the held cycle", func() bool { return sup.cycles.Load() == 1 })
	cancel()
	<-done

	if got := srv.Version(); got != v0 || sup.publishes.Load() != 0 {
		t.Fatalf("cycle published after its term ended: v%d -> v%d, %d publishes", v0, got, sup.publishes.Load())
	}
	if sup.failures.Load() != 0 {
		t.Fatalf("failures=%d: an ended term is not a failed cycle", sup.failures.Load())
	}
}

// TestSupervisorCheckpointsPublishedModel: each due publish saves a
// crash-safe checkpoint that cold-loads to the exact published weights, and
// an injected checkpoint write failure is absorbed (counted, last-good
// intact) rather than fatal.
func TestSupervisorCheckpointsPublishedModel(t *testing.T) {
	_, eps := testCorpus(t, 503, 24)
	srv, tr, sched, _ := testStack(t, eps, serve.SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	t.Cleanup(sched.Close)

	sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
	sup.GateSlack = -1
	sup.CheckpointPath = filepath.Join(t.TempDir(), "model.ckpt")
	sup.logf = t.Logf

	if err := sup.cycle(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if sup.checkpoints.Load() != 1 {
		t.Fatalf("checkpoints=%d, want 1", sup.checkpoints.Load())
	}
	m, _, err := core.LoadCheckpoint(sup.CheckpointPath, testEnc)
	if err != nil {
		t.Fatalf("published checkpoint unloadable: %v", err)
	}
	snap := srv.AcquireSnapshot()
	defer srv.ReleaseSnapshot(snap)
	for i, ep := range eps[:4] {
		c1, d1 := snap.Model().Estimate(ep)
		c2, d2 := m.Estimate(ep)
		if c1 != c2 || d1 != d2 {
			t.Fatalf("plan %d: checkpoint diverges from published snapshot", i)
		}
	}

	// Injected write failure: absorbed, counted, last-good intact.
	fault.Enable(fault.New(5).Add(fault.Rule{Site: fault.SiteCheckpointWrite, Kind: fault.Error, Count: 1}))
	err = sup.cycle(context.Background(), tr)
	fault.Disable()
	if err != nil {
		t.Fatalf("checkpoint write fault escaped the cycle: %v", err)
	}
	if sup.ckptErrors.Load() != 1 {
		t.Fatalf("checkpoint_errors=%d, want 1", sup.ckptErrors.Load())
	}
	if _, _, err := core.LoadCheckpoint(sup.CheckpointPath, testEnc); err != nil {
		t.Fatalf("failed save corrupted the last-good checkpoint: %v", err)
	}
}
