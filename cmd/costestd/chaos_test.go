package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/serve"
)

// chaosEstimate is one recorded 200 response: which plan was asked, what
// came back on the wire.
type chaosEstimate struct {
	plan    int
	cost    float64
	card    float64
	version uint64
}

// wireResp mirrors the /estimate response shape for decoding.
type wireResp struct {
	Estimates []struct {
		Cost    float64 `json:"cost"`
		Card    float64 `json:"card"`
		Version uint64  `json:"version"`
	} `json:"estimates"`
}

// TestChaosAcceptance is the PR's acceptance scenario: a full serving stack
// with the supervisor retraining, under concurrent HTTP load, with injected
// retrain panics, checkpoint I/O errors and batch-estimate failures — all at
// once. The daemon must never crash, answer every admitted request, answer
// each failed batch's requests with a 500 and serve every 200
// bit-identically to the snapshot version it reports, serve again once the
// batch faults stop, and end with a cold-loadable checkpoint.
func TestChaosAcceptance(t *testing.T) {
	plans, eps := testCorpus(t, 601, 24)
	srv, tr, sched, svc := testStack(t, eps, serve.SchedulerConfig{
		QueueDepth: 128,
		MaxBatch:   8,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Pin every snapshot version that could answer a request, so each 200
	// can be replayed against the exact model that served it. The supervisor
	// is the only publisher, so acquiring right after a publish pins the
	// published version.
	var pinMu sync.Mutex
	pinned := map[uint64]*core.ModelSnapshot{}
	pin := func() {
		pinMu.Lock()
		defer pinMu.Unlock()
		snap := srv.AcquireSnapshot()
		if _, dup := pinned[snap.Version()]; dup {
			srv.ReleaseSnapshot(snap)
			return
		}
		pinned[snap.Version()] = snap
	}
	pin() // the initial model
	t.Cleanup(func() {
		for _, snap := range pinned {
			srv.ReleaseSnapshot(snap)
		}
	})

	sup := newSupervisor(srv, tr.M, fixedCorpus(eps))
	sup.Interval = 2 * time.Millisecond
	sup.GateSlack = -1 // every cycle publishes: maximum churn under the load
	sup.CheckpointPath = filepath.Join(t.TempDir(), "model.ckpt")
	sup.BackoffBase = 2 * time.Millisecond
	sup.BackoffMax = 10 * time.Millisecond
	sup.logf = t.Logf
	sup.onPublish = func(version uint64) { pin() }

	// The fault plan, all sites at once: the first two retrain cycles panic,
	// the first checkpoint write fails, and batches 6-9 of the serving path
	// error: four failing runs in a row, then recovery.
	fault.Enable(fault.New(99).
		Add(fault.Rule{Site: fault.SiteDaemonRetrain, Kind: fault.Panic, Count: 2}).
		Add(fault.Rule{Site: fault.SiteCheckpointWrite, Kind: fault.Error, Count: 1}).
		Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error, After: 5, Count: 4}))
	defer fault.Disable()

	ctx, cancel := context.WithCancel(context.Background())
	supDone := make(chan struct{})
	go func() { defer close(supDone); sup.run(ctx) }()

	// Concurrent HTTP load for the whole arc. Admission rejections (503) are
	// legal under chaos; anything else non-200 is not.
	var recMu sync.Mutex
	var recorded []chaosEstimate
	var failed500 atomic.Uint64 // requests answered 500 with the injected error
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
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
				idx := (w*7 + i) % len(plans)
				body, _ := json.Marshal(map[string]any{"plan": serve.EncodeWire(plans[idx])})
				resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("loader %d: %v", w, err)
					return
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					// A failed batch answers its requests with a 500 carrying
					// the injected error — allowed; anything else is not.
					if resp.StatusCode == http.StatusInternalServerError &&
						bytes.Contains(raw, []byte("injected error")) {
						failed500.Add(1)
						continue
					}
					t.Errorf("loader %d: status %d: %s", w, resp.StatusCode, raw)
					return
				}
				var wr wireResp
				err = json.NewDecoder(resp.Body).Decode(&wr)
				resp.Body.Close()
				if err != nil || len(wr.Estimates) != 1 {
					t.Errorf("loader %d: bad 200 body: %v", w, err)
					return
				}
				e := wr.Estimates[0]
				recMu.Lock()
				recorded = append(recorded, chaosEstimate{
					plan: idx, cost: e.Cost, card: e.Card, version: e.Version,
				})
				recMu.Unlock()
			}
		}(w)
	}

	// Wait out the whole arc: panics contained, the four failing batches
	// answered and serving resumed after them, checkpoint write failed once
	// and then succeeded.
	waitFor(t, "2 contained retrain panics", func() bool { return sup.panics.Load() == 2 })
	waitFor(t, "1 absorbed checkpoint error", func() bool { return sup.ckptErrors.Load() >= 1 })
	waitFor(t, "a good checkpoint", func() bool { return sup.checkpoints.Load() >= 1 })
	waitFor(t, "the 4 failing batches", func() bool { return fault.Calls(fault.SiteServeBatch) >= 9 && sched.Stats().Failed >= 4 })
	served := sched.Stats().Served
	waitFor(t, "serving after the failing batches", func() bool { return sched.Stats().Served > served })
	waitFor(t, "post-chaos publishes", func() bool { return sup.publishes.Load() >= 2 })

	close(stopLoad)
	wg.Wait()
	cancel()
	<-supDone
	sched.Close()

	// Admitted means answered, through every injected failure.
	st := sched.Stats()
	if st.Admitted != st.Served+st.Expired+st.Failed {
		t.Fatalf("drain contract: admitted %d != served %d + expired %d + failed %d",
			st.Admitted, st.Served, st.Expired, st.Failed)
	}
	// Each request carries one plan, so each failed plan is one 500.
	if st.Failed < 4 || st.Panics != 0 || failed500.Load() != st.Failed {
		t.Fatalf("failing batches: %d plans failed, %d panics, %d 500s; want ≥ 4 failed, each a 500, no panics",
			st.Failed, st.Panics, failed500.Load())
	}

	// Every 200 replays bit-identically against the snapshot version it
	// reported — the serving invariant holds across publishes, failed
	// batches and panic recovery.
	for _, r := range recorded {
		snap := pinned[r.version]
		if snap == nil {
			t.Fatalf("response reported unpinned version %d", r.version)
		}
		cost, card := snap.Model().Estimate(eps[r.plan])
		if cost != r.cost || card != r.card {
			t.Fatalf("plan %d v%d: wire (%g,%g) != replay (%g,%g)",
				r.plan, r.version, r.cost, r.card, cost, card)
		}
	}
	if len(recorded) == 0 {
		t.Fatal("no 200 responses recorded under load")
	}
	t.Logf("chaos: %d replayed responses, %d 500s, %d versions, stats %+v",
		len(recorded), failed500.Load(), len(pinned), st)

	// The surviving checkpoint cold-loads to the exact weights of some
	// pinned published version.
	m, src, err := core.LoadCheckpoint(sup.CheckpointPath, testEnc)
	if err != nil {
		t.Fatalf("final checkpoint unloadable: %v", err)
	}
	match := false
	for v, snap := range pinned {
		c1, d1 := snap.Model().Estimate(eps[0])
		c2, d2 := m.Estimate(eps[0])
		if c1 == c2 && d1 == d2 {
			t.Logf("chaos: checkpoint %s matches published v%d", src, v)
			match = true
			break
		}
	}
	if !match {
		t.Fatal("checkpoint matches no pinned published version")
	}
}
