package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costest/internal/fault"
	"costest/internal/feature"
)

// enumGroup encodes the 64-plan enumeration request the benchmark sends
// (8 queries × 8 join-operator variants).
func enumGroup(tb testing.TB) []*feature.EncodedPlan {
	tb.Helper()
	var eps []*feature.EncodedPlan
	for _, p := range enumVariants(tb, 7, 8, 8) {
		ep, err := testEnc.Encode(p)
		if err != nil {
			tb.Fatalf("encode: %v", err)
		}
		eps = append(eps, ep)
	}
	return eps
}

// TestGroupDeadlineWhileWaiting: a 64-plan request whose timeout passes while
// it waits for the only run slot is answered 504 as a whole when the slot
// frees — no estimate of it is run or written.
func TestGroupDeadlineWhileWaiting(t *testing.T) {
	oneSlot(t)
	plans, eps := testCorpus(t, 312, 8)
	srv, _ := testServer(t, eps)
	sched := NewScheduler(srv, SchedulerConfig{})
	sched.Start()
	defer sched.Close()
	svc := NewService(sched, srv, testEnc)
	svc.SetReady(true)
	ts := httptest2(t, svc)

	fault.Enable(fault.New(1).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Latency, Delay: 300 * time.Millisecond, Count: 1}))
	defer fault.Disable()
	held := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), eps[0])
		held <- err
	}()
	waitPickedUp(t, sched, 1)

	wire := make([]*WirePlan, 64)
	for i := range wire {
		wire[i] = EncodeWire(plans[i%len(plans)])
	}
	resp := postJSON(t, ts+"/estimate", estimateRequest{Plans: wire, TimeoutMS: 20})
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired group: status %d (%s), want 504", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "estimates") || !strings.Contains(string(body), "deadline exceeded") {
		t.Fatalf("expired group body %q: want the deadline error and no estimates", body)
	}
	if err := <-held; err != nil {
		t.Fatalf("the run holding the slot failed: %v", err)
	}
	if st := sched.Stats(); st.Expired != 64 || st.Served != 1 || st.Batches != 1 {
		t.Fatalf("stats %+v, want 64 plans expired, 1 served, 1 batch", st)
	}
}

// TestGroupDrainAnswersInFlight: Close with one group running and others
// waiting answers every admitted group — all of them served — before it
// returns, and refuses what comes after.
func TestGroupDrainAnswersInFlight(t *testing.T) {
	oneSlot(t)
	_, eps := testCorpus(t, 313, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 64, MaxBatch: 8})
	s.Start()

	fault.Enable(fault.New(1).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Latency, Delay: 200 * time.Millisecond, Count: 1}))
	defer fault.Disable()
	const groups = 6
	var wg sync.WaitGroup
	errs := make([]error, groups)
	for g := range groups {
		if g == 1 {
			waitPickedUp(t, s, 4) // group 0 holds the slot; the rest wait
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = s.SubmitGroup(context.Background(), eps[:4], make([]Result, 4))
		}()
	}
	waitDepth(t, s, 4*(groups-1))

	s.Close()
	// Every answer is in before Close returns (the submitters' returns trail
	// them by a moment).
	if st := s.Stats(); st.Groups != groups || st.Served != 4*groups || st.Admitted != st.Served {
		t.Fatalf("stats when Close returned %+v, want %d groups, every plan served", st, groups)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("admitted group %d: %v", g, err)
		}
	}
	if err := s.SubmitGroup(context.Background(), eps[:4], make([]Result, 4)); !errors.Is(err, ErrDraining) {
		t.Fatalf("group after Close: %v, want ErrDraining", err)
	}
}

// TestConcurrentGroupsWithinSlots: two callers sending 64-plan groups and
// four sending lone plans, every run slowed a little so they overlap, never
// hold more run slots than GOMAXPROCS, never leave a slot idle while a group
// waits, and every answer is the single-threaded estimate of the version it
// reports.
func TestConcurrentGroupsWithinSlots(t *testing.T) {
	_, eps := testCorpus(t, 314, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 512})
	s.Start()
	defer s.Close()
	group := enumGroup(t)
	snap := heldSnapshot(t, srv)

	fault.Enable(fault.New(1).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Latency, Delay: time.Millisecond}))
	defer fault.Disable()
	stop := make(chan struct{})
	var sampled, maxRuns atomic.Int64
	var stranded atomic.Bool
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			held, idle := slotState(s)
			if int64(held) > maxRuns.Load() {
				maxRuns.Store(int64(held))
			}
			if idle {
				stranded.Store(true)
			}
			sampled.Add(1)
			time.Sleep(20 * time.Microsecond)
		}
	}()

	check := func(ep *feature.EncodedPlan, r Result) {
		c, d := snap.Model().Estimate(ep)
		if r.Cost != c || r.Card != d || r.Version != snap.Version() {
			t.Errorf("served %+v, single-threaded (%g,%g) at v%d", r, c, d, snap.Version())
		}
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Result, len(group))
			for range 10 {
				if err := s.SubmitGroup(context.Background(), group, out); err != nil {
					t.Errorf("group: %v", err)
					return
				}
				for i, r := range out {
					check(group[i], r)
				}
			}
		}()
	}
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 40 {
				ep := eps[(w+k)%len(eps)]
				r, err := s.Submit(context.Background(), ep)
				if err != nil {
					t.Errorf("lone submit: %v", err)
					return
				}
				check(ep, r)
			}
		}()
	}
	wg.Wait()
	close(stop)

	if got, slots := maxRuns.Load(), int64(len(s.slots)); got > slots || got < 1 {
		t.Fatalf("%d runs at once over %d samples, want 1..%d (GOMAXPROCS)", got, sampled.Load(), slots)
	}
	if stranded.Load() {
		t.Fatal("a run slot sat free while groups waited")
	}
	st := s.Stats()
	if st.Groups != 2*10+4*40 || st.Served != st.Admitted || st.Failed+st.Expired != 0 {
		t.Fatalf("stats %+v, want 180 groups all served", st)
	}
}
