package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestSubmitAdmitAllocs proves the steady-state serve round trip — admit,
// take a run slot, batch-estimate, answer — performs zero heap allocations
// per request. Group objects are pooled and the run writes estimates into the
// slot's reused scratch (EstimateBatchInto), so a warmed scheduler serves
// without touching the allocator at all.
func TestSubmitAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is enforced in the non-race pass")
	}
	_, eps := testCorpus(t, 301, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 8, MaxBatch: 8})
	s.Start()
	defer s.Close()

	ctx := context.Background()
	ep := eps[0]
	if _, err := s.Submit(ctx, ep); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit(ctx, ep); err != nil {
			t.Fatalf("submit: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("admitted Submit allocates %.1f allocs/op, want 0", avg)
	}
}

// TestSubmitRejectAllocs proves overload rejection is allocation-free: a
// Submit bounced off a full queue gets its pooled group recycled
// immediately and returns ErrOverloaded without creating garbage — overload
// must not accelerate memory pressure.
func TestSubmitRejectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is enforced in the non-race pass")
	}
	_, eps := testCorpus(t, 303, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 2, MaxBatch: 4})

	// Fill the queue of an unstarted scheduler so every measured Submit is
	// rejected at admission.
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(ctx, eps[0]); err != nil {
				t.Errorf("queued submit: %v", err)
			}
		}()
	}
	waitDepth(t, s, 2)

	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit(ctx, eps[0]); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit on full queue: %v, want ErrOverloaded", err)
		}
	})
	if avg != 0 {
		t.Errorf("rejected Submit allocates %.1f allocs/op, want 0", avg)
	}

	s.Start()
	wg.Wait()
	s.Close()
}
