package serve

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"
)

// benchScheduler drives the scheduler with 16 concurrent submitters per
// GOMAXPROCS and reports, beyond the usual ns/op, the mean coalesced batch
// size (mean_batch/op) and the p99 request latency (p99_ns/op) — the numbers
// PERFORMANCE.md and BENCH_SERVE.json track.
func benchScheduler(b *testing.B, cfg SchedulerConfig) {
	_, eps := testCorpus(b, 301, 16)
	srv, _ := testServer(b, eps)
	s := NewScheduler(srv, cfg)
	s.Start()
	defer s.Close()

	var mu sync.Mutex
	var lats []time.Duration
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var local []time.Duration
		i := 0
		for pb.Next() {
			t0 := time.Now()
			if _, err := s.Submit(context.Background(), eps[i%len(eps)]); err != nil {
				b.Error(err)
				return
			}
			local = append(local, time.Since(t0))
			i++
		}
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	})
	b.StopTimer()

	st := s.Stats()
	if st.Batches > 0 {
		b.ReportMetric(st.MeanBatch, "mean_batch/op")
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)*99/100]), "p99_ns/op")
	}
}

// BenchmarkSchedulerGreedy is the shipped configuration: the dispatcher
// coalesces whatever is queued (up to 64) and never waits for stragglers.
func BenchmarkSchedulerGreedy(b *testing.B) {
	benchScheduler(b, SchedulerConfig{QueueDepth: 512, MaxBatch: 64})
}

// BenchmarkSchedulerUnbatched is the no-coalescing baseline (MaxBatch 1):
// what the same load costs when every request is its own model call.
func BenchmarkSchedulerUnbatched(b *testing.B) {
	benchScheduler(b, SchedulerConfig{QueueDepth: 512, MaxBatch: 1})
}
