package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"costest/internal/plan"
	"costest/internal/workload"
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

// BenchmarkSchedulerGreedy is the shipped configuration: a freed run slot
// takes whatever is waiting (up to 64 plans) and never waits for stragglers.
func BenchmarkSchedulerGreedy(b *testing.B) {
	benchScheduler(b, SchedulerConfig{QueueDepth: 512, MaxBatch: 64})
}

// BenchmarkSchedulerUnbatched is the no-coalescing baseline (MaxBatch 1):
// what the same load costs when every request is its own model call.
func BenchmarkSchedulerUnbatched(b *testing.B) {
	benchScheduler(b, SchedulerConfig{QueueDepth: 512, MaxBatch: 1})
}

// enumVariants builds the plan-enumeration request shape costload's
// enum_batch64 workload sends: for each of queries multi-join queries, the
// variants candidate plans an optimizer would price — the same tree with its
// join operators rewritten from the base-3 digits of the variant number, so the
// candidates of one query share every scan and differ above it.
func enumVariants(tb testing.TB, seed int64, queries, variants int) []*plan.Node {
	tb.Helper()
	joinOps := []plan.NodeType{plan.HashJoin, plan.MergeJoin, plan.NestedLoop}
	var out []*plan.Node
	for _, q := range workload.Scale(testDB, seed, 8*queries) {
		if len(out) == queries*variants {
			break
		}
		root, err := testPl.Plan(q)
		if err != nil || len(q.Joins) < 2 {
			continue
		}
		for v := 0; v < variants; v++ {
			c, digits := root.Clone(), v
			c.Walk(func(n *plan.Node) {
				if n.Type.IsJoin() {
					n.Type = joinOps[digits%len(joinOps)]
					digits /= len(joinOps)
				}
			})
			out = append(out, c)
		}
	}
	if len(out) != queries*variants {
		tb.Fatalf("only %d of %d enumeration plans built", len(out), queries*variants)
	}
	return out
}

// estimateBodies are the two request shapes the benchmark workloads send: one
// plan, and a 64-plan enumeration (8 queries × 8 join-operator variants).
func estimateBodies(tb testing.TB) (single, enum64 []byte) {
	tb.Helper()
	var wire []*WirePlan
	for _, p := range enumVariants(tb, 7, 8, 8) {
		wire = append(wire, EncodeWire(p))
	}
	return mustMarshal(tb, estimateRequest{Plan: wire[0]}), mustMarshal(tb, estimateRequest{Plans: wire})
}

// handlerHarness drives Service.Handler in process with nothing of its own on
// the heap per request: one reused request, body reader and response writer,
// so what a run allocates is what the handler allocates.
type handlerHarness struct {
	h    http.Handler
	req  *http.Request
	body replayBody
	w    discardWriter
}

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps the status and the last body.
type discardWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// newHandlerHarness serves over a trained model with the scheduler
// configuration costestd ships (the defaults).
func newHandlerHarness(tb testing.TB) (*handlerHarness, *Service) {
	tb.Helper()
	_, eps := testCorpus(tb, 201, 12)
	srv, _ := testServer(tb, eps)
	sched := NewScheduler(srv, SchedulerConfig{})
	sched.Start()
	tb.Cleanup(sched.Close)
	svc := NewService(sched, srv, testEnc)
	svc.SetReady(true)
	return newHarness(svc.Handler()), svc
}

// newHarness is one caller of h: a harness is not safe for concurrent use,
// so concurrent callers of one service take one each.
func newHarness(h http.Handler) *handlerHarness {
	hh := &handlerHarness{h: h, w: discardWriter{header: http.Header{}}}
	hh.req = httptest.NewRequest(http.MethodPost, "/estimate", nil)
	hh.req.Body = &hh.body
	return hh
}

// do serves one /estimate body and returns the status.
func (hh *handlerHarness) do(body []byte) int {
	hh.body.Reset(body)
	hh.w.status, hh.w.body = 0, hh.w.body[:0]
	clear(hh.w.header)
	hh.h.ServeHTTP(&hh.w, hh.req)
	return hh.w.status
}

// post is do, failing the test on anything but a 200.
func (hh *handlerHarness) post(tb testing.TB, body []byte) {
	if status := hh.do(body); status != http.StatusOK {
		tb.Fatalf("status %d: %s", status, hh.w.body)
	}
}

// BenchmarkHandleEstimate is the whole in-process request — body read, decode,
// encode, scheduler round trip, response — on the two benchmark body shapes.
// allocs/op and B/op are per request. The parallel row sends the 64-plan body
// from concurrent callers (RunParallel: two at -cpu 1 or 2), which is where
// running each request on its own processor shows; one caller at a time
// cannot.
func BenchmarkHandleEstimate(b *testing.B) {
	single, enum64 := estimateBodies(b)
	for _, c := range []struct {
		name string
		body []byte
	}{{"single", single}, {"enum64", enum64}} {
		b.Run(c.name, func(b *testing.B) {
			hh, _ := newHandlerHarness(b)
			hh.post(b, c.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hh.post(b, c.body)
			}
		})
	}
	b.Run("enum64_parallel", func(b *testing.B) {
		hh, svc := newHandlerHarness(b)
		hh.post(b, enum64)
		b.SetParallelism(max(1, 2/runtime.GOMAXPROCS(0)))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			hh := newHarness(svc.Handler())
			for pb.Next() {
				if status := hh.do(enum64); status != http.StatusOK {
					b.Errorf("status %d: %s", status, hh.w.body)
					return
				}
			}
		})
	})
}
