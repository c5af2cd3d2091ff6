package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the span
// that caused this one (-1 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; dump writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, req int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// time runs f as a span. A nil tracer times f and records nothing (warm-up).
func (t *tracer) time(name string, parent, req int, f func()) (id int, ns int64) {
	if t == nil {
		start := time.Now()
		f()
		return -1, int64(time.Since(start))
	}
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	return t.add(name, parent, req, int64(start), int64(end)), int64(end - start)
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replay sizes: requests walked through the in-process layers, after a
// warm-up that fills the 4,096-entry pools the way the live daemon's is.
const (
	replaySingle       = 3000
	replaySingleWarmup = 1000
	replayEnum         = 150
	replayEnumWarmup   = 50
)

// requestPath is the in-process request path: the same layers the daemon's
// handler crosses, each behind its public function. Every stage that reads
// the representation pool gets a server of its own, so replaying request i
// through all of them meets the same pool state in each — the pool one
// stage warms must not turn the next stage's miss into a hit.
type requestPath struct {
	enc        *encoder
	handler    http.Handler
	handlerSch *scheduler
	submitSch  *scheduler
	modelSrv   *server
	nopoolSrv  *server
}

func newRequestPath(m *model, enc *encoder) *requestPath {
	svc, handlerSch := newService(newPooledServer(m), enc)
	_, submitSch := newService(newPooledServer(m), enc)
	return &requestPath{
		enc:        enc,
		handler:    svc.Handler(),
		handlerSch: handlerSch,
		submitSch:  submitSch,
		modelSrv:   newPooledServer(m),
		nopoolSrv:  newPoollessServer(m),
	}
}

func (rp *requestPath) close() {
	rp.handlerSch.Close()
	rp.submitSch.Close()
}

// layerTimes holds one replayed request's stage durations in nanoseconds.
type layerTimes struct {
	handler, jsonDecode, wireDecode, encode, submit, modelPooled, modelNoPool, respond int64
	plans, nodes                                                                       int
}

// replayOne walks one request through the layers in the handler's order.
// serve.handler is the real handler end to end; its children are the same
// work done again through each layer's public function, one span each, so
// they follow the parent in time instead of nesting inside it.
func (rp *requestPath) replayOne(tr *tracer, reqID int, req *request) (layerTimes, error) {
	var lt layerTimes
	var err error
	lt.plans = len(req.plans)

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(req.body))
	var h int
	h, lt.handler = tr.time("serve.handler", -1, reqID, func() { rp.handler.ServeHTTP(rec, hreq) })
	if rec.Code != http.StatusOK {
		return lt, fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body.String())
	}

	var decoded estimateRequest
	_, lt.jsonDecode = tr.time("serve.json_decode", h, reqID, func() {
		dec := json.NewDecoder(bytes.NewReader(req.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&decoded)
	})
	if err != nil {
		return lt, err
	}
	plans := decoded.Plans
	if decoded.Plan != nil {
		plans = []*wirePlan{decoded.Plan}
	}

	roots := make([]*planNode, len(plans))
	_, lt.wireDecode = tr.time("serve.wire_decode", h, reqID, func() {
		for i, wp := range plans {
			if roots[i], err = wp.Decode(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return lt, err
	}

	eps := make([]*encodedPlan, len(roots))
	_, lt.encode = tr.time("feature.encode", h, reqID, func() {
		for i, root := range roots {
			if eps[i], err = rp.enc.Encode(root); err != nil {
				return
			}
		}
	})
	if err != nil {
		return lt, err
	}
	for _, ep := range eps {
		lt.nodes += len(ep.Nodes)
	}

	// The handler submits a lone plan inline and a multi-plan request from
	// one goroutine per plan.
	ctx := context.Background()
	errs := make([]error, len(eps))
	var sub int
	sub, lt.submit = tr.time("serve.sched_submit", h, reqID, func() {
		if len(eps) == 1 {
			_, errs[0] = rp.submitSch.Submit(ctx, eps[0])
			return
		}
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = rp.submitSch.Submit(ctx, eps[i])
			}(i)
		}
		wg.Wait()
	})
	for _, e := range errs {
		if e != nil {
			return lt, e
		}
	}

	var ests []estimate
	_, lt.modelPooled = tr.time("core.model", sub, reqID, func() { ests, _ = rp.modelSrv.EstimateBatch(eps, 0) })
	_, lt.modelNoPool = tr.time("core.model_nopool", -1, reqID, func() { rp.nopoolSrv.EstimateBatch(eps, 0) })

	resp := estimateResponse{Estimates: make([]wireEstimate, len(ests))}
	for i, e := range ests {
		resp.Estimates[i] = wireEstimate{Cost: e.Cost, Card: e.Card, Version: 1}
	}
	_, lt.respond = tr.time("serve.respond_encode", h, reqID, func() {
		je := json.NewEncoder(io.Discard)
		je.SetIndent("", "  ")
		err = je.Encode(resp)
	})
	return lt, err
}

// replay walks the corpus through the in-process request path — warm-up
// requests first, untraced — and returns the per-layer metrics.
func (rp *requestPath) replay(tr *tracer, c *corpus, sizeDiv int) (map[string]metric, error) {
	warm, n := replaySingleWarmup, replaySingle
	if c.plansPerRequest() > 1 {
		warm, n = replayEnumWarmup, replayEnum
	}
	warm, n = max(warm/sizeDiv, 1), max(n/sizeDiv, 1)
	var lts []layerTimes
	for i := 0; i < warm+n; i++ {
		req := &c.requests[c.order[i%len(c.order)]]
		t := tr
		if i < warm {
			t = nil
		}
		lt, err := rp.replayOne(t, i, req)
		if err != nil {
			return nil, err
		}
		if i >= warm {
			lts = append(lts, lt)
		}
	}

	p50 := func(f func(layerTimes) int64) float64 {
		v := make([]int64, len(lts))
		for i, lt := range lts {
			v[i] = f(lt)
		}
		return float64(percentile(v, 0.50)) / 1e3
	}
	plans, nodes, bodyBytes := 0, 0, 0
	for i, lt := range lts {
		plans += lt.plans
		nodes += lt.nodes
		bodyBytes += len(c.requests[c.order[(warm+i)%len(c.order)]].body)
	}
	m := map[string]metric{
		"serve.handler_us": {p50(func(lt layerTimes) int64 { return lt.handler }), "us"},
		"serve.handler_self_us": {p50(func(lt layerTimes) int64 {
			return lt.handler - lt.jsonDecode - lt.wireDecode - lt.encode - lt.submit - lt.respond
		}), "us"},
		"serve.json_decode_us":          {p50(func(lt layerTimes) int64 { return lt.jsonDecode }), "us"},
		"serve.json_body_bytes":         {float64(bodyBytes) / float64(len(lts)), "bytes"},
		"serve.wire_decode_us":          {p50(func(lt layerTimes) int64 { return lt.wireDecode }), "us"},
		"feature.encode_us":             {p50(func(lt layerTimes) int64 { return lt.encode }), "us"},
		"feature.nodes_per_plan":        {float64(nodes) / float64(plans), "count"},
		"serve.sched_submit_us":         {p50(func(lt layerTimes) int64 { return lt.submit - lt.modelPooled }), "us"},
		"serve.respond_encode_us":       {p50(func(lt layerTimes) int64 { return lt.respond }), "us"},
		"core.model_us_per_plan":        {p50(func(lt layerTimes) int64 { return lt.modelPooled / int64(lt.plans) }), "us"},
		"core.model_nopool_us_per_plan": {p50(func(lt layerTimes) int64 { return lt.modelNoPool / int64(lt.plans) }), "us"},
	}

	// Allocations per Encode call, averaged over a sample of the corpus.
	const allocSample = 64
	allocs := make(tensorVec, 0, allocSample)
	for i := 0; i < allocSample; i++ {
		wp := c.requests[c.order[i%len(c.order)]].plans[0]
		root, err := wp.Decode()
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, testing.AllocsPerRun(3, func() { rp.enc.Encode(root) }))
	}
	m["feature.encode_allocs"] = metric{sum(allocs) / float64(len(allocs)), "count"}
	return m, nil
}

// loopReader serves one byte string over and over, so a FrameReader can be
// timed on a warm buffer.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// writePath times the publish side in-process, one stage after another:
// train one epoch → PublishDelta → encode the delta frame → read it back →
// apply it to a follower-side model. It returns the metrics and the trained
// model (the daemon's boot model, for the request-path replay).
func writePath(tr *tracer, sub *substrate, enc *encoder) (map[string]metric, *model, error) {
	eps, err := labeledTrainingPlans(sub.db, sub.cat, enc)
	if err != nil {
		return nil, nil, err
	}
	cut := len(eps) * 4 / 5
	train, valid := eps[:cut], eps[cut:]
	m := newModel(enc)
	pt := parallelTrainer(m)
	defer pt.Close()
	pt.Fit(train, valid, daemonEpochs, daemonBatchSize, 0, nil)

	srv := newPooledServer(m)
	follower := newModel(enc)
	idx := make([]int, len(m.PS.Params()))
	for i := range idx {
		idx[i] = i
	}
	var payload, frame []byte
	var touched []*param
	loop := &loopReader{}
	var fr *frameReader

	const reps = 15
	var epochNS, publishNS, encodeNS, readNS, applyNS []int64
	for r := 0; r < reps; r++ {
		_, ns := tr.time("core.train_epoch", -1, r, func() { pt.Fit(train, valid, 1, daemonBatchSize, 0, nil) })
		epochNS = append(epochNS, ns)
		_, ns = tr.time("core.publish_delta", -1, r, func() { srv.PublishDelta(m) })
		publishNS = append(publishNS, ns)
		_, ns = tr.time("replica.payload_encode", -1, r, func() {
			payload = appendModelPayload(payload[:0], m, idx)
			frame = appendFrame(frame[:0], frameDelta, 1, uint64(r+2), uint64(r+1), payload)
		})
		encodeNS = append(encodeNS, ns)
		loop.data = frame // a whole frame is consumed per Read, so the offset is back at 0
		if fr == nil {
			fr = newFrameReader(loop)
		}
		var payloadIn []byte
		_, ns = tr.time("replica.frame_read", -1, r, func() {
			f, e := fr.Read()
			payloadIn, err = f.Payload, e
		})
		if err != nil {
			return nil, nil, err
		}
		readNS = append(readNS, ns)
		_, ns = tr.time("replica.apply", -1, r, func() {
			touched, err = applyModelPayload(follower, payloadIn, false, touched)
		})
		if err != nil {
			return nil, nil, err
		}
		applyNS = append(applyNS, ns)
	}
	return map[string]metric{
		"core.train_epoch_ms":       {float64(percentile(epochNS, 0.50)) / 1e6, "ms"},
		"core.publish_delta_us":     {float64(percentile(publishNS, 0.50)) / 1e3, "us"},
		"replica.payload_encode_us": {float64(percentile(encodeNS, 0.50)) / 1e3, "us"},
		"replica.delta_bytes":       {float64(len(frame)), "bytes"},
		"replica.frame_read_us":     {float64(percentile(readNS, 0.50)) / 1e3, "us"},
		"replica.apply_us":          {float64(percentile(applyNS, 0.50)) / 1e3, "us"},
	}, m, nil
}

// kernelSink keeps the timed kernel calls from being optimized away.
var kernelSink float64

// kernels times the two tensor kernels the forward pass is made of at the
// shipped model's shapes: one LSTM gate over a 64-row level (16×48 weights
// by a 64×48 level slab) and one 48-wide dot product.
func kernels() map[string]metric {
	const hidden, in, rows = 16, 48, 64
	w, zt, dst := newMat(hidden, in), newMat(rows, in), newMat(hidden, rows)
	for i := range w.Data {
		w.Data[i] = float64(i%7) * 0.25
	}
	for i := range zt.Data {
		zt.Data[i] = float64(i%5) * 0.5
	}
	const batches, matmulCalls, dotCalls = 31, 200, 20000
	matmulNS := make([]int64, batches)
	dotNS := make([]int64, batches)
	a, b := tensorVec(w.Data[:in]), tensorVec(zt.Data[:in])
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for k := 0; k < matmulCalls; k++ {
			matMulTransBInto(dst, w, zt)
		}
		matmulNS[i] = int64(time.Since(t0)) / matmulCalls
		kernelSink += dst.Data[0]
		t0 = time.Now()
		var s float64
		for k := 0; k < dotCalls; k++ {
			s += dot(a, b)
		}
		dotNS[i] = int64(time.Since(t0)) * 100 / dotCalls // hundredths of a ns
		kernelSink += s
	}
	return map[string]metric{
		"tensor.matmul_transb_ns": {float64(percentile(matmulNS, 0.50)), "ns"},
		"tensor.dot_ns":           {float64(percentile(dotNS, 0.50)) / 100, "ns"},
	}
}
