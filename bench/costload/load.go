package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// clients is the closed-loop client count: one per core of the 2-core box.
// Callers of a cost estimator are optimizers that wait for each reply before
// pricing the next candidate, so each client sends its next request only
// after the previous one completed.
const clients = 2

// wireEstimate and estimateResponse mirror the daemon's /estimate reply.
type wireEstimate struct {
	Cost       float64 `json:"cost"`
	Card       float64 `json:"card"`
	Version    uint64  `json:"version"`
	Epoch      uint64  `json:"epoch,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
}

type estimateResponse struct {
	Estimates []wireEstimate `json:"estimates"`
}

// newHTTPClient returns a client that keeps one connection per closed-loop
// client alive to each daemon.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2},
		Timeout:   10 * time.Second,
	}
}

// modelID names the weights that produced an estimate: the cluster-wide
// (epoch, generation) when the daemon replicates, else its local version.
type modelID struct{ epoch, gen uint64 }

func (e wireEstimate) model() modelID {
	if e.Generation != 0 {
		return modelID{e.Epoch, e.Generation}
	}
	return modelID{0, e.Version}
}

type observation struct {
	plan  int
	model modelID
}

type estimateBits struct{ cost, card uint64 }

// checker is the output check: every estimate finite and positive and not a
// degraded fallback answer, and one plan under one model always the same
// float bits. Each client owns a checker; merge folds them together so the
// identity check spans clients.
type checker struct {
	seen     map[observation]estimateBits
	failures int
	firstErr string
}

func newChecker() *checker { return &checker{seen: make(map[observation]estimateBits)} }

func (c *checker) fail(format string, args ...any) {
	c.failures++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

func (c *checker) observe(plan int, e wireEstimate) {
	if !(e.Cost > 0) || !(e.Card > 0) || math.IsInf(e.Cost, 0) || math.IsInf(e.Card, 0) {
		c.fail("plan %d: estimate not finite and positive: cost %v card %v", plan, e.Cost, e.Card)
		return
	}
	if e.Degraded {
		c.fail("plan %d: degraded (circuit-breaker fallback) answer", plan)
		return
	}
	c.record(observation{plan, e.model()}, estimateBits{math.Float64bits(e.Cost), math.Float64bits(e.Card)})
}

func (c *checker) record(o observation, b estimateBits) {
	if prev, ok := c.seen[o]; ok && prev != b {
		c.fail("plan %d at model %v: float bits differ between answers", o.plan, o.model)
		return
	}
	c.seen[o] = b
}

func (c *checker) merge(other *checker) {
	c.failures += other.failures
	if c.firstErr == "" {
		c.firstErr = other.firstErr
	}
	for o, b := range other.seen {
		c.record(o, b)
	}
}

// post sends one /estimate request and returns the decoded reply. A
// transport error, a non-200 status or a reply of the wrong length is an
// error; the round trip ends when the whole body has been read, before it is
// decoded.
func post(client *http.Client, url string, req *request, buf *bytes.Buffer) (resp estimateResponse, rtt time.Duration, err error) {
	t0 := time.Now()
	r, err := client.Post(url+"/estimate", "application/json", bytes.NewReader(req.body))
	if err != nil {
		return resp, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(r.Body)
	r.Body.Close()
	rtt = time.Since(t0)
	if err != nil {
		return resp, rtt, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, rtt, fmt.Errorf("status %s: %s", r.Status, bytes.TrimSpace(buf.Bytes()))
	}
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return resp, rtt, err
	}
	if len(resp.Estimates) != len(req.plans) {
		return resp, rtt, fmt.Errorf("%d estimates for %d plans", len(resp.Estimates), len(req.plans))
	}
	return resp, rtt, nil
}

// phase is the outcome of one load phase.
type phase struct {
	rtts      []int64 // client round trips of the successful requests, in nanoseconds
	attempted int     // requests sent
	failed    int     // requests not answered 200 with a passing check, plus cross-client identity violations
	okPlans   int     // plan estimates answered 200 that passed the check
	elapsed   time.Duration
	firstErr  string
}

// drive runs the closed-loop clients against url until the duration has
// passed or perClient requests have been sent by each (whichever is set and
// comes first), each walking the corpus order on from its cursor. A non-nil
// tracer receives one client.request span per request.
func drive(ctx context.Context, client *http.Client, url string, c *corpus, d time.Duration, perClient int, tr *tracer) *phase {
	type result struct {
		rtts      []int64
		attempted int
		okPlans   int
		check     *checker
	}
	results := make([]result, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			res := &results[cl]
			res.check = newChecker()
			var buf bytes.Buffer
			offset := c.cursor[cl]
			defer func() { c.cursor[cl] = (offset + res.attempted) % len(c.order) }()
			for i := 0; ctx.Err() == nil; i++ {
				if perClient > 0 && i >= perClient {
					break
				}
				if d > 0 && time.Since(start) >= d {
					break
				}
				req := &c.requests[c.order[(offset+i)%len(c.order)]]
				res.attempted++
				resp, rtt, err := post(client, url, req, &buf)
				if tr != nil {
					end := time.Since(tr.t0)
					tr.add("client.request", -1, cl*1_000_000+i, int64(end-rtt), int64(end))
				}
				if err != nil {
					res.check.fail("request failed: %v", err)
					continue
				}
				before := res.check.failures
				for j, e := range resp.Estimates {
					res.check.observe(req.firstPlan+j, e)
				}
				if res.check.failures == before {
					res.okPlans += len(resp.Estimates)
					res.rtts = append(res.rtts, int64(rtt))
				}
			}
		}(cl)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	all, perClientFailures := newChecker(), 0
	for _, r := range results {
		p.rtts = append(p.rtts, r.rtts...)
		p.attempted += r.attempted
		p.okPlans += r.okPlans
		perClientFailures += r.check.failures
		all.merge(r.check)
	}
	p.failed = p.attempted - len(p.rtts) + all.failures - perClientFailures
	p.firstErr = all.firstErr
	return p
}

// crossCheck is replica_churn's post-run check: each plan goes to primary
// and follower until both answer from the same (epoch, generation), and the
// two answers must then agree bit for bit. The primary keeps publishing
// while this runs, so a pair can straddle a publication; such pairs are
// retried, and a plan that never lines up counts as failed.
func crossCheck(client *http.Client, cl *cluster, reqs []request) (attempted, failed int, firstErr string) {
	const tries = 40
	var buf bytes.Buffer
	// once compares one plan's answers; retry reports a pair that could not
	// be compared (an error, or answers from different models).
	once := func(req *request) (retry bool, problem string) {
		p, _, err := post(client, cl.primary.url, req, &buf)
		if err != nil {
			return true, "primary: " + err.Error()
		}
		f, _, err := post(client, cl.target.url, req, &buf)
		if err != nil {
			return true, "follower: " + err.Error()
		}
		pe, fe := p.Estimates[0], f.Estimates[0]
		if pe.Generation == 0 || pe.model() != fe.model() {
			return true, fmt.Sprintf("no common (epoch, generation): primary %v follower %v", pe.model(), fe.model())
		}
		if math.Float64bits(pe.Cost) != math.Float64bits(fe.Cost) || math.Float64bits(pe.Card) != math.Float64bits(fe.Card) {
			return false, fmt.Sprintf("bits differ at %v: primary (%v, %v) follower (%v, %v)", pe.model(), pe.Cost, pe.Card, fe.Cost, fe.Card)
		}
		return false, ""
	}
	for i := range reqs {
		attempted++
		retry, problem := true, ""
		for t := 0; t < tries && retry; t++ {
			if retry, problem = once(&reqs[i]); retry {
				time.Sleep(2 * time.Millisecond)
			}
		}
		if problem != "" {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("cross-replica check, plan %d: %s", i, problem)
			}
		}
	}
	return attempted, failed, firstErr
}

// httpFloor is the p50 round trip of GET /healthz on a kept-alive
// connection: what the HTTP stack and loopback cost before any estimator
// work.
func httpFloor(client *http.Client, url string, n int) (int64, error) {
	rtts := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := client.Get(url + "/healthz")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtts = append(rtts, int64(time.Since(t0)))
	}
	return percentile(rtts, 0.50), nil
}
