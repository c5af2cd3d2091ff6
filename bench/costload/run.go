package main

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run. The last three fields are the smoke test's knobs and
// are zero in a measured run.
type runConfig struct {
	workload string
	seed     int64
	seconds  int

	perClient   int // cap every load phase at this many requests per client, ignoring seconds
	sizeDiv     int // shrink the distinct-plan counts and replay lengths by this factor
	oneLifetime bool
}

// environment is what a process prepares once and every run shares.
type environment struct {
	outDir string
	bin    string
	client *http.Client
	sub    *substrate
	logf   func(format string, args ...any)
}

// lifetimes is how many daemon lifetimes an end-to-end run is made of. Each
// is spawn → every /readyz 200 → warm-up → a third of the timed load →
// SIGTERM drain, on a fresh cluster, and every metric is the median of the
// three: one daemon start, or one five-second stretch on a shared 2-core
// box, is too noisy to gate on alone.
const lifetimes = 3

// warmupPerClient is the fixed warm-up each client sends before the timed
// phase: enough single-plan requests to fill single_cold's 4,096-entry pool
// (≈6 sub-plans a plan) and to make every single_hot plan pool-resident.
func warmupPerClient(c *corpus) int {
	if c.plansPerRequest() > 1 {
		return 64
	}
	return 512
}

// setUp starts the workload's cluster and warms it, returning how long both
// took together — daemon spawn → every /readyz 200 → warm-up answered.
func setUp(ctx context.Context, env *environment, cfg runConfig, c *corpus, tag string) (*cluster, time.Duration, error) {
	t0 := time.Now()
	cl, err := startCluster(ctx, env.client, env.bin, env.outDir, tag, cfg.workload)
	if err != nil {
		return nil, 0, err
	}
	warm := warmupPerClient(c)
	if cfg.perClient > 0 {
		warm = min(warm, max(cfg.perClient/4, 1))
	}
	if p := drive(ctx, env.client, cl.target.url, c, 0, warm, nil); p.failed > 0 {
		killFleet()
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed: %s", p.failed, p.attempted, p.firstErr)
	}
	return cl, time.Since(t0), nil
}

// procSample is a daemon's CPU clock and the counters CPU is divided by.
type procSample struct {
	ticks int64
	stats statsz
}

func sampleProc(d *daemon, client *http.Client) (procSample, error) {
	ticks, err := d.cpuTicks()
	if err != nil {
		return procSample{}, err
	}
	st, err := d.statsz(client)
	return procSample{ticks, st}, err
}

func cpuMillis(before, after procSample) float64 {
	return float64(after.ticks-before.ticks) * 1000 / clockTicksPerSecond
}

// latencyMS returns the q-quantile of the round trips in ms, sorting them
// in place.
func latencyMS(rtts []int64, q float64) float64 { return float64(percentile(rtts, q)) / 1e6 }

// endToEnd lists the gated metrics, in the order runEndToEnd fills them.
var endToEnd = [...]struct{ name, unit string }{
	{"setup_s", "s"},
	{"plans_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// runEndToEnd is the untraced run: what a caller of the daemon sees.
func runEndToEnd(ctx context.Context, env *environment, cfg runConfig) (*result, error) {
	c, err := buildCorpus(env.sub, cfg.workload, cfg.seed, max(cfg.sizeDiv, 1))
	if err != nil {
		return nil, err
	}
	n := lifetimes
	if cfg.oneLifetime {
		n = 1
	}
	res := &result{Metrics: map[string]metric{}}
	var perLifetime [len(endToEnd)][]float64
	samples, firstErr := 0, ""
	for i := 0; i < n; i++ {
		cl, took, err := setUp(ctx, env, cfg, c, fmt.Sprintf("%s-seed%d-life%d", cfg.workload, cfg.seed, i))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			env.logf("daemon flags: %s", cl.daemonFlags())
		}
		p := drive(ctx, env.client, cl.target.url, c, time.Duration(cfg.seconds)*time.Second/time.Duration(n), cfg.perClient, nil)
		rssKB, err := cl.target.peakRSSKB()
		if err != nil {
			return nil, err
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if firstErr == "" {
			firstErr = p.firstErr
		}
		if cl.primary != nil && i == n-1 {
			a, f, e := crossCheck(env.client, cl, c.crossCheck)
			res.Attempted += a
			res.Failed += f
			if firstErr == "" {
				firstErr = e
			}
			env.logf("cross-replica check: %d of %d plans bit-identical at a common (epoch, generation)", a-f, a)
		}
		if err := cl.stop(env.client); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if len(p.rtts) == 0 {
			return nil, fmt.Errorf("no request succeeded: %s", firstErr)
		}
		samples += len(p.rtts)
		env.logf("lifetime %d: setup %.3f s, %d plans in %.2f s, p50 %.3f p95 %.3f p99.9 %.3f ms, peak RSS %.1f MB", i, took.Seconds(),
			p.okPlans, p.elapsed.Seconds(), latencyMS(p.rtts, 0.50), latencyMS(p.rtts, 0.95), latencyMS(p.rtts, 0.999), float64(rssKB)/1024)
		for m, v := range [len(endToEnd)]float64{
			took.Seconds(),
			float64(p.okPlans) / p.elapsed.Seconds(),
			latencyMS(p.rtts, 0.50),
			latencyMS(p.rtts, 0.95),
			float64(rssKB) / 1024,
		} {
			perLifetime[m] = append(perLifetime[m], v)
		}
	}
	if firstErr != "" {
		env.logf("first failure: %s", firstErr)
	}
	res.Correct = res.Failed == 0
	for m, def := range endToEnd {
		res.Metrics[def.name] = metric{median(perLifetime[m]), def.unit}
	}
	env.logf("%d daemon lifetimes, %d requests sent, %d latency samples", n, res.Attempted, samples)
	return res, nil
}

// lagProbe polls both daemons' /statsz and records, for every generation the
// primary publishes, how long until the follower reports it. A publication
// is dated to the poll before the one that first saw it and an arrival to the
// poll that saw it, so every lag is an upper bound at poll resolution.
type lagProbe struct {
	lagsNS     []int64
	maxGensLag uint64
	done       chan struct{}
}

const lagPollEvery = 5 * time.Millisecond

func startLagProbe(ctx context.Context, client *http.Client, cl *cluster) *lagProbe {
	lp := &lagProbe{done: make(chan struct{})}
	go func() {
		defer close(lp.done)
		publishedBy := map[uint64]time.Time{} // generation → latest time it can have been published
		var primaryGen, followerGen uint64
		var prevPoll time.Time
		tick := time.NewTicker(lagPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			ps, err1 := cl.primary.statsz(client)
			fs, err2 := cl.target.statsz(client)
			if err1 != nil || err2 != nil {
				continue
			}
			now := time.Now()
			pg, fg := ps.Replication.Generation, fs.Replication.Generation
			if prevPoll.IsZero() {
				primaryGen, followerGen = pg, fg // generations already out are not dated
			}
			if pg > primaryGen {
				primaryGen = pg
				publishedBy[pg] = prevPoll
			}
			if pg > fg {
				lp.maxGensLag = max(lp.maxGensLag, pg-fg)
			}
			if fg > followerGen {
				followerGen = fg
				for g, t := range publishedBy {
					if g == fg {
						lp.lagsNS = append(lp.lagsNS, int64(now.Sub(t)))
					}
					if g <= fg {
						delete(publishedBy, g)
					}
				}
			}
			prevPoll = now
		}
	}()
	return lp
}

// runTraced is the per-layer run. On the live daemon it measures what only a
// running daemon shows — the HTTP floor, the scheduler's wait as a residual,
// /statsz deltas, replication lag — in two load phases, the second recording
// a client span per request. Then it replays the same requests in-process
// through each layer's public functions, recording spans, and writes the
// spans out.
func runTraced(ctx context.Context, env *environment, cfg runConfig) (*result, error) {
	c, err := buildCorpus(env.sub, cfg.workload, cfg.seed, max(cfg.sizeDiv, 1))
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("%s-seed%d-trace", cfg.workload, cfg.seed)
	tr := newTracer()
	m := map[string]metric{}

	cl, _, err := setUp(ctx, env, cfg, c, tag)
	if err != nil {
		return nil, err
	}
	env.logf("daemon flags: %s", cl.daemonFlags())
	floorNS, err := httpFloor(env.client, cl.target.url, max(2000/max(cfg.sizeDiv, 1), 10))
	if err != nil {
		return nil, err
	}

	// Live phases: a third of the run each; the in-process replay takes the
	// remaining third.
	phaseLen := time.Duration(cfg.seconds) * time.Second / 3
	probeCtx, stopProbe := context.WithCancel(ctx)
	defer stopProbe()
	var probe *lagProbe
	var primaryBefore procSample
	if cl.primary != nil {
		probe = startLagProbe(probeCtx, env.client, cl)
		if primaryBefore, err = sampleProc(cl.primary, env.client); err != nil {
			return nil, err
		}
	}
	targetBefore, err := sampleProc(cl.target, env.client)
	if err != nil {
		return nil, err
	}
	plain := drive(ctx, env.client, cl.target.url, c, phaseLen, cfg.perClient, nil)
	traced := drive(ctx, env.client, cl.target.url, c, phaseLen, cfg.perClient, tr)
	targetAfter, err := sampleProc(cl.target, env.client)
	if err != nil {
		return nil, err
	}
	before, after := targetBefore.stats, targetAfter.stats
	m["replica.visible_lag_ms_p50"] = metric{0, "ms"}
	m["replica.lag_gens_max"] = metric{0, "count"}
	m["replica.publishes"] = metric{0, "count"}
	m["primary_cpu_ms_per_publish"] = metric{0, "ms"}
	if cl.primary != nil {
		primaryAfter, err := sampleProc(cl.primary, env.client)
		if err != nil {
			return nil, err
		}
		stopProbe()
		<-probe.done
		publishes := primaryAfter.stats.Supervisor.Publishes - primaryBefore.stats.Supervisor.Publishes
		m["replica.visible_lag_ms_p50"] = metric{float64(percentile(probe.lagsNS, 0.50)) / 1e6, "ms"}
		m["replica.lag_gens_max"] = metric{float64(probe.maxGensLag), "count"}
		m["replica.publishes"] = metric{float64(publishes), "count"}
		if publishes > 0 {
			m["primary_cpu_ms_per_publish"] = metric{cpuMillis(primaryBefore, primaryAfter) / float64(publishes), "ms"}
		}
	}
	if err := cl.stop(env.client); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(plain.rtts) == 0 || len(traced.rtts) == 0 {
		return nil, fmt.Errorf("no request succeeded: %s", cmp.Or(plain.firstErr, traced.firstErr))
	}

	res := &result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}
	res.Correct = res.Failed == 0
	sched := func(f func(statsz) uint64) float64 { return float64(f(after) - f(before)) }
	batches := sched(func(s statsz) uint64 { return s.Scheduler.Batches })
	p50 := latencyMS(plain.rtts, 0.50)
	m["error_share"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	both := slices.Concat(plain.rtts, traced.rtts)
	m["trace.latency_p50_ms"] = metric{p50, "ms"}
	m["latency_p99_ms"] = metric{latencyMS(both, 0.99), "ms"}
	m["latency_p99_9_ms"] = metric{latencyMS(both, 0.999), "ms"}
	m["cpu_ms_per_kplan"] = metric{cpuMillis(targetBefore, targetAfter) * 1000 / float64(plain.okPlans+traced.okPlans), "ms"}
	m["trace.overhead_share"] = metric{(latencyMS(traced.rtts, 0.50) - p50) / p50, "ratio"}
	m["serve.http_floor_us"] = metric{float64(floorNS) / 1e3, "us"}
	m["serve.mean_batch"] = metric{sched(func(s statsz) uint64 { return s.Scheduler.Served }) / max(batches, 1), "count"}
	m["serve.queue_high_water"] = metric{float64(after.Scheduler.QueueHighWater), "count"}
	m["serve.rejected"] = metric{sched(func(s statsz) uint64 { return s.Scheduler.Rejected }), "count"}
	m["serve.expired"] = metric{sched(func(s statsz) uint64 { return s.Scheduler.Expired }), "count"}
	m["serve.failed"] = metric{sched(func(s statsz) uint64 { return s.Scheduler.Failed }), "count"}
	m["core.pool_hit_rate"] = metric{after.Pool.HitRate, "ratio"}
	m["core.pool_stale_rate"] = metric{after.Pool.StaleRate, "ratio"}
	m["core.pool_entries"] = metric{float64(after.Pool.Entries), "count"}

	// In-process: the write path first (it trains the model the request-path
	// replay serves from), then the request path, then the kernels.
	var genMS, collectMS []float64
	for i := 0; i < 3; i++ {
		s := newSubstrate()
		genMS = append(genMS, float64(s.generateNS)/1e6)
		collectMS = append(collectMS, float64(s.collectNS)/1e6)
	}
	m["dataset.generate_ms"] = metric{median(genMS), "ms"}
	m["stats.collect_ms"] = metric{median(collectMS), "ms"}
	enc := newEncoder(env.sub.cat)
	wm, trained, err := writePath(tr, env.sub, enc)
	if err != nil {
		return nil, err
	}
	rp := newRequestPath(trained, enc)
	defer rp.close()
	rm, err := rp.replay(tr, c, max(cfg.sizeDiv, 1))
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]metric{wm, rm, kernels()} {
		for name, v := range part {
			m[name] = v
		}
	}
	// The residual: what is left of the live p50 once the HTTP floor and the
	// handler's own work are taken out — at shipped flags, the batch window.
	m["serve.sched_wait_us"] = metric{p50*1e3 - m["serve.http_floor_us"].Value - m["serve.handler_us"].Value, "us"}

	spanPath := filepath.Join(env.outDir, tag+".spans.jsonl")
	if err := tr.dump(spanPath); err != nil {
		return nil, err
	}
	env.logf("%d spans written to %s", len(tr.spans), spanPath)
	env.logf("reconcile: http_floor %.1f + handler %.1f + sched_wait (residual) %.1f = latency_p50 %.1f us",
		m["serve.http_floor_us"].Value, m["serve.handler_us"].Value, m["serve.sched_wait_us"].Value, p50*1e3)
	env.logf("reconcile: handler %.1f us = json_decode %.1f + wire_decode %.1f + encode %.1f + submit %.1f (of which model %.1f) + respond %.1f + unattributed (p50 of per-request remainders) %.1f",
		m["serve.handler_us"].Value, m["serve.json_decode_us"].Value, m["serve.wire_decode_us"].Value, m["feature.encode_us"].Value,
		m["serve.sched_submit_us"].Value+m["core.model_us_per_plan"].Value*float64(c.plansPerRequest()),
		m["core.model_us_per_plan"].Value*float64(c.plansPerRequest()), m["serve.respond_encode_us"].Value, m["serve.handler_self_us"].Value)
	if first := cmp.Or(plain.firstErr, traced.firstErr); first != "" {
		env.logf("first failure: %s", first)
	}
	return res, nil
}
