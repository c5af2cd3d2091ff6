// Command costestd is the networked estimator daemon: a long-lived process
// serving learned cost/cardinality estimates over HTTP, fronting the
// hot-swap serving runtime (internal/core) with the batching scheduler and
// admission control of internal/serve.
//
// Startup either cold-loads a self-describing checkpoint (-checkpoint) or
// trains a model on the synthetic IMDB workload, then serves:
//
//	POST /estimate  {"plan": {...}}         one estimate (see GET /samplez)
//	GET  /healthz                           process liveness
//	GET  /readyz                            model loaded and admitting
//	GET  /statsz                            scheduler/pool/drain statistics
//	GET  /samplez                           a valid example /estimate body
//
// The daemon is self-healing. Background retraining (-retrain) runs under a
// supervisor: panicking cycles restart with exponential backoff, regressed
// models are gated before publish (-gate-slack), and published models are
// checkpointed crash-safely (-checkpoint, -checkpoint-every) — a kill at any
// instant leaves a cold-loadable file. The serving path degrades instead of
// failing: consecutive batch failures trip a circuit breaker
// (-breaker-failures) into answering from the last-known-good snapshot,
// with half-open probes (-breaker-cooldown) to recover. Chaos tests drive
// all of it with -faults (deterministic, seedable fault injection).
//
// The daemon scales out by replication (internal/replica): a primary
// started with -replicate-listen streams every published model — dirty
// parameters only, full snapshots for bootstrap and catch-up — to follower
// daemons started with -follow, which serve bit-identical estimates and
// report generation lag in /statsz. Followers train nothing locally and
// turn ready once the first replicated model is applied.
//
// For high availability, daemons instead form a cluster with -peers: each
// member follows the live primary through the ordered peer list, renewing a
// primary-liveness lease on every authenticated frame (heartbeats keep idle
// connections fed, read/write deadlines catch dead peers). A promotable
// member (-promote-rank 0, -lease) whose lease lapses promotes itself: it
// seals the last applied generation, boots a parallel trainer over its
// mirror model (paced by -retrain; 0 keeps the promoted member serve-only),
// and publishes from its own -replicate-listen under the next epoch while
// the surviving members re-dial through the peer list onto it.
// Every frame carries the publisher's epoch; frames from a deposed primary's
// stale epoch are fenced — rejected by followers and answered with a fencing
// frame that silences the zombie. -replicate-token adds a constant-time
// pre-shared token check to every replication handshake.
//
// SIGTERM or SIGINT triggers a graceful drain: readiness flips, admission
// stops (503 + Retry-After), in-flight batches finish, the HTTP server
// shuts down, and the process exits 0.
//
//	go run ./cmd/costestd -addr :8080 -retrain 5s -checkpoint /var/lib/costest/model.ckpt
package main

import (
	"context"
	"errors"
	"flag"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/fault"
	"costest/internal/feature"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/replica"
	"costest/internal/serve"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		scale      = flag.Float64("scale", 0.03, "synthetic IMDB scale factor")
		seed       = flag.Int64("seed", 42, "workload seed")
		queries    = flag.Int("queries", 240, "training workload size")
		epochs     = flag.Int("epochs", 20, "training epoch budget")
		shards     = flag.Int("shards", 1, "data-parallel trainer shards")
		patience   = flag.Int("patience", 3, "early-stopping patience (0 disables)")
		checkpoint = flag.String("checkpoint", "", "checkpoint path: cold-load if present, else train and save")
		queueDepth = flag.Int("queue", 256, "admission queue depth, in plans waiting for a run slot")
		workers    = flag.Int("workers", 0, "trainer shards run at once per retrain epoch (0 = GOMAXPROCS); serving runs one request per processor, one worker each")
		poolBound  = flag.Int("pool", 4096, "representation pool entry bound")
		retrain    = flag.Duration("retrain", 0, "background retrain+publish interval; in -peers mode also the promoted member's training cadence (0 disables training entirely)")

		gateSlack = flag.Float64("gate-slack", 0.10, "allowed relative validation q-error regression before a retrained model is gated (negative disables the gate)")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint every Nth published model (requires -checkpoint)")
		brkFails  = flag.Int("breaker-failures", 3, "consecutive batch failures that trip degraded serving")
		brkCool   = flag.Duration("breaker-cooldown", 250*time.Millisecond, "open-breaker wait before a half-open probe")
		faults    = flag.String("faults", "", "fault injection spec, e.g. 'daemon.retrain:panic:count=2;serve.batch:error:p=0.1' (chaos testing only)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for probabilistic fault rules")

		replListen = flag.String("replicate-listen", "", "replication listener address (primary side, or the promotion listener of a -peers member): stream every publication to follower daemons")
		follow     = flag.String("follow", "", "primary replication address to follow (replica side: serve the primary's models, no local training)")
		peers      = flag.String("peers", "", "comma-separated ordered replication peer list (HA cluster member mode: follow the live primary through this list)")
		promoRank  = flag.Int("promote-rank", -1, "promotion rank in -peers mode: 0 promotes first on primary-lease expiry, -1 never promotes (requires -replicate-listen when >= 0)")
		lease      = flag.Duration("lease", 3*time.Second, "base primary-liveness lease in -peers mode (rank r waits (r+1) leases)")
		heartbeat  = flag.Duration("heartbeat", 500*time.Millisecond, "replication heartbeat interval (both sides)")
		replToken  = flag.String("replicate-token", "", "pre-shared replication auth token (constant-time checked on the handshake; empty disables)")
	)
	flag.Parse()
	if *replListen != "" && *follow != "" {
		log.Fatal("costestd: -replicate-listen and -follow are mutually exclusive (relay topologies are not supported)")
	}
	if *peers != "" && *follow != "" {
		log.Fatal("costestd: -peers and -follow are mutually exclusive (a cluster member finds the primary through the peer list)")
	}
	if *peers == "" && *promoRank >= 0 {
		log.Fatal("costestd: -promote-rank requires -peers")
	}
	if *peers != "" && *promoRank >= 0 && *replListen == "" {
		log.Fatal("costestd: a promotable member (-promote-rank >= 0) needs -replicate-listen for its own replication listener")
	}

	if *faults != "" {
		inj, err := fault.ParseSpec(*faults, *faultSeed)
		if err != nil {
			log.Fatalf("costestd: -faults: %v", err)
		}
		fault.Enable(inj)
		log.Printf("costestd: FAULT INJECTION ENABLED: %s (seed %d)", *faults, *faultSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Substrate: synthetic database, statistics, a labeled workload for
	// normalizer fitting (and training, when there is no checkpoint).
	start := time.Now()
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: *scale})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	eng := exec.NewEngine(db)
	pl := planner.New(pg.New(cat), db.Schema)
	labeler := &workload.Labeler{Planner: pl, Engine: eng}
	labeled := labeler.Label(workload.TrainingNumeric(db, *seed, *queries))
	enc := feature.NewEncoder(cat, strembed.ZeroEncoder{}, true)
	var eps []*feature.EncodedPlan
	var sample *serve.WirePlan
	for _, s := range labeled {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			log.Fatalf("costestd: encode: %v", err)
		}
		eps = append(eps, ep)
		if sample == nil {
			sample = serve.EncodeWire(s.Plan)
		}
	}
	if len(eps) == 0 {
		log.Fatal("costestd: empty training corpus")
	}
	log.Printf("costestd: substrate ready in %v (%d labeled plans)", time.Since(start).Round(time.Millisecond), len(eps))

	var model *core.Model
	if *follow != "" || *peers != "" {
		// Replica/member mode: weights arrive over the replication stream, so
		// the local model starts blank. Architecture and encoder dimensions
		// must match the primary's (the replication handshake verifies this
		// by schema hash and refuses mismatches).
		model = core.New(core.TestConfig(), enc)
		if *checkpoint != "" {
			log.Print("costestd: -checkpoint ignored in replica mode (models come from the primary)")
		}
		if *retrain > 0 && *peers == "" {
			log.Print("costestd: -retrain ignored in replica mode (models come from the primary)")
		}
	} else {
		var err error
		model, err = loadOrTrain(*checkpoint, enc, eps, *epochs, *shards, *patience)
		if err != nil {
			log.Fatalf("costestd: %v", err)
		}
	}

	// Serving stack: hot-swap server over a generation-tagged bounded pool,
	// batching scheduler (one run slot per processor), HTTP service.
	srv := core.NewServer(model, core.NewBoundedMemoryPool(*poolBound))
	srv.EnablePrewarm(16)
	sched := serve.NewScheduler(srv, serve.SchedulerConfig{
		QueueDepth:      *queueDepth,
		BreakerFailures: *brkFails,
		BreakerCooldown: *brkCool,
	})
	sched.Start()
	svc := serve.NewService(sched, srv, enc)
	svc.SetSample(sample)

	// Supervised continuous train-and-serve loop: retrain cycles run under
	// panic containment with backoff restarts, candidates publish only past
	// the validation gate, and published models checkpoint crash-safely —
	// the scheduler keeps serving whatever snapshot is current throughout.
	// Wired before the HTTP server starts so /statsz never races the
	// SupervisorStats installation.
	retrainDone := make(chan struct{})
	if *retrain > 0 && *follow == "" && *peers == "" {
		trainer := core.NewParallelTrainer(model, *shards)
		sup := newSupervisor(srv, trainer, eps, *seed)
		sup.Interval = *retrain
		sup.Workers = *workers
		sup.GateSlack = *gateSlack
		sup.CheckpointPath = *checkpoint
		sup.CheckpointEvery = *ckptEvery
		sup.logf = log.Printf
		svc.SupervisorStats = sup.stats
		go func() {
			defer close(retrainDone)
			defer trainer.Close()
			sup.run(ctx)
		}()
	} else {
		close(retrainDone)
	}

	// Replication wiring: a primary taps every publication and streams
	// frames to follower daemons; a replica applies the primary's frames
	// into its local server and only turns ready once the first replicated
	// model is serving. Either side reports under "replication" in /statsz.
	var pub *replica.Publisher
	followerDone := make(chan struct{})
	becomeReady := func() { svc.SetReady(true) }
	switch {
	case *peers != "":
		// HA cluster member: follow the live primary through the ordered peer
		// list; a promotable member (rank >= 0) watches the primary lease and
		// takes over as the training primary when it lapses. After promotion,
		// -retrain paces the member's training epochs exactly as it paces a
		// boot primary's retrain cycles — and with -retrain 0 (the default)
		// the promoted member serves and heartbeats without advancing the
		// model, again like a boot primary: a failover must not silently
		// switch on continuous training load.
		var memberTrain []*feature.EncodedPlan
		if *retrain > 0 {
			memberTrain = eps
		}
		member := replica.NewMember(replica.MemberConfig{
			Peers:         strings.Split(*peers, ","),
			Rank:          *promoRank,
			Token:         *replToken,
			Server:        srv,
			Model:         model,
			Listen:        *replListen,
			Lease:         *lease,
			Heartbeat:     *heartbeat,
			Train:         memberTrain,
			BatchSize:     16,
			Workers:       *workers,
			Shards:        *shards,
			TrainInterval: *retrain,
			Logf:          log.Printf,
		})
		go func() {
			defer close(followerDone)
			member.Run(ctx)
		}()
		svc.ReplicationStats = func() any {
			if p := member.Publisher(); p != nil {
				return p.Stats()
			}
			return member.Follower().Stats()
		}
		svc.ClusterStats = func() any { return member.Stats() }
		svc.ClusterState = func() string { return member.State().String() }
		svc.GenerationOf = member.EpochGenOf
		log.Printf("costestd: cluster member (rank %d) following peers %s", *promoRank, *peers)
		becomeReady = func() {
			go func() {
				if err := member.WaitReady(ctx); err != nil {
					return // shutting down before the first frame arrived
				}
				svc.SetReady(true)
				log.Printf("costestd: serving cluster weights (epoch %d, generation %d, state %s), admitting traffic",
					member.Epoch(), member.Generation(), member.State())
			}()
		}
	case *replListen != "":
		pub = replica.NewPublisher(model, srv.Version(), replica.PublisherConfig{
			Token:     *replToken,
			Heartbeat: *heartbeat,
			Logf:      log.Printf,
		})
		srv.SetPublishHook(pub.OnPublish)
		rln, err := net.Listen("tcp", *replListen)
		if err != nil {
			log.Fatalf("costestd: replicate-listen: %v", err)
		}
		go pub.Serve(rln)
		svc.ReplicationStats = func() any { return pub.Stats() }
		svc.GenerationOf = func(version uint64) (uint64, uint64, bool) {
			g, ok := pub.GenOf(version)
			return pub.Epoch(), g, ok
		}
		close(followerDone)
		log.Printf("costestd: replicating publications on %s (epoch %d)", rln.Addr(), pub.Epoch())
	case *follow != "":
		fol := replica.NewFollower(replica.FollowerConfig{
			Addr:      *follow,
			Token:     *replToken,
			Server:    srv,
			Model:     model,
			Heartbeat: *heartbeat,
			Logf:      log.Printf,
		})
		go func() {
			defer close(followerDone)
			fol.Run(ctx)
		}()
		svc.ReplicationStats = func() any { return fol.Stats() }
		svc.GenerationOf = fol.EpochGenOf
		log.Printf("costestd: following primary %s", *follow)
		becomeReady = func() {
			go func() {
				if err := fol.WaitReady(ctx); err != nil {
					return // shutting down before the first frame arrived
				}
				svc.SetReady(true)
				log.Printf("costestd: first replicated model applied (generation %d), admitting traffic", fol.Generation())
			}()
		}
	default:
		close(followerDone)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("costestd: listen: %v", err)
	}
	httpSrv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	becomeReady()
	log.Printf("costestd: serving v%d on %s (%d params, queue %d)",
		srv.Version(), ln.Addr(), model.NumParams(), *queueDepth)

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		log.Fatalf("costestd: serve: %v", err)
	}

	// Graceful drain: stop admitting (readiness flips with the drain), flush
	// everything already admitted, then close the listener.
	log.Print("costestd: signal received, draining")
	svc.SetReady(false)
	<-retrainDone
	<-followerDone
	if pub != nil {
		pub.Close()
	}
	sched.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Fatalf("costestd: shutdown: %v", err)
	}
	if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("costestd: serve: %v", err)
	}
	st := sched.Stats()
	log.Printf("costestd: drained clean: %d served in %d batches (mean %.1f), %d rejected, 0 dropped",
		st.Served, st.Batches, st.MeanBatch, st.Rejected)
}

// loadOrTrain cold-loads the crash-safe checkpoint at path (falling back to
// its .prev last-good copy for torn or corrupt primaries), otherwise trains
// a model and, when path is set, saves it atomically for the next cold
// start. A corrupt checkpoint with no loadable fallback is loud — it means
// durable state was lost — but never fatal: the daemon retrains from the
// workload instead of crash-looping on a bad file.
func loadOrTrain(path string, enc *feature.Encoder, eps []*feature.EncodedPlan,
	epochs, shards, patience int) (*core.Model, error) {
	if path != "" {
		m, src, err := core.LoadCheckpoint(path, enc)
		switch {
		case err == nil:
			log.Printf("costestd: cold-loaded checkpoint %s", src)
			return m, nil
		case errors.Is(err, fs.ErrNotExist):
			// First boot: nothing to load, nothing to warn about.
		default:
			log.Printf("costestd: CHECKPOINT UNRECOVERABLE, retraining from scratch: %v", err)
		}
	}
	cut := len(eps) * 4 / 5
	train, valid := eps[:cut], eps[cut:]
	m := core.New(core.TestConfig(), enc)
	pt := core.NewParallelTrainer(m, shards)
	defer pt.Close()
	pt.EarlyStop(core.EarlyStopOptions{Patience: patience})
	start := time.Now()
	hist := pt.Fit(train, valid, epochs, 16, 0, nil)
	last := hist[len(hist)-1]
	log.Printf("costestd: trained %d/%d epochs in %v (valid q-error: cost %.2f, card %.2f)",
		len(hist), epochs, time.Since(start).Round(time.Millisecond), last.ValidCost, last.ValidCard)
	if path != "" {
		if err := core.SaveCheckpoint(path, m); err != nil {
			return nil, err
		}
		log.Printf("costestd: saved checkpoint %s", path)
	}
	return m, nil
}
