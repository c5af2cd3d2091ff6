// Command costestd is the networked estimator daemon: a long-lived process
// serving learned cost/cardinality estimates over HTTP, fronting the
// hot-swap serving runtime (internal/core) with the batching scheduler and
// admission control of internal/serve.
//
// Startup either cold-loads a self-describing checkpoint (-checkpoint) or
// trains a model on the synthetic IMDB workload, then serves. The labeled
// training corpus is built the first time something trains, so a process
// that never trains (a follower, a checkpoint boot without -retrain) builds
// none:
//
//	POST /estimate  {"plan": {...}}         one estimate (see GET /samplez)
//	GET  /healthz                           process liveness
//	GET  /readyz                            model loaded and admitting
//	GET  /statsz                            scheduler/pool/drain statistics
//	GET  /samplez                           a valid example /estimate body
//
// The daemon is self-healing. Background retraining (-retrain) runs under a
// supervisor: panicking cycles restart with exponential backoff, regressed
// models are gated before publish (-gate-slack), and every published model is
// checkpointed crash-safely (-checkpoint) — a kill at any instant leaves a
// cold-loadable file. A serving batch that fails — an estimator error or a
// recovered panic — answers its own requests with a 500 and nothing else;
// the next batch runs as if it had not happened. Chaos tests drive all of it
// with -faults (deterministic, seedable fault injection).
//
// The daemon scales out by replication (internal/replica): a primary
// started with -replicate-listen streams every published model — dirty
// parameters only, full snapshots for bootstrap and catch-up — to follower
// daemons started with -peers, which serve bit-identical estimates and
// report generation lag in /statsz. Each follower follows the live primary
// through the ordered peer list, renewing a primary-liveness lease on every
// authenticated frame (heartbeats keep idle connections fed, read/write
// deadlines catch dead peers), and turns ready once it serves the cluster's
// weights. A follower at the default -promote-rank -1 never promotes and
// trains nothing. For high availability, a promotable member
// (-promote-rank 0, -lease) whose lease lapses promotes itself: it
// seals the last applied generation and publishes from its own
// -replicate-listen under the next epoch while the surviving members re-dial
// through the peer list onto it. While primary it runs the same supervised
// retrain loop as a boot primary (-retrain, -gate-slack, the daemon.retrain
// fault site, the /statsz "supervisor" block; 0 keeps it serve-only); only
// -checkpoint stays a boot-primary option.
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
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
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

// poolBound is the representation pool's entry bound.
const poolBound = 4096

// options holds the daemon's command-line settings.
type options struct {
	addr, checkpoint, faults, replListen, peers, replToken string
	scale, gateSlack                                       float64
	seed, faultSeed                                        int64
	queries, epochs, shards, patience, promoRank           int
	retrain, lease, heartbeat                              time.Duration
}

// newFlagSet registers every daemon flag on a fresh FlagSet that parses into
// o. Serving and supervision settings no deployment has set away from their
// defaults are constants instead: the admission queue depth and batch cap
// (serve.SchedulerConfig's defaults), the pool bound, the trainer's
// concurrency (GOMAXPROCS capped at -shards) and the checkpoint cadence
// (every publish).
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("costestd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&o.scale, "scale", 0.03, "synthetic IMDB scale factor")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed")
	fs.IntVar(&o.queries, "queries", 240, "training workload size")
	fs.IntVar(&o.epochs, "epochs", 20, "training epoch budget")
	fs.IntVar(&o.shards, "shards", 1, "data-parallel trainer shards")
	fs.IntVar(&o.patience, "patience", 3, "early-stopping patience (0 disables)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint path: cold-load if present, else train and save; every published model is checkpointed here")
	fs.DurationVar(&o.retrain, "retrain", 0, "interval of the supervised background retrain+publish loop; a -peers member runs it only while promoted (0 disables training entirely)")

	fs.Float64Var(&o.gateSlack, "gate-slack", 0.10, "allowed relative validation q-error regression before a retrained model is gated (negative disables the gate)")
	fs.StringVar(&o.faults, "faults", "", "fault injection spec, e.g. 'daemon.retrain:panic:count=2;serve.batch:error:p=0.1' (chaos testing only)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for probabilistic fault rules")

	fs.StringVar(&o.replListen, "replicate-listen", "", "replication listener address (primary side, or the promotion listener of a -peers member): stream every publication to follower daemons")
	fs.StringVar(&o.peers, "peers", "", "comma-separated ordered replication peer list (follower mode: follow the live primary through this list)")
	fs.IntVar(&o.promoRank, "promote-rank", -1, "promotion rank in -peers mode: 0 promotes first on primary-lease expiry, -1 never promotes (requires -replicate-listen when >= 0)")
	fs.DurationVar(&o.lease, "lease", 3*time.Second, "base primary-liveness lease in -peers mode (rank r waits (r+1) leases)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 500*time.Millisecond, "replication heartbeat interval (both sides)")
	fs.StringVar(&o.replToken, "replicate-token", "", "pre-shared replication auth token (constant-time checked on the handshake; empty disables)")
	return fs
}

func main() {
	log.SetFlags(0)
	var o options
	newFlagSet(&o).Parse(os.Args[1:])
	if o.peers == "" && o.promoRank >= 0 {
		log.Fatal("costestd: -promote-rank requires -peers")
	}
	if o.peers != "" && o.promoRank >= 0 && o.replListen == "" {
		log.Fatal("costestd: a promotable member (-promote-rank >= 0) needs -replicate-listen for its own replication listener")
	}

	if o.faults != "" {
		inj, err := fault.ParseSpec(o.faults, o.faultSeed)
		if err != nil {
			log.Fatalf("costestd: -faults: %v", err)
		}
		fault.Enable(inj)
		log.Printf("costestd: FAULT INJECTION ENABLED: %s (seed %d)", o.faults, o.faultSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Substrate: synthetic database, statistics, the training workload and
	// the /samplez plan, its first query planned but not executed.
	start := time.Now()
	db, cat, enc := substrate(o.scale)
	pl := planner.New(pg.New(cat), db.Schema)
	qs := workload.TrainingNumeric(db, o.seed, o.queries)
	var sample *serve.WirePlan
	for _, q := range qs {
		if root, err := pl.Plan(q); err == nil {
			sample = serve.EncodeWire(root)
			break
		}
	}
	log.Printf("costestd: substrate ready in %v", time.Since(start).Round(time.Millisecond))
	// The labeled, encoded training corpus, built on first use.
	corpus := sync.OnceValue(func() []*feature.EncodedPlan {
		start := time.Now()
		labeler := &workload.Labeler{Planner: pl, Engine: exec.NewEngine(db)}
		var eps []*feature.EncodedPlan
		for _, s := range labeler.Label(qs) {
			ep, err := enc.Encode(s.Plan)
			if err != nil {
				log.Fatalf("costestd: encode: %v", err)
			}
			eps = append(eps, ep)
		}
		if len(eps) == 0 {
			log.Fatal("costestd: empty training corpus")
		}
		log.Printf("costestd: labeled %d plans in %v", len(eps), time.Since(start).Round(time.Millisecond))
		return eps
	})

	var model *core.Model
	if o.peers != "" {
		// Follower mode: weights arrive over the replication stream, so the
		// local model starts blank. Architecture and encoder dimensions must
		// match the primary's (the replication handshake verifies this by
		// schema hash and refuses mismatches).
		model = core.New(core.TestConfig(), enc)
		if o.checkpoint != "" {
			log.Print("costestd: -checkpoint ignored in replica mode (models come from the primary)")
		}
	} else {
		var err error
		model, err = loadOrTrain(o.checkpoint, enc, corpus, o.epochs, o.shards, o.patience)
		if err != nil {
			log.Fatalf("costestd: %v", err)
		}
	}

	// Serving stack: hot-swap server over a generation-tagged bounded pool,
	// batching scheduler (one run slot per processor), HTTP service.
	srv := core.NewServer(model, core.NewBoundedMemoryPool(poolBound))
	sched := serve.NewScheduler(srv, serve.SchedulerConfig{})
	sched.Start()
	svc := serve.NewService(sched, srv, enc)
	svc.SetSample(sample)

	// Supervised continuous train-and-serve loop: retrain cycles run under
	// panic containment with backoff restarts, candidates publish only past
	// the validation gate, and published models checkpoint crash-safely —
	// the scheduler keeps serving whatever snapshot is current throughout.
	// A boot primary runs it from here on; a cluster member runs it while it
	// is primary. Wired before the HTTP server starts so /statsz never races
	// the SupervisorStats installation.
	var sup *supervisor
	if o.retrain > 0 {
		sup = newSupervisor(srv, model, o.shards, corpus, o.seed)
		sup.Interval = o.retrain
		sup.GateSlack = o.gateSlack
		sup.logf = log.Printf
		svc.SupervisorStats = sup.stats
	}

	// Replication wiring: a primary taps every publication and streams
	// frames to follower daemons; a follower applies the primary's frames
	// into its local server and only turns ready once it serves cluster
	// weights. Either side reports under "replication" in /statsz, and a
	// follower adds "cluster".
	var pub *replica.Publisher
	followerDone := make(chan struct{})
	becomeReady := func() { svc.SetReady(true) }
	switch {
	case o.peers != "":
		// Follower: follow the live primary through the ordered peer list; a
		// promotable member (rank >= 0) watches the primary lease and
		// takes over as primary when it lapses. While primary it runs the
		// same supervisor a boot primary runs — and with -retrain 0 (the
		// default) it serves and heartbeats without advancing the model,
		// again like a boot primary: a failover must not silently switch on
		// continuous training load.
		mc := replica.MemberConfig{
			Peers:     strings.Split(o.peers, ","),
			Rank:      o.promoRank,
			Token:     o.replToken,
			Server:    srv,
			Model:     model,
			Listen:    o.replListen,
			Lease:     o.lease,
			Heartbeat: o.heartbeat,
			Logf:      log.Printf,
		}
		if sup != nil {
			mc.Primary = sup.run
		}
		member := replica.NewMember(mc)
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
		log.Printf("costestd: cluster member (rank %d) following peers %s", o.promoRank, o.peers)
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
	case o.replListen != "":
		var err error
		pub, err = replica.NewPublisher(model, srv.Version(), replica.PublisherConfig{
			Token:     o.replToken,
			Heartbeat: o.heartbeat,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("costestd: replicate-listen: %v", err)
		}
		srv.SetPublishHook(pub.OnPublish)
		// Republish the boot model through the hook, so the snapshot this
		// primary serves carries the (epoch, generation) its followers
		// receive the same weights under.
		srv.PublishDelta(model)
		rln, err := net.Listen("tcp", o.replListen)
		if err != nil {
			log.Fatalf("costestd: replicate-listen: %v", err)
		}
		go pub.Serve(rln)
		svc.ReplicationStats = func() any { return pub.Stats() }
		close(followerDone)
		log.Printf("costestd: replicating publications on %s (epoch %d)", rln.Addr(), pub.Epoch())
	default:
		close(followerDone)
	}

	// A boot primary's supervisor starts only now: NewPublisher's weight copy
	// and the boot republish above read the model it trains.
	retrainDone := make(chan struct{})
	if sup != nil && o.peers == "" {
		sup.CheckpointPath = o.checkpoint
		go func() {
			defer close(retrainDone)
			sup.run(ctx)
		}()
	} else {
		close(retrainDone)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatalf("costestd: listen: %v", err)
	}
	httpSrv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	becomeReady()
	log.Printf("costestd: serving v%d on %s (%d params)", srv.Version(), ln.Addr(), model.NumParams())

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

// substrate generates the synthetic database at scale, collects its
// statistics, and builds the plan encoder over them — the encoder a
// checkpoint must match to cold-load.
func substrate(scale float64) (*dataset.DB, *stats.Catalog, *feature.Encoder) {
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: scale})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	return db, cat, feature.NewEncoder(cat, strembed.ZeroEncoder{}, true)
}

// loadOrTrain cold-loads the crash-safe checkpoint at path (falling back to
// its .prev last-good copy for torn or corrupt primaries), otherwise trains
// a model and, when path is set, saves it atomically for the next cold
// start. A corrupt checkpoint with no loadable .prev copy is loud — it means
// durable state was lost — but never fatal: the daemon retrains from the
// workload instead of crash-looping on a bad file. Training needs at least
// one epoch; a boot that would train with fewer is an error, while a
// checkpoint boot never trains, takes any epoch budget and never calls
// corpus.
func loadOrTrain(path string, enc *feature.Encoder, corpus func() []*feature.EncodedPlan,
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
	if epochs < 1 {
		return nil, fmt.Errorf("-epochs %d: training needs at least one epoch", epochs)
	}
	eps := corpus()
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
