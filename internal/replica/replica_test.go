package replica

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/fault"
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 30, SampleSize: 48, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
	testEnc = feature.NewEncoder(testCat, strembed.HashEmbedder{DimN: 12}, true)
)

// testHeartbeat is the replication heartbeat of the test primaries and their
// followers (both sides of a connection must share one): it derives a 400 ms
// peer timeout and a 20 ms → 400 ms reconnect backoff (see timingFor).
const testHeartbeat = 100 * time.Millisecond

// testPoolBound is the bound of the servers' memory pools: the daemon's
// default, the pool mode every served model runs.
const testPoolBound = 4096

// serveOne serves ep as a batch of one through EstimateBatchInto, the path
// the daemon's scheduler takes, returning the estimate and the version of the
// snapshot that answered.
func serveOne(srv *core.Server, ep *feature.EncodedPlan) (cost, card float64, version uint64) {
	out := make([]core.Estimate, 1)
	out, version, _, _ = srv.EstimateBatchInto([]*feature.EncodedPlan{ep}, out)
	return out[0].Cost, out[0].Card, version
}

// labeledSamples builds a deterministic labeled workload. Samples carry the
// raw plans so each server under test can encode its own private
// EncodedPlans (servers must never share plan buffers in these tests — the
// point is proving cross-process bit-identity, not shared memory).
func labeledSamples(t testing.TB, seed int64, n int) []*workload.Labeled {
	t.Helper()
	queries := workload.TrainingNumeric(testDB, seed, n)
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	samples := lab.Label(queries)
	if len(samples) < n/2 {
		t.Fatalf("only %d/%d samples labeled", len(samples), n)
	}
	return samples
}

// encodePlans encodes the samples into fresh, caller-private EncodedPlans.
func encodePlans(t testing.TB, samples []*workload.Labeled) []*feature.EncodedPlan {
	t.Helper()
	eps := make([]*feature.EncodedPlan, 0, len(samples))
	for _, s := range samples {
		ep, err := testEnc.Encode(s.Plan)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		eps = append(eps, ep)
	}
	return eps
}

// trainedModel builds and briefly trains a model on eps.
func trainedModel(t testing.TB, eps []*feature.EncodedPlan, epochs int) (*core.Model, *core.ParallelTrainer) {
	t.Helper()
	m := core.New(core.TestConfig(), testEnc)
	tr := core.NewParallelTrainer(m, 1)
	t.Cleanup(tr.Close)
	tr.FitNormalizers(eps)
	for i := 0; i < epochs; i++ {
		tr.TrainEpochParallel(eps, 8)
	}
	return m, tr
}

// mustPublisher builds a publisher over a finite model.
func mustPublisher(t testing.TB, m *core.Model, gen uint64, cfg PublisherConfig) *Publisher {
	t.Helper()
	pub, err := NewPublisher(m, gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// startPrimary boots a serving primary with a replication listener on a
// loopback port and returns its server, publisher and listen address.
func startPrimary(t testing.TB, m *core.Model, tr *core.ParallelTrainer) (*core.Server, *Publisher, string) {
	t.Helper()
	srv := core.NewServer(m, core.NewBoundedMemoryPool(testPoolBound))
	srv.PublishDelta(tr.M)
	pub := mustPublisher(t, m, srv.Version(), PublisherConfig{Heartbeat: testHeartbeat, Logf: t.Logf})
	srv.SetPublishHook(pub.OnPublish)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go pub.Serve(ln)
	t.Cleanup(pub.Close)
	return srv, pub, ln.Addr().String()
}

// testReplica is one replica process-equivalent: its own model, server and
// privately encoded plans, plus the running follower (the half of a rank −1
// member, which never promotes).
type testReplica struct {
	t      testing.TB
	addr   string
	model  *core.Model
	srv    *core.Server
	eps    []*feature.EncodedPlan
	fptr   atomic.Pointer[follower]
	cancel context.CancelFunc
	done   chan struct{}
}

func newTestReplica(t testing.TB, cfg core.Config, samples []*workload.Labeled, addr string) *testReplica {
	t.Helper()
	model := core.New(cfg, testEnc)
	return &testReplica{
		t:     t,
		addr:  addr,
		model: model,
		srv:   core.NewServer(model, core.NewBoundedMemoryPool(testPoolBound)),
		eps:   encodePlans(t, samples),
	}
}

// start launches a fresh member (as after a process restart: all
// replication state forgotten, the local model keeps whatever weights it
// had) and returns its follower.
func (r *testReplica) start() *follower {
	m := NewMember(MemberConfig{
		Peers:     []string{r.addr},
		Rank:      -1,
		Server:    r.srv,
		Model:     r.model,
		Heartbeat: testHeartbeat,
		Logf:      r.t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(ctx)
	}()
	r.fptr.Store(m.fol)
	r.cancel, r.done = cancel, done
	r.t.Cleanup(r.stop)
	return m.fol
}

func (r *testReplica) follower() *follower { return r.fptr.Load() }

// stop cancels the follower and waits for its goroutine; idempotent.
func (r *testReplica) stop() {
	if r.cancel == nil {
		return
	}
	r.cancel()
	<-r.done
	r.cancel = nil
}

func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// estimateAt serves ep from the snapshot srv serves now and reports that
// snapshot's replication coordinates with the estimate (zero: unlabeled).
func estimateAt(srv *core.Server, ep *feature.EncodedPlan) (cost, card float64, epoch, gen uint64) {
	var out [1]core.Estimate
	_, _, epoch, gen = srv.EstimateBatchInto([]*feature.EncodedPlan{ep}, out[:])
	return out[0].Cost, out[0].Card, epoch, gen
}

// expectBitIdentical asserts that the replica serves every plan with
// bit-identical cost and cardinality to the primary.
func expectBitIdentical(t testing.TB, prim *core.Server, primEps []*feature.EncodedPlan, r *testReplica) {
	t.Helper()
	for i, ep := range primEps {
		pc, pd, pv := serveOne(prim, ep)
		rc, rd, rv := serveOne(r.srv, r.eps[i])
		if math.Float64bits(pc) != math.Float64bits(rc) || math.Float64bits(pd) != math.Float64bits(rd) {
			t.Fatalf("plan %d: primary (%x, %x) at v%d, replica (%x, %x) at v%d",
				i, math.Float64bits(pc), math.Float64bits(pd), pv,
				math.Float64bits(rc), math.Float64bits(rd), rv)
		}
	}
}

// TestFollowerBootstrapAndDelta is the basic replication path: a follower
// bootstraps by snapshot, tracks delta publications, and serves
// bit-identical estimates; a one-parameter update travels as a delta frame
// measurably smaller than a snapshot.
func TestFollowerBootstrapAndDelta(t *testing.T) {
	samples := labeledSamples(t, 11, 16)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv, pub, addr := startPrimary(t, m, tr)

	r := newTestReplica(t, m.Cfg, samples, addr)
	f := r.start()
	select {
	case <-f.ready:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never became ready")
	}
	waitFor(t, 5*time.Second, "bootstrap catch-up", func() bool { return f.Generation() == srv.Version() })
	expectBitIdentical(t, srv, primEps, r)
	if st := f.Stats(); st.SnapshotsApplied == 0 {
		t.Fatalf("follower bootstrapped without a snapshot frame: %+v", st)
	}

	// Three delta publications from real training steps.
	for i := 0; i < 3; i++ {
		tr.TrainEpochParallel(primEps, 8)
		srv.PublishDelta(tr.M)
	}
	waitFor(t, 5*time.Second, "delta catch-up", func() bool { return f.Generation() == srv.Version() })
	expectBitIdentical(t, srv, primEps, r)
	if st := f.Stats(); st.DeltasApplied == 0 {
		t.Fatalf("no delta frames applied: %+v", st)
	}

	// A sparse update — one parameter — must travel as a delta frame far
	// smaller than a full snapshot.
	p0 := m.PS.Params()[0]
	p0.Value[0] += 0.5
	m.PS.MarkParamsUpdated([]*nn.Param{p0})
	srv.PublishDelta(m)
	waitFor(t, 5*time.Second, "sparse delta catch-up", func() bool { return f.Generation() == srv.Version() })
	expectBitIdentical(t, srv, primEps, r)
	st := pub.Stats()
	if st.LastDeltaBytes == 0 || st.LastSnapshotBytes == 0 {
		t.Fatalf("missing frame size stats: %+v", st)
	}
	if st.LastDeltaBytes*4 > st.LastSnapshotBytes {
		t.Fatalf("sparse delta frame (%d bytes) not measurably smaller than snapshot (%d bytes)",
			st.LastDeltaBytes, st.LastSnapshotBytes)
	}
	t.Logf("frame sizes: sparse delta %d bytes, full snapshot %d bytes", st.LastDeltaBytes, st.LastSnapshotBytes)

	// Lag is exposed and zero once caught up.
	if fst := f.Stats(); fst.Lag != 0 || !fst.Connected {
		t.Fatalf("caught-up follower reports lag %d connected %v", fst.Lag, fst.Connected)
	}
}

// TestFollowerReconnectCatchUp severs every follower connection and publishes
// while the follower is gone. Twice: first with the interleaving left free —
// the follower redials within milliseconds and may be back before the first
// publish lands, resuming by deltas, so only the invariants are asserted —
// then with the follower held off until the publishes are done, where the
// reconnect handshake must heal the gap by snapshot.
func TestFollowerReconnectCatchUp(t *testing.T) {
	samples := labeledSamples(t, 13, 12)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv, pub, addr := startPrimary(t, m, tr)

	r := newTestReplica(t, m.Cfg, samples, addr)
	f := r.start()
	waitFor(t, 10*time.Second, "bootstrap", func() bool { return f.Generation() == srv.Version() })
	publishTwice := func() {
		for i := 0; i < 2; i++ {
			tr.TrainEpochParallel(primEps, 8)
			srv.PublishDelta(tr.M)
		}
	}

	pub.DisconnectAll()
	publishTwice()
	waitFor(t, 10*time.Second, "reconnect catch-up", func() bool { return f.Generation() == srv.Version() })
	expectBitIdentical(t, srv, primEps, r)
	before := f.Stats()
	if before.Reconnects < 1 {
		t.Fatalf("severed follower never reconnected: %+v", before)
	}

	// Hold the follower off: with the receive fault armed every session ends
	// before it reads a frame, so the follower keeps redialing but applies
	// nothing, and is two generations behind when the fault is lifted.
	fault.Enable(fault.New(1).Add(fault.Rule{Site: fault.SiteReplicaRecv, Kind: fault.Error}))
	defer fault.Disable()
	pub.DisconnectAll()
	publishTwice()
	if behind := f.Generation(); behind != before.Generation {
		t.Fatalf("held-off follower moved from generation %d to %d", before.Generation, behind)
	}
	fault.Disable()
	waitFor(t, 10*time.Second, "held-off catch-up", func() bool { return f.Generation() == srv.Version() })
	expectBitIdentical(t, srv, primEps, r)
	if st := f.Stats(); st.SnapshotsApplied <= before.SnapshotsApplied || st.Reconnects <= before.Reconnects {
		t.Fatalf("reconnect behind the primary should have healed by snapshot: before %+v, after %+v", before, st)
	}
}

// TestFollowerSchemaMismatch proves a follower with a different model
// architecture is refused at the handshake and never serves primary frames.
func TestFollowerSchemaMismatch(t *testing.T) {
	samples := labeledSamples(t, 17, 8)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	_, pub, addr := startPrimary(t, m, tr)

	cfg := core.TestConfig()
	cfg.Hidden += 4 // different architecture => different schema hash
	r := newTestReplica(t, cfg, samples, addr)
	f := r.start()
	waitFor(t, 5*time.Second, "schema rejection", func() bool { return pub.Stats().RejectedConns > 0 })
	select {
	case <-f.ready:
		t.Fatal("mismatched follower became ready")
	default:
	}
	if g := f.Generation(); g != 0 {
		t.Fatalf("mismatched follower applied generation %d", g)
	}
}

// TestHeldFollowerSnapshotKeepsCoordinates: a follower's snapshot names the
// frame it was published from for as long as anyone holds it. A snapshot held
// across 1,100 further applied frames — more than any bounded
// version→generation table would remember — still reports (1, g).
func TestHeldFollowerSnapshotKeepsCoordinates(t *testing.T) {
	samples := labeledSamples(t, 19, 8)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv, _, addr := startPrimary(t, m, tr)
	r := newTestReplica(t, m.Cfg, samples, addr)
	f := r.start()
	waitFor(t, 10*time.Second, "bootstrap", func() bool { return f.Generation() == srv.Version() })

	held := r.srv.AcquireSnapshot()
	defer r.srv.ReleaseSnapshot(held)
	if ep, gen := held.Coordinates(); ep != 1 || gen != srv.Version() {
		t.Fatalf("bootstrapped follower serves (%d, %d), want (1, %d)", ep, gen, srv.Version())
	}
	wantGen := srv.Version()

	st := f.Stats()
	applied := st.SnapshotsApplied + st.DeltasApplied
	const frames = 1100
	p0 := m.PS.Params()[0]
	for i := 1; i <= frames; i++ {
		p0.Value[0] += 1e-6
		m.PS.MarkParamsUpdated([]*nn.Param{p0})
		srv.PublishDelta(m)
		if i%16 == 0 || i == frames {
			// Stay inside the publisher's send queue: every frame is applied.
			waitFor(t, 10*time.Second, "follower catch-up", func() bool { return f.Generation() == srv.Version() })
		}
	}
	st = f.Stats()
	if n := st.SnapshotsApplied + st.DeltasApplied - applied; n < frames {
		t.Fatalf("follower applied %d frames, want >= %d", n, frames)
	}
	if ep, gen := held.Coordinates(); ep != 1 || gen != wantGen {
		t.Fatalf("held snapshot v%d reports (%d, %d) after %d frames, want (1, %d)", held.Version(), ep, gen, frames, wantGen)
	}
	if _, _, ep, gen := estimateAt(r.srv, r.eps[0]); ep != 1 || gen != srv.Version() {
		t.Fatalf("follower head serves (%d, %d), want (1, %d)", ep, gen, srv.Version())
	}
}
