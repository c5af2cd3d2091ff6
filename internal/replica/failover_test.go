package replica

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/workload"
)

// testMember is one cluster-member process-equivalent: its own model and
// server, plus the running Member.
type testMember struct {
	t      testing.TB
	model  *core.Model
	srv    *core.Server
	member *Member
	cancel context.CancelFunc
	done   chan struct{}
}

// startMember boots a Member over a fresh blank model/server pair. The
// member encodes its own private plans; promotable members default to
// training on them and publishing after promotion (trainAndPublish).
func startMember(t testing.TB, cfg core.Config, samples []*workload.Labeled, mc MemberConfig) (*testMember, *core.Server, []*feature.EncodedPlan) {
	t.Helper()
	model := core.New(cfg, testEnc)
	srv := core.NewServer(model, core.NewMemoryPool())
	eps := encodePlans(t, samples)
	mc.Server, mc.Model = srv, model
	if mc.Primary == nil && mc.Rank >= 0 {
		mc.Primary = trainAndPublish(model, srv, eps)
	}
	m := NewMember(mc)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(ctx)
	}()
	tm := &testMember{t: t, model: model, srv: srv, member: m, cancel: cancel, done: done}
	t.Cleanup(tm.stop)
	return tm, srv, eps
}

// trainAndPublish is the primary work of a promoted test member: train an
// epoch over eps, publish it, pause 5 ms, until the term's ctx ends.
func trainAndPublish(model *core.Model, srv *core.Server, eps []*feature.EncodedPlan) func(context.Context) {
	return func(ctx context.Context) {
		tr := core.NewParallelTrainer(model, 1)
		defer tr.Close()
		for ctx.Err() == nil {
			tr.TrainEpochParallel(eps, 8, 0)
			if ctx.Err() != nil {
				return
			}
			srv.PublishDelta(model)
			sleepCtx(ctx, 5*time.Millisecond)
		}
	}
}

func (tm *testMember) stop() {
	if tm.cancel == nil {
		return
	}
	tm.cancel()
	<-tm.done
	tm.cancel = nil
}

// TestFailoverConformance is the HA acceptance suite: primary A streams to
// rank-0 successor B and non-promotable member C under training churn with
// injected frame corruption and latency. A is killed mid-churn; B must
// detect the lapsed lease, promote within the configured bound, and publish
// under epoch 2 while C re-dials through the peer list onto B. A then comes
// back as a zombie still publishing epoch 1: its late frames must be
// provably rejected (fenced) by C, and the zombie must fence itself on the
// reply. Throughout, every estimate observation is recorded with its
// (epoch, generation) coordinates, and grouped by (epoch, generation, plan)
// all observations must be bit-identical whichever process served them.
//
// Run under -race in CI: the suite doubles as the data-race proof for the
// failover runtime.
func TestFailoverConformance(t *testing.T) {
	const (
		hb     = 40 * time.Millisecond
		peerTO = 200 * time.Millisecond
		leaseD = 400 * time.Millisecond
	)
	samples := labeledSamples(t, 29, 20)
	primEps := encodePlans(t, samples)
	mA, trA := trainedModel(t, primEps, 1)

	// Primary A on a pre-bound port, epoch 1.
	srvA := core.NewServer(mA, core.NewMemoryPool())
	srvA.PublishDelta(trA.M)
	pubA := mustPublisher(t, mA, srvA.Version(), PublisherConfig{
		Epoch: 1, Heartbeat: hb, PeerTimeout: peerTO, Logf: t.Logf,
	})
	srvA.SetPublishHook(pubA.OnPublish)
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen A: %v", err)
	}
	addrA := lnA.Addr().String()
	go pubA.Serve(lnA)
	t.Cleanup(pubA.Close)

	// B is the designated successor: rank 0, with its promotion listener
	// pre-bound so every peer list can carry its address from the start.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen B: %v", err)
	}
	addrB := lnB.Addr().String()
	B, srvB, epsB := startMember(t, mA.Cfg, samples, MemberConfig{
		Peers: []string{addrA}, Rank: 0, Listener: lnB,
		Lease: leaseD, Heartbeat: hb, PeerTimeout: peerTO,
		RetryMin: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
		Logf: t.Logf,
	})
	// C never promotes; it walks the ordered peer list [A, B].
	C, srvC, epsC := startMember(t, mA.Cfg, samples, MemberConfig{
		Peers: []string{addrA, addrB}, Rank: -1,
		Heartbeat: hb, PeerTimeout: peerTO,
		RetryMin: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
		Logf: t.Logf,
	})
	for _, m := range []*Member{B.member, C.member} {
		m := m
		waitFor(t, 15*time.Second, "member bootstrap", func() bool {
			return m.Follower().Generation() == srvA.Version()
		})
	}

	// Chaos on the wire for the whole failover: corrupt frames must be
	// rejected by checksum, latency must be absorbed by deadline slack.
	inj, err := fault.ParseSpec(
		fault.SiteReplicaSendCorrupt+":error:p=0.15;"+fault.SiteReplicaSend+":latency:p=0.2:delay=200us", 99)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	fault.Enable(inj)
	defer fault.Disable()

	// Concurrent estimate load against all three processes, each observation
	// recorded with its cluster (epoch, generation) coordinates.
	type key struct {
		epoch, gen uint64
		plan       int
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	recorded := make([][]obsEG, 3)
	runLoad := func(src int, estimate func(plan int) (obsEG, bool)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for plan := range primEps {
				if o, ok := estimate(plan); ok {
					recorded[src] = append(recorded[src], o)
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	// Each observation carries the coordinates of the snapshot that served
	// it; unlabeled ones (A's versions from before its publisher) are
	// skipped.
	observe := func(src int, srv *core.Server, eps []*feature.EncodedPlan) func(int) (obsEG, bool) {
		return func(plan int) (obsEG, bool) {
			cost, card, epoch, gen := estimateAt(srv, eps[plan])
			if gen == 0 {
				return obsEG{}, false
			}
			return obsEG{src: src, epoch: epoch, gen: gen, plan: plan,
				costBits: math.Float64bits(cost), cardBits: math.Float64bits(card)}, true
		}
	}
	wg.Add(3)
	go runLoad(0, observe(0, srvA, primEps))
	go runLoad(1, observe(1, srvB, epsB))
	go runLoad(2, observe(2, srvC, epsC))

	// Churn on A, then kill it mid-stream: close the publisher (listener and
	// every connection die with it) exactly as a crashed process would look
	// from the outside.
	for round := 0; round < 12; round++ {
		trA.TrainEpochParallel(primEps, 8, 1)
		srvA.PublishDelta(trA.M)
		time.Sleep(2 * time.Millisecond)
	}
	killAt := time.Now()
	pubA.Close()

	// B must promote within the lease bound (plus deadline and CI slack —
	// the container is 1-core and -race slows everything).
	promoBound := leaseD + 2*peerTO + 5*time.Second
	waitFor(t, promoBound, "rank-0 promotion", func() bool {
		return B.member.State() == StatePrimary
	})
	promoLat := time.Since(killAt)
	t.Logf("promotion latency: %v after primary kill (lease %v, bound %v)", promoLat.Round(time.Millisecond), leaseD, promoBound)
	if got := B.member.Stats(); got.Promotions != 1 {
		t.Fatalf("B promotions = %d, want 1 (%+v)", got.Promotions, got)
	}
	if ep := B.member.Epoch(); ep != 2 {
		t.Fatalf("promoted epoch = %d, want 2", ep)
	}

	// C must find B through the peer list and adopt epoch 2.
	waitFor(t, 30*time.Second, "C adopts epoch 2", func() bool {
		return C.member.Follower().Epoch() == 2
	})

	// The zombie: A comes back on its old address still claiming epoch 1.
	// Its frames must be rejected by any follower that lands on it, and the
	// FrameFenced reply must fence the zombie itself.
	zombie := mustPublisher(t, mA, srvA.Version(), PublisherConfig{
		Epoch: 1, Heartbeat: hb, PeerTimeout: peerTO, Logf: t.Logf,
	})
	lnZ, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatalf("rebind zombie on %s: %v", addrA, err)
	}
	go zombie.Serve(lnZ)
	t.Cleanup(zombie.Close)

	// Kick C off the new primary until its peer-list walk lands on the
	// zombie (two peers: at most a couple of kicks).
	fencedDeadline := time.Now().Add(20 * time.Second)
	for !(zombie.Fenced() && C.member.Follower().Stats().FencedRejected >= 1) {
		if time.Now().After(fencedDeadline) {
			t.Fatalf("zombie never fenced: zombie %+v, C follower %+v", zombie.Stats(), C.member.Follower().Stats())
		}
		if bp := B.member.Publisher(); bp != nil {
			bp.DisconnectAll()
		}
		time.Sleep(150 * time.Millisecond)
	}
	zst := zombie.Stats()
	if !zst.Fenced || zst.FencedBy != 2 {
		t.Fatalf("zombie stats after fencing: %+v", zst)
	}

	// C must settle back on the real primary and keep replicating epoch 2.
	fault.Disable()
	headB := B.member.Generation()
	waitFor(t, 30*time.Second, "C re-converges on promoted primary", func() bool {
		st := C.member.Follower().Stats()
		return st.Connected && st.Epoch == 2 && C.member.Follower().Generation() >= headB
	})
	// Dwell on the now-clean wire: under -race on one core, C can spend the
	// whole chaos phase behind B and only touch the head generation at the
	// instant of convergence — too short a window for both load recorders to
	// observe a shared epoch-2 generation. Requiring a run of cleanly applied
	// epoch-2 deltas (plus a little slack) guarantees the cross-process check
	// below has epoch-2 groups to bite on.
	d0 := C.member.Follower().Stats().DeltasApplied
	waitFor(t, 30*time.Second, "epoch-2 delta stream at C", func() bool {
		return C.member.Follower().Stats().DeltasApplied >= d0+25
	})
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// History: group every observation by (epoch, generation, plan); all
	// recorded bits must agree, whichever process served them — across the
	// failover, the fencing, and the chaos.
	type val struct {
		costBits, cardBits uint64
		srcMask            int
	}
	groups := make(map[key]*val)
	mismatches := 0
	for _, sl := range recorded {
		for _, o := range sl {
			k := key{o.epoch, o.gen, o.plan}
			v := groups[k]
			if v == nil {
				groups[k] = &val{costBits: o.costBits, cardBits: o.cardBits, srcMask: 1 << o.src}
				continue
			}
			v.srcMask |= 1 << o.src
			if v.costBits != o.costBits || v.cardBits != o.cardBits {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("epoch %d gen %d plan %d: src %d served (%x, %x), earlier observation (%x, %x)",
						o.epoch, o.gen, o.plan, o.src, o.costBits, o.cardBits, v.costBits, v.cardBits)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d bit-identity mismatches across %d (epoch, generation, plan) groups", mismatches, len(groups))
	}
	cross, cross2 := 0, 0
	for k, v := range groups {
		if v.srcMask&(v.srcMask-1) != 0 {
			cross++
			if k.epoch == 2 {
				cross2++
			}
		}
	}
	if cross < 10 {
		t.Fatalf("only %d (epoch, generation, plan) groups observed by multiple processes — conformance check is vacuous", cross)
	}
	if cross2 < 1 {
		t.Fatalf("no epoch-2 group was observed by multiple processes — post-failover conformance is vacuous (%d cross total)", cross)
	}
	t.Logf("conformance: %d groups, %d cross-process checked (%d at epoch 2)", len(groups), cross, cross2)

	// The chaos actually happened and was survived, not skipped.
	injected := pubA.Stats().CorruptInjected
	if bp := B.member.Publisher(); bp != nil {
		injected += bp.Stats().CorruptInjected
	}
	rejected := B.member.Follower().Stats().CorruptRejected + C.member.Follower().Stats().CorruptRejected
	if injected == 0 || rejected == 0 {
		t.Fatalf("chaos was a no-op: %d corrupt injected, %d rejected", injected, rejected)
	}
	t.Logf("chaos: %d corrupt injected, %d rejected; C fenced the zombie %d times",
		injected, rejected, C.member.Follower().Stats().FencedRejected)
}

// TestPromoteEpoch pins the promotion epoch seeding rule: strictly above the
// highest observed epoch, the member's own last published epoch, and the
// boot primary's DefaultEpoch — so a member that never heard from any
// primary cannot collide with a default-configured boot primary, and a
// demoted ex-primary never reuses an epoch it already published under.
func TestPromoteEpoch(t *testing.T) {
	cases := []struct{ observed, ownLast, want uint64 }{
		{0, 0, 2}, // never saw a frame: must clear the boot primary's default epoch 1
		{1, 0, 2}, // followed the boot primary
		{5, 0, 6},
		{0, 3, 4}, // ex-primary with no observed view: own epoch dominates
		{2, 7, 8},
		{9, 4, 10},
	}
	for _, tc := range cases {
		if got := promoteEpoch(tc.observed, tc.ownLast); got != tc.want {
			t.Errorf("promoteEpoch(%d, %d) = %d, want %d", tc.observed, tc.ownLast, got, tc.want)
		}
	}
}

// TestBootPromotionClearsBootEpoch boots a promotable member whose whole
// peer list is dead — the boot primary never came up. The lease lapses
// before any frame was ever applied, and the promoted epoch must still be
// above DefaultEpoch: were it 1, a later boot of the default-configured
// primary would stream under the same epoch and split the cluster.
func TestBootPromotionClearsBootEpoch(t *testing.T) {
	samples := labeledSamples(t, 43, 6)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	B, _, _ := startMember(t, core.TestConfig(), samples, MemberConfig{
		Peers: []string{"127.0.0.1:1"}, Rank: 0, Listener: ln,
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		RetryMin: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	waitFor(t, 15*time.Second, "boot promotion", func() bool {
		return B.member.State() == StatePrimary
	})
	if ep := B.member.Epoch(); ep <= DefaultEpoch {
		t.Fatalf("boot promotion epoch = %d, must be above the boot primary's default %d", ep, DefaultEpoch)
	}
}

// TestNewPublisherRefusesNonFinite: a publisher's mirror is every follower's
// bootstrap snapshot, so NewPublisher refuses a model holding NaN or an
// infinity — in a parameter or in a normalizer — instead of mirroring it.
func TestNewPublisherRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		poison func(m *core.Model)
	}{
		{"NaN weight", func(m *core.Model) { m.PS.Params()[0].Value[0] = math.NaN() }},
		{"infinite normalizer", func(m *core.Model) { m.CardNorm.MaxLog = math.Inf(1) }},
	} {
		m := core.New(core.TestConfig(), testEnc)
		if _, err := NewPublisher(m, 1, PublisherConfig{Logf: t.Logf}); err != nil {
			t.Fatalf("%s: a finite model was refused: %v", tc.name, err)
		}
		tc.poison(m)
		if pub, err := NewPublisher(m, 1, PublisherConfig{Logf: t.Logf}); err == nil || pub != nil {
			t.Fatalf("%s: NewPublisher mirrored a non-finite model", tc.name)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: refusal %q does not say why", tc.name, err)
		}
	}
}

// TestMemberWithNonFiniteWeightsStaysFollower is the promotion sibling of the
// daemon supervisor's non-finite refusal: a member whose lease lapses while
// its model holds a NaN would hand every follower a bootstrap snapshot they
// refuse, so it must not promote. It stays a follower, counts each aborted
// promotion, logs why, and keeps serving the finite version it had.
func TestMemberWithNonFiniteWeightsStaysFollower(t *testing.T) {
	samples := labeledSamples(t, 53, 6)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	model := core.New(core.TestConfig(), testEnc)
	srv := core.NewServer(model, core.NewMemoryPool())
	eps := encodePlans(t, samples)
	model.PS.Params()[0].Value[0] = math.NaN()
	model.PS.MarkAllUpdated()
	var logMu sync.Mutex
	var logs []string
	B := NewMember(MemberConfig{
		Peers: []string{"127.0.0.1:1"}, Rank: 0, Listener: ln,
		Server: srv, Model: model,
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		RetryMin: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			logMu.Lock()
			logs = append(logs, line)
			logMu.Unlock()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		B.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	waitFor(t, 15*time.Second, "two aborted promotions", func() bool {
		return B.Stats().AbortedPromotions >= 2
	})
	if st := B.Stats(); st.State != StateFollowing.String() || st.Promotions != 0 {
		t.Fatalf("member with NaN weights: state %s after %d promotions, want a follower that never promoted", st.State, st.Promotions)
	}
	logMu.Lock()
	why := ""
	for _, line := range logs {
		if strings.Contains(line, "promotion aborted") && strings.Contains(line, "non-finite") {
			why = line
		}
	}
	logMu.Unlock()
	if why == "" {
		t.Fatal("no log line says the promotion was aborted for non-finite weights")
	}
	if v := srv.Version(); v != 1 {
		t.Fatalf("member serves version %d, want 1 (nothing published)", v)
	}
	for i, ep := range eps {
		if c, d, _ := srv.Estimate(ep); math.IsNaN(c) || math.IsNaN(d) {
			t.Fatalf("plan %d served non-finite (%g, %g)", i, c, d)
		}
	}
}

// TestPromotedMemberRunsPrimaryUntilFenced pins the Primary contract: a
// rank-0 member starts its primary work on promotion, a higher epoch fences
// it and ends the work's ctx, and the member follows again only after the
// work returns. Here the work lingers 100 ms past its ctx while a live
// epoch-5 primary is already reachable: the member's server must apply no
// frame in that window, and must follow the new primary right after.
func TestPromotedMemberRunsPrimaryUntilFenced(t *testing.T) {
	const linger = 100 * time.Millisecond
	samples := labeledSamples(t, 67, 6)
	mA, _ := trainedModel(t, encodePlans(t, samples), 1)

	// A's address is reserved but dead at boot, so B boot-promotes.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen A: %v", err)
	}
	addrA := lnA.Addr().String()
	lnA.Close()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen B: %v", err)
	}

	// The server versions Primary saw when its ctx ended and when it returned.
	type term struct{ atEnd, atReturn uint64 }
	model := core.New(mA.Cfg, testEnc)
	srv := core.NewServer(model, core.NewMemoryPool())
	started := make(chan struct{}, 1)
	ended := make(chan term, 1)
	B := NewMember(MemberConfig{
		Peers: []string{addrA}, Rank: 0, Listener: lnB,
		Server: srv, Model: model,
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		PeerTimeout: 100 * time.Millisecond,
		RetryMin:    5 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		Logf: t.Logf,
		Primary: func(ctx context.Context) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			v := srv.Version()
			time.Sleep(linger)
			select {
			case ended <- term{v, srv.Version()}:
			default:
			}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		B.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	select {
	case <-started:
	case <-time.After(15 * time.Second):
		t.Fatal("Primary never started")
	}
	if st := B.Stats(); st.State != StatePrimary.String() || st.Promotions != 1 {
		t.Fatalf("Primary started in state %s after %d promotions, want primary after 1", st.State, st.Promotions)
	}

	// The real primary comes up at epoch 5 on A's address; then a scripted
	// follower claiming epoch 5 fences B's publisher.
	pubA := mustPublisher(t, mA, 10, PublisherConfig{Epoch: 5, Heartbeat: 20 * time.Millisecond, Logf: t.Logf})
	lnA, err = net.Listen("tcp", addrA)
	if err != nil {
		t.Fatalf("rebind A on %s: %v", addrA, err)
	}
	go pubA.Serve(lnA)
	t.Cleanup(pubA.Close)
	nc, err := net.Dial("tcp", lnB.Addr().String())
	if err != nil {
		t.Fatalf("dial member: %v", err)
	}
	defer nc.Close()
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint64(hello, SchemaHash(model))
	if _, err := nc.Write(AppendFrame(nil, FrameHello, 5, 0, 0, hello)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := nc.Write(AppendFrame(nil, FrameFenced, 5, 0, 0, nil)); err != nil {
		t.Fatalf("fence frame: %v", err)
	}

	var tm term
	select {
	case tm = <-ended:
	case <-time.After(15 * time.Second):
		t.Fatal("fencing never ended Primary's ctx")
	}
	if tm.atReturn != tm.atEnd {
		t.Fatalf("member applied frames while its Primary was still running: server v%d -> v%d", tm.atEnd, tm.atReturn)
	}
	waitFor(t, 15*time.Second, "the demoted member follows the epoch-5 primary", func() bool {
		return B.Stats().Demotions == 1 && B.Follower().Epoch() == 5 && srv.Version() > tm.atReturn
	})
}

// TestLeaseBoundsFailoverUnderWedgedPeer wedges the only peer (accepts, then
// total silence) with an hour-long PeerTimeout and DialTimeout: the member's
// read deadline must be capped by the remaining lease, so the lapse is still
// detected and promotion happens on the lease bound — not lease + PeerTimeout.
func TestLeaseBoundsFailoverUnderWedgedPeer(t *testing.T) {
	samples := labeledSamples(t, 47, 6)
	wedged, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := wedged.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // hold open, never read or write
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		wedged.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen B: %v", err)
	}
	const leaseD = 250 * time.Millisecond
	start := time.Now()
	B, _, _ := startMember(t, core.TestConfig(), samples, MemberConfig{
		Peers: []string{wedged.Addr().String()}, Rank: 0, Listener: lnB,
		Lease: leaseD, Heartbeat: 50 * time.Millisecond,
		PeerTimeout: time.Hour, DialTimeout: time.Hour, WriteTimeout: time.Hour,
		RetryMin: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	// Generous CI bound — but hours below PeerTimeout, which is the point:
	// only the lease cap on the read deadline lets the lapse be seen at all.
	waitFor(t, 30*time.Second, "promotion past the wedged peer", func() bool {
		return B.member.State() == StatePrimary
	})
	t.Logf("promoted %v after boot (lease %v, peer timeout 1h)", time.Since(start).Round(time.Millisecond), leaseD)
}

// TestFenceRequiresHigherEpoch proves a healthy primary cannot be silenced
// by a bogus fence claim: FrameFenced at an equal or lower epoch is ignored,
// only a strictly higher epoch deposes the publisher.
func TestFenceRequiresHigherEpoch(t *testing.T) {
	samples := labeledSamples(t, 53, 6)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv := core.NewServer(m, core.NewMemoryPool())
	srv.PublishDelta(tr.M)
	pub := mustPublisher(t, m, srv.Version(), PublisherConfig{Epoch: 3, Logf: t.Logf})
	srv.SetPublishHook(pub.OnPublish)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go pub.Serve(ln)
	t.Cleanup(pub.Close)

	hello := make([]byte, 8)
	binary.LittleEndian.PutUint64(hello, SchemaHash(m))
	fence := func(epoch uint64) net.Conn {
		t.Helper()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := nc.Write(AppendFrame(nil, FrameHello, epoch, 0, 0, hello)); err != nil {
			t.Fatalf("hello: %v", err)
		}
		if _, err := nc.Write(AppendFrame(nil, FrameFenced, epoch, 0, 0, nil)); err != nil {
			t.Fatalf("fence frame: %v", err)
		}
		return nc
	}

	for _, bogus := range []uint64{0, 2, 3} { // zero, lower, equal
		nc := fence(bogus)
		time.Sleep(100 * time.Millisecond)
		if pub.Fenced() {
			t.Fatalf("publisher at epoch 3 fenced by a claim at epoch %d", bogus)
		}
		nc.Close()
	}
	nc := fence(4)
	defer nc.Close()
	waitFor(t, 10*time.Second, "fencing by a strictly higher epoch", func() bool {
		return pub.Fenced()
	})
	if by := pub.FencedBy(); by != 4 {
		t.Fatalf("FencedBy = %d, want 4", by)
	}
}

// TestDemotedMemberNeverReusesConsumedEpochs drives the full demote →
// re-promote cycle: a boot-promoted member (epoch 2) is fenced by a scripted
// follower claiming epoch 5, demotes, and — with its peer list still dead —
// promotes again. The second promotion must publish strictly above the
// fencing epoch (6), never reusing 2..5: a reused epoch would replay
// (epoch, generation) coordinates with different weights.
func TestDemotedMemberNeverReusesConsumedEpochs(t *testing.T) {
	samples := labeledSamples(t, 59, 6)
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	B, _, _ := startMember(t, core.TestConfig(), samples, MemberConfig{
		Peers: []string{"127.0.0.1:1"}, Rank: 0,
		Listener: lnB, Listen: lnB.Addr().String(), // re-promotion rebinds the same port
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		PeerTimeout: 100 * time.Millisecond,
		RetryMin:    5 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	waitFor(t, 15*time.Second, "boot promotion", func() bool {
		return B.member.State() == StatePrimary
	})
	if ep := B.member.Epoch(); ep != 2 {
		t.Fatalf("boot promotion epoch = %d, want 2", ep)
	}

	// A scripted follower at epoch 5 fences the member's publisher.
	nc, err := net.Dial("tcp", lnB.Addr().String())
	if err != nil {
		t.Fatalf("dial member: %v", err)
	}
	defer nc.Close()
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint64(hello, SchemaHash(B.model))
	if _, err := nc.Write(AppendFrame(nil, FrameHello, 5, 0, 0, hello)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := nc.Write(AppendFrame(nil, FrameFenced, 5, 0, 0, nil)); err != nil {
		t.Fatalf("fence frame: %v", err)
	}
	waitFor(t, 15*time.Second, "demotion", func() bool {
		return B.member.Stats().Demotions >= 1
	})

	// Peer list still dead: the lease lapses again and the member
	// re-promotes — strictly above the epoch that fenced it.
	waitFor(t, 15*time.Second, "re-promotion", func() bool {
		return B.member.State() == StatePrimary && B.member.Stats().Promotions >= 2
	})
	if ep := B.member.Epoch(); ep != 6 {
		t.Fatalf("re-promotion epoch = %d, want 6 (fenced by 5)", ep)
	}
}

// TestDemotedMemberSnapshotKeepsCoordinates: a snapshot a member served
// while primary at epoch E keeps (E, g) after the member is fenced and
// demotes — the label lives in the snapshot, not in the publisher that
// demotion closes. The demoted member labels through its follower again, and
// its re-promotion publishes under the new epoch.
func TestDemotedMemberSnapshotKeepsCoordinates(t *testing.T) {
	samples := labeledSamples(t, 71, 6)
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	B, srvB, epsB := startMember(t, core.TestConfig(), samples, MemberConfig{
		Peers: []string{"127.0.0.1:1"}, Rank: 0,
		Listener: lnB, Listen: lnB.Addr().String(),
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		PeerTimeout: 100 * time.Millisecond,
		RetryMin:    5 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	waitFor(t, 15*time.Second, "boot promotion", func() bool {
		return B.member.State() == StatePrimary && srvB.Version() >= 3
	})
	held := srvB.AcquireSnapshot()
	defer srvB.ReleaseSnapshot(held)
	ep, gen := held.Coordinates()
	if ep != 2 || gen == 0 {
		t.Fatalf("primary at epoch 2 serves v%d labeled (%d, %d)", held.Version(), ep, gen)
	}

	// A scripted follower at epoch 5 fences the member's publisher.
	nc, err := net.Dial("tcp", lnB.Addr().String())
	if err != nil {
		t.Fatalf("dial member: %v", err)
	}
	defer nc.Close()
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint64(hello, SchemaHash(B.model))
	if _, err := nc.Write(AppendFrame(nil, FrameHello, 5, 0, 0, hello)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := nc.Write(AppendFrame(nil, FrameFenced, 5, 0, 0, nil)); err != nil {
		t.Fatalf("fence frame: %v", err)
	}
	waitFor(t, 15*time.Second, "demotion", func() bool {
		return B.member.Stats().Demotions >= 1
	})
	if e, g := held.Coordinates(); e != ep || g != gen {
		t.Fatalf("demotion relabeled v%d: (%d, %d) -> (%d, %d)", held.Version(), ep, gen, e, g)
	}

	// Peer list still dead: the member re-promotes at epoch 6, and what it
	// publishes from then on is labeled with it.
	waitFor(t, 15*time.Second, "re-promotion", func() bool {
		return B.member.State() == StatePrimary && B.member.Stats().Promotions >= 2
	})
	if _, _, e, _ := estimateAt(srvB, epsB[0]); e != 6 {
		t.Fatalf("re-promoted member serves epoch %d, want 6", e)
	}
	if e, g := held.Coordinates(); e != ep || g != gen {
		t.Fatalf("re-promotion relabeled v%d: (%d, %d) -> (%d, %d)", held.Version(), ep, gen, e, g)
	}
}

// TestTokenlessPrimaryAcceptsAnyFollower pins the -replicate-token "empty
// disables" promise: a primary without a token accepts followers whether or
// not they present one, with zero auth rejects.
func TestTokenlessPrimaryAcceptsAnyFollower(t *testing.T) {
	samples := labeledSamples(t, 61, 8)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv := core.NewServer(m, core.NewMemoryPool())
	srv.PublishDelta(tr.M)
	pub := mustPublisher(t, m, srv.Version(), PublisherConfig{Logf: t.Logf}) // no token
	srv.SetPublishHook(pub.OnPublish)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go pub.Serve(ln)
	t.Cleanup(pub.Close)

	for _, token := range []string{"", "sekrit"} {
		model := core.New(m.Cfg, testEnc)
		f := NewFollower(FollowerConfig{
			Peers: []string{ln.Addr().String()}, Token: token,
			Server: core.NewServer(model, core.NewMemoryPool()), Model: model,
			RetryMin: 5 * time.Millisecond, RetryMax: 25 * time.Millisecond,
			Logf: t.Logf,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.Run(ctx)
		}()
		waitFor(t, 10*time.Second, "bootstrap (token "+token+")", func() bool {
			return f.Generation() == srv.Version()
		})
		cancel()
		<-done
	}
	if st := pub.Stats(); st.AuthRejects != 0 {
		t.Fatalf("tokenless primary rejected followers: %+v", st)
	}
}

// obsEG is an estimate observation carrying full cluster coordinates.
type obsEG struct {
	src        int
	epoch, gen uint64
	plan       int
	costBits   uint64
	cardBits   uint64
}

// TestBackoffDelay pins the reconnect backoff budget: exponential doubling
// from RetryMin, clamped to RetryMax, jitter of at most half the base, never
// past the cap — the min/max possible sleep for every attempt is table-pinned.
func TestBackoffDelay(t *testing.T) {
	const (
		minD = 10 * time.Millisecond
		maxD = 160 * time.Millisecond
	)
	cases := []struct {
		attempt  int
		min, max time.Duration // bounds on the returned sleep over all jit
	}{
		{0, 10 * time.Millisecond, 15 * time.Millisecond},
		{1, 20 * time.Millisecond, 30 * time.Millisecond},
		{2, 40 * time.Millisecond, 60 * time.Millisecond},
		{3, 80 * time.Millisecond, 120 * time.Millisecond},
		{4, 160 * time.Millisecond, 160 * time.Millisecond}, // capped, jitter clamped
		{9, 160 * time.Millisecond, 160 * time.Millisecond},
		{62, 160 * time.Millisecond, 160 * time.Millisecond}, // no overflow at silly attempts
	}
	for _, tc := range cases {
		if got := backoffDelay(tc.attempt, minD, maxD, 0); got != tc.min {
			t.Errorf("attempt %d jit 0: %v, want %v", tc.attempt, got, tc.min)
		}
		for _, jit := range []float64{0.25, 0.5, 0.999999} {
			got := backoffDelay(tc.attempt, minD, maxD, jit)
			if got < tc.min || got > tc.max {
				t.Errorf("attempt %d jit %v: %v outside [%v, %v]", tc.attempt, jit, got, tc.min, tc.max)
			}
		}
	}
	// Degenerate configs still behave: non-positive min gets a floor, an
	// inverted max is raised to min.
	if got := backoffDelay(3, 0, 0, 0.5); got <= 0 {
		t.Errorf("degenerate config returned %v", got)
	}
	if got := backoffDelay(0, 50*time.Millisecond, time.Millisecond, 0); got != 50*time.Millisecond {
		t.Errorf("inverted max: %v, want 50ms", got)
	}
}

// TestReplicationTokenAuth proves the pre-shared token gate: a follower with
// the wrong token is rejected at the handshake (before any payload field is
// parsed — the rejection counts as an auth reject, not a schema mismatch)
// and never serves a frame; the right token replicates normally.
func TestReplicationTokenAuth(t *testing.T) {
	samples := labeledSamples(t, 23, 8)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv := core.NewServer(m, core.NewMemoryPool())
	srv.PublishDelta(tr.M)
	pub := mustPublisher(t, m, srv.Version(), PublisherConfig{Token: "hunter2", Logf: t.Logf})
	srv.SetPublishHook(pub.OnPublish)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go pub.Serve(ln)
	t.Cleanup(pub.Close)
	addr := ln.Addr().String()

	runFollower := func(token string) (*Follower, context.CancelFunc, chan struct{}) {
		model := core.New(m.Cfg, testEnc)
		f := NewFollower(FollowerConfig{
			Peers: []string{addr}, Token: token,
			Server: core.NewServer(model, core.NewMemoryPool()), Model: model,
			RetryMin: 5 * time.Millisecond, RetryMax: 25 * time.Millisecond,
			Logf: t.Logf,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.Run(ctx)
		}()
		return f, cancel, done
	}

	bad, badCancel, badDone := runFollower("wrong")
	waitFor(t, 10*time.Second, "auth rejection", func() bool { return pub.Stats().AuthRejects >= 2 })
	if g := bad.Generation(); g != 0 {
		t.Fatalf("bad-token follower applied generation %d", g)
	}
	select {
	case <-bad.ready:
		t.Fatal("bad-token follower became ready")
	default:
	}
	badCancel()
	<-badDone
	if st := pub.Stats(); st.Followers != 0 {
		t.Fatalf("bad-token follower counted as connected: %+v", st)
	}

	good, goodCancel, goodDone := runFollower("hunter2")
	defer func() {
		goodCancel()
		<-goodDone
	}()
	waitFor(t, 10*time.Second, "authed bootstrap", func() bool { return good.Generation() == srv.Version() })
}

// TestHeartbeatKeepsIdleConnectionAlive proves the liveness layer: with no
// publications at all for many PeerTimeout windows, bidirectional heartbeats
// keep the connection fed (no deadline trips, no reconnects) and the
// connection still works when publication resumes.
func TestHeartbeatKeepsIdleConnectionAlive(t *testing.T) {
	samples := labeledSamples(t, 31, 8)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv := core.NewServer(m, core.NewMemoryPool())
	srv.PublishDelta(tr.M)
	pub := mustPublisher(t, m, srv.Version(), PublisherConfig{
		Heartbeat: 20 * time.Millisecond, PeerTimeout: 100 * time.Millisecond, Logf: t.Logf,
	})
	srv.SetPublishHook(pub.OnPublish)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go pub.Serve(ln)
	t.Cleanup(pub.Close)

	model := core.New(m.Cfg, testEnc)
	f := NewFollower(FollowerConfig{
		Peers:  []string{ln.Addr().String()},
		Server: core.NewServer(model, core.NewMemoryPool()), Model: model,
		Heartbeat: 20 * time.Millisecond, PeerTimeout: 100 * time.Millisecond,
		RetryMin: 5 * time.Millisecond, RetryMax: 25 * time.Millisecond,
		Logf: t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, 10*time.Second, "bootstrap", func() bool { return f.Generation() == srv.Version() })

	time.Sleep(500 * time.Millisecond) // five PeerTimeout windows of publication silence
	st := f.Stats()
	if !st.Connected || st.Reconnects != 0 {
		t.Fatalf("idle connection did not survive: %+v", st)
	}
	if st.HeartbeatsReceived == 0 || st.HeartbeatsSent == 0 {
		t.Fatalf("no heartbeats flowed on the idle connection: %+v", st)
	}
	if ps := pub.Stats(); ps.HeartbeatsSent == 0 {
		t.Fatalf("publisher sent no heartbeats: %+v", ps)
	}

	tr.TrainEpochParallel(primEps, 8, 1)
	srv.PublishDelta(tr.M)
	waitFor(t, 10*time.Second, "post-idle publication", func() bool { return f.Generation() == srv.Version() })
}

// TestSlowFollowerEviction proves the backpressure bound: a follower whose
// connection stalls (injected write latency) fills its bounded send queue,
// accumulates consecutive publish-time stalls, and is evicted instead of
// blocking the primary or growing memory; once the stall clears it
// reconnects and heals by snapshot.
func TestSlowFollowerEviction(t *testing.T) {
	samples := labeledSamples(t, 37, 8)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv := core.NewServer(m, core.NewMemoryPool())
	srv.PublishDelta(tr.M)
	pub := mustPublisher(t, m, srv.Version(), PublisherConfig{EvictAfter: 2, Logf: t.Logf})
	srv.SetPublishHook(pub.OnPublish)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go pub.Serve(ln)
	t.Cleanup(pub.Close)

	r := newTestReplica(t, m.Cfg, samples, ln.Addr().String())
	f := r.start()
	waitFor(t, 10*time.Second, "bootstrap", func() bool { return f.Generation() == srv.Version() })

	// Stall the wire: every publisher write takes 50ms, so the send queue
	// (depth 32) fills and publications start stalling.
	inj, err := fault.ParseSpec(fault.SiteReplicaSend+":latency:p=1:delay=50ms", 7)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	fault.Enable(inj)
	p0 := m.PS.Params()[0]
	for i := 0; i < 300 && pub.Stats().Evictions == 0; i++ {
		p0.Value[0] += 0.001
		m.PS.MarkParamsUpdated([]*nn.Param{p0})
		srv.PublishDelta(m)
		time.Sleep(time.Millisecond)
	}
	fault.Disable()
	st := pub.Stats()
	if st.Evictions == 0 {
		t.Fatalf("slow follower was never evicted: %+v", st)
	}

	// Stall cleared: the evicted follower reconnects and heals by snapshot.
	waitFor(t, 15*time.Second, "post-eviction heal", func() bool {
		return r.follower().Generation() == srv.Version()
	})
	expectBitIdentical(t, srv, primEps, r)
	if fst := r.follower().Stats(); fst.Reconnects == 0 {
		t.Fatalf("evicted follower never reconnected: %+v", fst)
	}
}

// TestStatsUnderChurn hammers Follower.Stats and Publisher.Stats (including
// the per-connection counters) from a dedicated reader while publications,
// forced disconnects and reconnects churn underneath. Cumulative counters
// must be monotone across consecutive snapshots and -race must see no torn
// reads.
func TestStatsUnderChurn(t *testing.T) {
	samples := labeledSamples(t, 41, 10)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv, pub, addr := startPrimary(t, m, tr)
	r := newTestReplica(t, m.Cfg, samples, addr)
	f := r.start()
	waitFor(t, 10*time.Second, "bootstrap", func() bool { return f.Generation() == srv.Version() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pf FollowerStats
		var pp PublisherStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs := r.follower().Stats()
			if fs.Acks < pf.Acks || fs.DeltasApplied < pf.DeltasApplied ||
				fs.SnapshotsApplied < pf.SnapshotsApplied || fs.Reconnects < pf.Reconnects ||
				fs.CorruptRejected < pf.CorruptRejected || fs.HeartbeatsReceived < pf.HeartbeatsReceived {
				t.Errorf("follower counters went backwards: %+v then %+v", pf, fs)
				return
			}
			pf = fs
			ps := pub.Stats()
			if ps.Publications < pp.Publications || ps.DeltaFrames < pp.DeltaFrames ||
				ps.SnapshotFrames < pp.SnapshotFrames || ps.DroppedFrames < pp.DroppedFrames ||
				ps.Evictions < pp.Evictions || ps.HeartbeatsSent < pp.HeartbeatsSent {
				t.Errorf("publisher counters went backwards: %+v then %+v", pp, ps)
				return
			}
			for _, c := range ps.Conns {
				if c.Remote == "" {
					t.Errorf("per-connection stats missing remote: %+v", c)
					return
				}
			}
			pp = ps
		}
	}()

	for round := 0; round < 30; round++ {
		tr.TrainEpochParallel(primEps, 8, 1)
		srv.PublishDelta(tr.M)
		if round%7 == 3 {
			pub.DisconnectAll()
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 30*time.Second, "post-churn convergence", func() bool {
		return r.follower().Generation() == srv.Version()
	})
	close(stop)
	wg.Wait()

	fs := r.follower().Stats()
	if fs.Acks == 0 || fs.Reconnects == 0 {
		t.Fatalf("churn was a no-op: %+v", fs)
	}
}
