package replica

import (
	"math"
	"sync"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
	"costest/internal/feature"
)

// obs is one estimate observation: which process served it, at which
// replication generation, and the exact result bits.
type obs struct {
	src      int // 0 = primary, 1+ = replica index + 1
	gen      uint64
	plan     int
	costBits uint64
	cardBits uint64
}

// TestReplicationConformance is the headline acceptance suite: a primary
// training and publishing under load, two replicas following over TCP, and
// concurrent estimate streams against all three. Every estimate is recorded
// with its replication generation; grouped by (generation, plan), all
// observations must be bit-identical regardless of which process served
// them. The run survives — and the identity must hold across — a follower
// restart, a forced mid-stream disconnect of every follower, and
// fault-injected frame corruption and latency on the replication link
// (corrupt frames are rejected by checksum and never applied).
//
// Run under -race in CI: the suite doubles as the data-race proof for the
// replication runtime.
func TestReplicationConformance(t *testing.T) {
	samples := labeledSamples(t, 7, 24)
	primEps := encodePlans(t, samples)
	m, tr := trainedModel(t, primEps, 1)
	srv, pub, addr := startPrimary(t, m, tr)

	replicas := []*testReplica{
		newTestReplica(t, m.Cfg, samples, addr),
		newTestReplica(t, m.Cfg, samples, addr),
	}
	for _, r := range replicas {
		r.start()
	}
	for _, r := range replicas {
		waitFor(t, 15*time.Second, "replica bootstrap", func() bool {
			return r.follower().Generation() == srv.Version()
		})
	}

	// Chaos on the replication link: one in four frames transmitted
	// corrupted, one in five delayed. Corrupt frames must be caught by
	// checksum and healed by snapshot resync; they must never reach a model.
	inj, err := fault.ParseSpec(
		"replica.send.corrupt:error:p=0.25;replica.send:latency:p=0.2:delay=200us", 42)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	fault.Enable(inj)
	defer fault.Disable()

	// corruptRejected accumulates across follower restarts (a restart
	// discards the Follower instance and its counters).
	var corruptRejected uint64

	// Concurrent load: one estimate stream per process, each recording into
	// a private slice.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	recorded := make([][]obs, 1+len(replicas))
	runLoad := func(src int, estimate func(plan int) (obs, bool)) {
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
	wg.Add(1 + len(replicas))
	// Each observation is labeled by the snapshot that served it. Unlabeled
	// snapshots (the primary's boot versions, published before its
	// publisher existed, and a follower's blank version 1) have no
	// generation to anchor the comparison to.
	observe := func(src int, srv *core.Server, eps []*feature.EncodedPlan) func(int) (obs, bool) {
		return func(plan int) (obs, bool) {
			cost, card, epoch, gen := estimateAt(srv, eps[plan])
			if gen == 0 {
				return obs{}, false
			}
			if epoch != 1 {
				t.Errorf("src %d served generation %d under epoch %d, want 1", src, gen, epoch)
			}
			return obs{src: src, gen: gen, plan: plan,
				costBits: math.Float64bits(cost), cardBits: math.Float64bits(card)}, true
		}
	}
	go runLoad(0, observe(0, srv, primEps))
	for ri, r := range replicas {
		go runLoad(1+ri, observe(1+ri, r.srv, r.eps))
	}

	// Churn: train-and-publish rounds with a follower restart and a forced
	// disconnect of everything in the middle.
	const rounds = 24
	for round := 0; round < rounds; round++ {
		tr.TrainEpochParallel(primEps, 8)
		srv.PublishDelta(tr.M)
		time.Sleep(2 * time.Millisecond)
		switch round {
		case rounds / 3:
			corruptRejected += replicas[0].follower().Stats().CorruptRejected
			replicas[0].stop()
			replicas[0].start()
		case 2 * rounds / 3:
			pub.DisconnectAll()
		}
	}

	// Convergence: everyone must reach the primary's final generation.
	// Publications are the heal trigger for followers flagged after a
	// dropped frame, so nudge with further publications while waiting.
	converged := func() bool {
		for _, r := range replicas {
			if r.follower().Generation() != srv.Version() {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(60 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			for i, r := range replicas {
				t.Logf("replica %d: %+v", i, r.follower().Stats())
			}
			t.Fatalf("replicas never converged to generation %d (publisher: %+v)", srv.Version(), pub.Stats())
		}
		// Let the followers chase the current generation for a while before
		// nudging: every nudge moves the target, so nudging too eagerly
		// (e.g. under -race, where catch-up round-trips are slow) would keep
		// convergence forever out of reach.
		patience := time.Now().Add(2 * time.Second)
		for time.Now().Before(patience) && !converged() {
			time.Sleep(10 * time.Millisecond)
		}
		if !converged() {
			srv.PublishDelta(tr.M)
		}
	}
	close(stop)
	wg.Wait()

	// Final state: every replica serves the head generation bit-identically.
	for _, r := range replicas {
		expectBitIdentical(t, srv, primEps, r)
	}

	// History: group every observation by (generation, plan); all recorded
	// bits must agree, whichever process served them.
	type key struct {
		gen  uint64
		plan int
	}
	type val struct {
		costBits, cardBits uint64
		srcMask            int
	}
	groups := make(map[key]*val)
	mismatches := 0
	for _, sl := range recorded {
		for _, o := range sl {
			k := key{o.gen, o.plan}
			v := groups[k]
			if v == nil {
				groups[k] = &val{costBits: o.costBits, cardBits: o.cardBits, srcMask: 1 << o.src}
				continue
			}
			v.srcMask |= 1 << o.src
			if v.costBits != o.costBits || v.cardBits != o.cardBits {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("generation %d plan %d: src %d served (%x, %x), earlier observation (%x, %x)",
						o.gen, o.plan, o.src, o.costBits, o.cardBits, v.costBits, v.cardBits)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d bit-identity mismatches across %d (generation, plan) groups", mismatches, len(groups))
	}
	crossChecked := 0
	for _, v := range groups {
		if v.srcMask&(v.srcMask-1) != 0 { // observed by >= 2 distinct processes
			crossChecked++
		}
	}
	if crossChecked < 20 {
		t.Fatalf("only %d (generation, plan) groups were observed by multiple processes — conformance check is vacuous", crossChecked)
	}
	t.Logf("conformance: %d groups, %d cross-process checked", len(groups), crossChecked)

	// The chaos actually happened and was survived, not skipped.
	pst := pub.Stats()
	if pst.CorruptInjected == 0 {
		t.Fatalf("no corrupt frames were injected: %+v", pst)
	}
	for _, r := range replicas {
		corruptRejected += r.follower().Stats().CorruptRejected
	}
	if corruptRejected == 0 {
		t.Fatalf("corrupt frames injected (%d) but none rejected by a follower", pst.CorruptInjected)
	}
	st0 := replicas[0].follower().Stats()
	if st0.SnapshotsApplied == 0 {
		t.Fatalf("restarted replica should have re-bootstrapped by snapshot: %+v", st0)
	}
	t.Logf("chaos: %d corrupt injected, %d rejected, publisher %+v", pst.CorruptInjected, corruptRejected, pst)
}
