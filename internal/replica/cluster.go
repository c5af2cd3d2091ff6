package replica

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
)

// Fault-injection sites on the liveness machinery live in the central
// registry (internal/fault/sites.go): fault.SiteReplicaLeaseRenew and
// fault.SiteReplicaLeasePromote.

// MemberState is a cluster member's role in the epoch/lease state machine.
type MemberState int32

const (
	// StateFollowing: replicating from a live primary, lease being renewed.
	StateFollowing MemberState = iota
	// StatePromoting: the lease lapsed; the member is sealing its last
	// applied generation and booting a publisher under epoch+1.
	StatePromoting
	// StatePrimary: the member publishes under its own epoch.
	StatePrimary
)

// String returns the state's wire name (served verbatim in /statsz).
func (s MemberState) String() string {
	switch s {
	case StateFollowing:
		return "following"
	case StatePromoting:
		return "promoting"
	case StatePrimary:
		return "primary"
	}
	return "unknown"
}

// MemberConfig configures a cluster Member.
type MemberConfig struct {
	// Peers is the ordered replication peer list shared by the whole
	// cluster: the boot primary first, then promotion-ranked successors.
	Peers []string
	// Rank is the member's promotion rank: rank 0 promotes first (its
	// lease is the configured Lease), rank r waits (r+1) × Lease, so a
	// higher-ranked successor always gets a full lease of head start.
	// Negative means this member never promotes.
	Rank int
	// Token is the pre-shared replication auth token.
	Token string
	// Server is the local serving runtime frames publish into; Model is the
	// mirror model it serves from. Replication frames write Model's
	// parameters, so nothing else may mutate it while the member follows.
	Server *core.Server
	Model  *core.Model
	// Listen is the address the member's own replication listener binds on
	// promotion ("host:port"). Required when Rank >= 0 unless Listener is
	// set.
	Listen string
	// Listener, when non-nil, is a pre-bound listener used for the first
	// promotion instead of binding Listen (tests pick the port up front so
	// peers can be configured before anything is live).
	Listener net.Listener
	// Lease is the base primary-liveness lease (see Rank). Required for
	// promotable members.
	Lease time.Duration
	// Heartbeat is the interval between liveness frames, both while
	// following and while primary; every other replication timeout derives
	// from it (see timingFor). Zero means DefaultHeartbeat.
	Heartbeat time.Duration
	// Primary is the caller's primary work — typically a train-and-publish
	// loop over Model through Server.PublishDelta. The member runs it on
	// its Run goroutine at each promotion; ctx ends when the member is
	// fenced or Run's ctx ends, and the member follows again only after
	// Primary returns, so the model has one writer at a time. Nil means a
	// promoted member serves and heartbeats but does not advance the model.
	Primary func(ctx context.Context)
	// Logf receives lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Member is one replica in a self-healing cluster: it follows the live
// primary through the shared peer list, and — when promotable — watches the
// primary lease. On lease expiry it promotes: seals the last applied
// generation, runs the configured Primary work, and publishes under
// epoch+1 from its own replication listener, while the surviving
// followers' peer-list walk finds it. A promoted member that is later fenced
// by an even higher epoch demotes itself back to following and rejoins
// through the peer list (its diverged weights are healed by snapshot).
type Member struct {
	cfg   MemberConfig
	tm    timing
	fol   *follower
	state atomic.Int32

	promoted chan struct{} // closed at the first promotion

	mu      sync.Mutex
	pub     *Publisher // non-nil while primary (or fenced ex-primary)
	ln      net.Listener
	usedPre bool // cfg.Listener already consumed by a prior promotion

	lastEpoch atomic.Uint64 // highest epoch this member ever published under

	promotions     atomic.Uint64
	abortedPromos  atomic.Uint64
	demotions      atomic.Uint64
	promotionNanos atomic.Uint64 // lease-lapse detection → publishing live
}

// promoteEpoch seeds the epoch a promoting member publishes under: strictly
// above every epoch it has evidence of — the highest epoch it observed as a
// follower, the highest epoch it ever published under itself (a demoted
// ex-primary must never reuse an epoch whose (epoch, generation) coordinates
// may already be serving history), and the boot primary's DefaultEpoch (a
// member whose lease lapses before any frame ever arrives — the boot primary
// down at cluster start — must not collide with a default-configured primary
// and split the cluster under a shared epoch).
func promoteEpoch(observed, ownLast uint64) uint64 {
	e := observed
	if ownLast > e {
		e = ownLast
	}
	if e < DefaultEpoch {
		e = DefaultEpoch
	}
	return e + 1
}

// NewMember builds a member; call Run to start it. Server, Model and Peers
// are required.
func NewMember(cfg MemberConfig) *Member {
	if cfg.Server == nil || cfg.Model == nil {
		panic("replica: MemberConfig needs Server and Model")
	}
	if len(cfg.Peers) == 0 {
		panic("replica: MemberConfig needs Peers")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Member{cfg: cfg, tm: timingFor(cfg.Heartbeat), promoted: make(chan struct{})}
	m.fol = newFollower(m)
	return m
}

// lease is the member's primary-liveness lease, rank-scaled: rank 0 moves
// first, each lower rank concedes a full extra lease so two members never
// race to promote. Zero for a member that never promotes.
func (m *Member) lease() time.Duration {
	if m.cfg.Rank < 0 || m.cfg.Lease <= 0 {
		return 0
	}
	return m.cfg.Lease * time.Duration(m.cfg.Rank+1)
}

// Run drives the member until ctx is canceled: follow, promote on lease
// expiry, publish as primary, demote and rejoin if fenced.
func (m *Member) Run(ctx context.Context) {
	for ctx.Err() == nil {
		m.fol.run(ctx) // returns on ctx cancel or after a successful promotion
		if ctx.Err() != nil || m.State() != StatePrimary {
			break
		}
		m.primaryTerm(ctx)
		if ctx.Err() != nil {
			break
		}
		// Fenced by a higher epoch: demote and rejoin through the peer list.
		m.demotions.Add(1)
		m.state.Store(int32(StateFollowing))
		m.cfg.Logf("replica: demoted — rejoining cluster as follower")
	}
	m.closePrimary()
}

// onLeaseExpired promotes the member when its follower finds the lease
// lapsed (it runs on the follower goroutine, which owns the model — so the
// handoff from frame-applier to Primary is free of concurrent writers by
// construction). It returns true when the member is now primary and the
// follower must stop.
func (m *Member) onLeaseExpired() bool {
	start := time.Now()
	m.state.Store(int32(StatePromoting))
	if err := fault.Point(fault.SiteReplicaLeasePromote); err != nil {
		m.abortedPromos.Add(1)
		m.state.Store(int32(StateFollowing))
		m.cfg.Logf("replica: promotion aborted by injected fault: %v", err)
		return false
	}
	// Seal: the last applied (epoch, generation) is this member's final
	// word as a follower. The publisher continues the generation sequence
	// from the seal under the next epoch, so cross-epoch history never
	// reuses an (epoch, generation) coordinate. A model holding NaN or an
	// infinity cannot be published, so the member stays a follower.
	sealedGen := m.fol.Generation()
	epoch := promoteEpoch(m.fol.Epoch(), m.lastEpoch.Load())
	pub, err := NewPublisher(m.cfg.Model, sealedGen, PublisherConfig{
		Epoch:     epoch,
		Token:     m.cfg.Token,
		Heartbeat: m.cfg.Heartbeat,
		Logf:      m.cfg.Logf,
	})
	if err != nil {
		m.abortedPromos.Add(1)
		m.state.Store(int32(StateFollowing))
		m.cfg.Logf("replica: promotion aborted: %v", err)
		return false
	}
	ln, err := m.listener()
	if err != nil {
		m.abortedPromos.Add(1)
		m.state.Store(int32(StateFollowing))
		m.cfg.Logf("replica: promotion aborted: listen %s: %v", m.cfg.Listen, err)
		return false
	}
	m.lastEpoch.Store(epoch)
	m.cfg.Server.SetPublishHook(pub.OnPublish)
	m.mu.Lock()
	m.pub, m.ln = pub, ln
	m.mu.Unlock()
	go pub.Serve(ln)
	// Announce the new epoch's head immediately: republishing the sealed
	// weights advances the generation to sealedGen+1 under epoch, and every
	// follower that connects is snapshotted onto it.
	m.cfg.Server.PublishDelta(m.cfg.Model)
	m.promotionNanos.Store(uint64(time.Since(start)))
	first := m.promotions.Add(1) == 1
	m.state.Store(int32(StatePrimary))
	if first {
		close(m.promoted)
	}
	m.cfg.Logf("replica: PROMOTED to primary at epoch %d (sealed generation %d, promotion took %v)",
		epoch, sealedGen, time.Since(start).Round(time.Millisecond))
	return true
}

// listener returns the replication listener for a promotion: the pre-bound
// one the first time, a fresh bind of cfg.Listen after.
func (m *Member) listener() (net.Listener, error) {
	m.mu.Lock()
	pre, used := m.cfg.Listener, m.usedPre
	m.usedPre = true
	m.mu.Unlock()
	if pre != nil && !used {
		return pre, nil
	}
	return net.Listen("tcp", m.cfg.Listen)
}

// primaryTerm is one term as primary: it runs cfg.Primary under a context
// that ends when ctx does or a higher epoch fences this member, and returns
// only once Primary has returned and that context has ended — the publisher
// keeps follower leases fed throughout.
func (m *Member) primaryTerm(ctx context.Context) {
	pub := m.Publisher()
	term, end := context.WithCancel(ctx)
	defer end()
	go func() {
		select {
		case <-pub.fencedCh:
		case <-term.Done():
		}
		end()
	}()
	if m.cfg.Primary != nil {
		m.cfg.Primary(term)
	}
	<-term.Done()
	if ctx.Err() == nil && pub.Fenced() {
		// Fold the fencing epoch back into the follower before rejoining:
		// frames below it stay rejected while following, and a later
		// re-promotion seeds strictly above it (the publisher only fences on
		// a strictly higher epoch, so FencedBy also bounds our own epoch).
		m.fol.observeEpoch(pub.FencedBy())
		m.closePrimary()
	}
}

// closePrimary tears the promoted-side machinery down (idempotent): the
// publish hook, the publisher and its listener. A demoted member's follower
// registers its own hook again when it runs.
func (m *Member) closePrimary() {
	m.mu.Lock()
	pub, ln := m.pub, m.ln
	m.pub, m.ln = nil, nil
	m.mu.Unlock()
	if pub == nil {
		return
	}
	m.cfg.Server.SetPublishHook(nil)
	if ln != nil {
		ln.Close()
	}
	pub.Close()
}

// State returns the member's current role.
func (m *Member) State() MemberState { return MemberState(m.state.Load()) }

// Publisher returns the member's publisher, nil unless promoted.
func (m *Member) Publisher() *Publisher {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pub
}

// Epoch returns the member's current epoch view: the publishing epoch when
// primary, the highest observed epoch otherwise.
func (m *Member) Epoch() uint64 {
	if pub := m.Publisher(); pub != nil {
		return pub.Epoch()
	}
	return m.fol.Epoch()
}

// Generation returns the member's current replication generation.
func (m *Member) Generation() uint64 {
	if pub := m.Publisher(); pub != nil {
		return pub.Generation()
	}
	return m.fol.Generation()
}

// WaitReady blocks until the member serves cluster weights — its follower
// applied a frame, or it promoted — or ctx expires.
func (m *Member) WaitReady(ctx context.Context) error {
	select {
	case <-m.fol.ready:
		return nil
	case <-m.promoted:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MemberStats is the /statsz view of a cluster member.
type MemberStats struct {
	State              string          `json:"state"`
	Rank               int             `json:"rank"`
	Epoch              uint64          `json:"epoch"`
	Generation         uint64          `json:"generation"`
	LeaseMillis        int64           `json:"lease_ms,omitempty"`
	Promotions         uint64          `json:"promotions"`
	AbortedPromotions  uint64          `json:"aborted_promotions"`
	Demotions          uint64          `json:"demotions"`
	LastPromotionNanos uint64          `json:"last_promotion_nanos,omitempty"`
	Follower           FollowerStats   `json:"follower"`
	Publisher          *PublisherStats `json:"publisher,omitempty"`
}

// Stats snapshots the member's counters.
func (m *Member) Stats() MemberStats {
	st := MemberStats{
		State:              m.State().String(),
		Rank:               m.cfg.Rank,
		Epoch:              m.Epoch(),
		Generation:         m.Generation(),
		Promotions:         m.promotions.Load(),
		AbortedPromotions:  m.abortedPromos.Load(),
		Demotions:          m.demotions.Load(),
		LastPromotionNanos: m.promotionNanos.Load(),
		Follower:           m.fol.Stats(),
	}
	st.LeaseMillis = m.lease().Milliseconds()
	if pub := m.Publisher(); pub != nil {
		ps := pub.Stats()
		st.Publisher = &ps
	}
	return st
}
