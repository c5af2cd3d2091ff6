package fault

// This file is the central fault-site registry: every hook point the
// production code consults (fault.Point) or observes (fault.Calls) is
// declared here, once, as a Site* constant. The costlint faultsite analyzer
// (internal/analysis) enforces the registry statically: outside this package
// and outside test files, every site name reaching Point, Calls or a
// Rule{Site: ...} literal must be one of these constants — a typo'd or
// ad-hoc string literal is a build-gate failure, not a silently dead chaos
// hook. The analyzer also reports registry rot in the other direction: a
// Site* constant that no production Point/Calls consults is flagged as
// registered-but-never-injected.
//
// Adding a hook point is therefore a three-line change: declare the Site*
// constant, add its SiteExamples entry (a ParseSpec-parseable example that
// keeps the -faults CLI documentation honest — TestSiteExamples round-trips
// every entry through ParseSpec), and consult it via fault.Point.

const (
	// SiteCheckpointWrite fires inside core.SaveCheckpoint while streaming
	// the model into the temporary file — a torn write before anything
	// durable happened.
	SiteCheckpointWrite = "checkpoint.write"
	// SiteCheckpointSync fires at the fsync making the temporary file
	// durable — the classic power-loss window.
	SiteCheckpointSync = "checkpoint.sync"
	// SiteCheckpointRename fires at the atomic rename publishing the
	// checkpoint — after the bytes are durable, before they are visible.
	SiteCheckpointRename = "checkpoint.rename"
	// SiteCheckpointRead fires in core.LoadCheckpoint before a candidate
	// file is parsed — an unreadable or corrupt checkpoint at boot.
	SiteCheckpointRead = "checkpoint.read"

	// SiteServeBatch fires in a scheduler run immediately before its batch
	// is estimated — an injected estimator failure, which must fail that
	// run's requests (HTTP 500) and nothing else.
	SiteServeBatch = "serve.batch"

	// SiteDaemonRetrain fires at the top of each supervised retrain cycle in
	// cmd/costestd — the injected trainer crash the supervisor must contain.
	SiteDaemonRetrain = "daemon.retrain"

	// SiteReplicaSend fires before a frame is written to a follower
	// connection — an injected send failure or latency spike on the
	// replication stream.
	SiteReplicaSend = "replica.send"
	// SiteReplicaSendCorrupt corrupts one payload byte of an outbound frame
	// when it fires — the checksum-rejection path a follower must heal by
	// resync, never by applying the frame.
	SiteReplicaSendCorrupt = "replica.send.corrupt"
	// SiteReplicaRecv fires as a follower pulls the next frame off the wire
	// — an injected receive failure forcing a reconnect.
	SiteReplicaRecv = "replica.recv"
	// SiteReplicaHeartbeatSend suppresses outbound heartbeats when it fires
	// — simulated primary silence driving lease expiry on the other end.
	SiteReplicaHeartbeatSend = "replica.heartbeat.send"
	// SiteReplicaHeartbeatRecv drops inbound heartbeats when it fires — a
	// follower that stops hearing a live primary.
	SiteReplicaHeartbeatRecv = "replica.heartbeat.recv"
	// SiteReplicaLeaseRenew suppresses a follower's lease renewal when it
	// fires — liveness evidence discarded so promotion logic can be driven
	// deterministically.
	SiteReplicaLeaseRenew = "replica.lease.renew"
	// SiteReplicaLeasePromote fires as a cluster member begins promotion
	// after its lease lapsed — an injected failure mid-takeover.
	SiteReplicaLeasePromote = "replica.lease.promote"
)

// SiteExamples maps every registered site to a documented -faults
// specification exercising it (the strings quoted in README/--help). The
// registry drift test parses each through ParseSpec and asserts it targets
// its own key, so CLI documentation cannot outlive a renamed site.
var SiteExamples = map[string]string{
	SiteCheckpointWrite:      SiteCheckpointWrite + ":error:count=1",
	SiteCheckpointSync:       SiteCheckpointSync + ":crash:count=1",
	SiteCheckpointRename:     SiteCheckpointRename + ":crash:count=1",
	SiteCheckpointRead:       SiteCheckpointRead + ":error:count=1",
	SiteServeBatch:           SiteServeBatch + ":error:after=5:count=4",
	SiteDaemonRetrain:        SiteDaemonRetrain + ":panic:count=2",
	SiteReplicaSend:          SiteReplicaSend + ":latency:p=0.2:delay=200us",
	SiteReplicaSendCorrupt:   SiteReplicaSendCorrupt + ":error:p=0.25",
	SiteReplicaRecv:          SiteReplicaRecv + ":error:count=1",
	SiteReplicaHeartbeatSend: SiteReplicaHeartbeatSend + ":error:count=3",
	SiteReplicaHeartbeatRecv: SiteReplicaHeartbeatRecv + ":error:count=3",
	SiteReplicaLeaseRenew:    SiteReplicaLeaseRenew + ":error:p=1",
	SiteReplicaLeasePromote:  SiteReplicaLeasePromote + ":error:count=1",
}
