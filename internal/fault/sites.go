package fault

// This file is the fault-site registry: every hook point the production code
// consults (Point) is declared here, once, as a Site var. Site's name is
// unexported, so code outside this package can name a hook point only through
// these vars, and ParseSpec refuses any name not registered here. Adding a
// hook point means declaring the var, giving it an example spec in
// sites_test.go, and consulting it via fault.Point (an exported var that no
// non-test code names fails internal/analysis's TestExportsHaveCallers).

// Site is one registered hook point.
type Site struct{ name string }

// registry maps each registered site's spec name to its Site.
var registry = map[string]Site{}

// newSite registers name; a name registered twice panics at init.
func newSite(name string) Site {
	if _, dup := registry[name]; dup {
		panic("fault: site " + name + " registered twice")
	}
	s := Site{name}
	registry[name] = s
	return s
}

var (
	// SiteCheckpointWrite fires inside core.SaveCheckpoint while streaming
	// the model into the temporary file — a torn write before anything
	// durable happened.
	SiteCheckpointWrite = newSite("checkpoint.write")
	// SiteCheckpointSync fires at the fsync making the temporary file
	// durable — the classic power-loss window.
	SiteCheckpointSync = newSite("checkpoint.sync")
	// SiteCheckpointRename fires at the atomic rename publishing the
	// checkpoint — after the bytes are durable, before they are visible.
	SiteCheckpointRename = newSite("checkpoint.rename")
	// SiteCheckpointRead fires in core.LoadCheckpoint before a candidate
	// file is parsed — an unreadable or corrupt checkpoint at boot.
	SiteCheckpointRead = newSite("checkpoint.read")

	// SiteServeBatch fires in a scheduler run immediately before its batch
	// is estimated — an injected estimator failure, which must fail that
	// run's requests (HTTP 500) and nothing else.
	SiteServeBatch = newSite("serve.batch")

	// SiteDaemonRetrain fires at the top of each supervised retrain cycle in
	// cmd/costestd — the injected trainer crash the supervisor must contain.
	SiteDaemonRetrain = newSite("daemon.retrain")

	// SiteReplicaSend fires before a frame is written to a follower
	// connection — an injected send failure or latency spike on the
	// replication stream.
	SiteReplicaSend = newSite("replica.send")
	// SiteReplicaSendCorrupt corrupts one payload byte of an outbound frame
	// when it fires — the checksum-rejection path a follower must heal by
	// resync, never by applying the frame.
	SiteReplicaSendCorrupt = newSite("replica.send.corrupt")
	// SiteReplicaRecv fires as a follower pulls the next frame off the wire
	// — an injected receive failure forcing a reconnect.
	SiteReplicaRecv = newSite("replica.recv")
	// SiteReplicaHeartbeatSend suppresses outbound heartbeats when it fires
	// — simulated primary silence driving lease expiry on the other end.
	SiteReplicaHeartbeatSend = newSite("replica.heartbeat.send")
	// SiteReplicaHeartbeatRecv drops inbound heartbeats when it fires — a
	// follower that stops hearing a live primary.
	SiteReplicaHeartbeatRecv = newSite("replica.heartbeat.recv")
	// SiteReplicaLeaseRenew suppresses a follower's lease renewal when it
	// fires — liveness evidence discarded so promotion logic can be driven
	// deterministically.
	SiteReplicaLeaseRenew = newSite("replica.lease.renew")
	// SiteReplicaLeasePromote fires as a cluster member begins promotion
	// after its lease lapsed — an injected failure mid-takeover.
	SiteReplicaLeasePromote = newSite("replica.lease.promote")
)
