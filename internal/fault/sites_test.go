package fault

import "testing"

// siteExamples is a documented -faults specification for every registered
// site (the strings quoted in README and the daemon's usage text).
var siteExamples = map[Site]string{
	SiteCheckpointWrite:      "checkpoint.write:error:count=1",
	SiteCheckpointSync:       "checkpoint.sync:crash:count=1",
	SiteCheckpointRename:     "checkpoint.rename:crash:count=1",
	SiteCheckpointRead:       "checkpoint.read:error:count=1",
	SiteServeBatch:           "serve.batch:error:after=5:count=4",
	SiteDaemonRetrain:        "daemon.retrain:panic:count=2",
	SiteReplicaSend:          "replica.send:latency:p=0.2:delay=200us",
	SiteReplicaSendCorrupt:   "replica.send.corrupt:error:p=0.25",
	SiteReplicaRecv:          "replica.recv:error:count=1",
	SiteReplicaHeartbeatSend: "replica.heartbeat.send:error:count=3",
	SiteReplicaHeartbeatRecv: "replica.heartbeat.recv:error:count=3",
	SiteReplicaLeaseRenew:    "replica.lease.renew:error:p=1",
	SiteReplicaLeasePromote:  "replica.lease.promote:error:count=1",
}

// TestSiteExamples proves the registry and its documentation cannot drift
// apart: every registered site has an example, and every example parses
// through ParseSpec into a rule for exactly the site it documents.
func TestSiteExamples(t *testing.T) {
	for name, s := range registry {
		if _, ok := siteExamples[s]; !ok {
			t.Errorf("registered site %q has no example", name)
		}
	}
	for s, example := range siteExamples {
		inj, err := ParseSpec(example, 1)
		if err != nil {
			t.Errorf("example %q for %q does not parse: %v", example, s.name, err)
			continue
		}
		if _, ok := inj.sites[s]; !ok || len(inj.sites) != 1 {
			t.Errorf("example %q installs rules for %v, want only %q", example, inj.sites, s.name)
		}
	}
}
