package fed

import (
	"strconv"

	"heracles/internal/expo"
	"heracles/internal/serve"
)

// MemberSnapshot is one member daemon's state as the router last saw it.
type MemberSnapshot struct {
	Member     string
	Up         bool
	Instances  int
	Shards     []serve.ShardStatus
	Migrations int64
}

// Snapshot is the federation-wide view one poll of the members yields;
// renderMetrics renders it and /healthz summarises it.
type Snapshot struct {
	Members    []MemberSnapshot
	Migrations int64 // router-driven migrations
	Proxied    int64 // requests forwarded to members
}

// renderMetrics renders the federation exposition: member liveness,
// occupancy per member and per member shard, the router's migration and
// proxy counters, and the proxy-latency histogram. It is a pure function of its
// arguments so tests pin it without a live fleet.
func renderMetrics(snap Snapshot, proxy *expo.Histogram) *expo.Writer {
	e := expo.NewWriter(4096 + 512*len(snap.Members))
	e.ScalarInt("heracles_fed_members", "gauge",
		"Member daemons in the federation.", int64(len(snap.Members)))

	e.Family("heracles_fed_member_up", "gauge", "1 while the member daemon answers its shard endpoint.")
	for _, m := range snap.Members {
		var up int64
		if m.Up {
			up = 1
		}
		e.Int("heracles_fed_member_up", up, "member", m.Member)
	}

	e.Family("heracles_fed_member_instances", "gauge", "Live instances on the member.")
	total := 0
	for _, m := range snap.Members {
		total += m.Instances
		e.Int("heracles_fed_member_instances", int64(m.Instances), "member", m.Member)
	}
	e.ScalarInt("heracles_fed_instances", "gauge",
		"Live instances across every member.", int64(total))

	e.Family("heracles_fed_shard_instances", "gauge", "Live instances per member shard.")
	for _, m := range snap.Members {
		for _, sh := range m.Shards {
			e.Int("heracles_fed_shard_instances", int64(sh.Instances), "member", m.Member, "shard", strconv.Itoa(sh.Shard))
		}
	}

	e.ScalarInt("heracles_fed_migrations_total", "counter",
		"Cross-member migrations driven by this router.", snap.Migrations)
	e.ScalarInt("heracles_fed_proxied_requests_total", "counter",
		"Requests this router forwarded to member daemons.", snap.Proxied)
	e.Histogram("heracles_fed_proxy_duration_seconds",
		"Wall time of one request this router issued to a member daemon.", proxy)
	return e
}

// proxyHist times every member request the router issues — proxied API
// calls, fan-out polls and migrations alike. Process-wide operational
// telemetry.
var proxyHist expo.Histogram

// MetricNames lists every metric family the federation exposition can
// emit, read off a rendering of the empty federation. The docs check
// uses it to keep docs/API.md complete.
func MetricNames() []string {
	return renderMetrics(Snapshot{}, new(expo.Histogram)).Names()
}
