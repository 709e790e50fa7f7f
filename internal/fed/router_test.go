package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"heracles/internal/experiment"
	"heracles/internal/serve"
)

var testLab = experiment.DefaultLab()

// member is one in-process daemon behind the router.
type member struct {
	srv *serve.Server
	ts  *httptest.Server
}

// newFleet starts n member daemons and a router over them.
func newFleet(t *testing.T, n, maxInstances int) ([]member, *Router, *httptest.Server) {
	t.Helper()
	members := make([]member, n)
	urls := make([]string, n)
	for i := range members {
		members[i] = startMember(t, maxInstances)
		urls[i] = members[i].ts.URL
	}
	rt, fts := startRouter(t, urls...)
	return members, rt, fts
}

// startMember starts one member daemon.
func startMember(t *testing.T, maxInstances int) member {
	t.Helper()
	srv := serve.New(serve.Config{Lab: testLab, Shards: 2, MaxInstances: maxInstances})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return member{srv: srv, ts: ts}
}

// startRouter starts a router over the member base URLs.
func startRouter(t *testing.T, urls ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(Config{Members: urls})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	fts := httptest.NewServer(rt.Handler())
	t.Cleanup(fts.Close)
	return rt, fts
}

// nameMembers makes each member reachable at the fixed base URL
// ("http://" + name) it is keyed by until the test ends, by dialing that
// URL's address at the member's listener; any other address dials as
// usual. Placement hashes member URLs, and httptest's ports are random:
// a test whose outcome depends on placement names its members.
func nameMembers(tb testing.TB, byName map[string]member) {
	addrs := make(map[string]string, len(byName))
	for name, m := range byName {
		addrs[name+":80"] = m.ts.Listener.Addr().String()
	}
	setDial(tb, func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	})
}

// setDial makes http.DefaultTransport, which the router's member calls
// and the daemons' peer migrations go through, dial through dial, with no
// proxy, until the test ends.
func setDial(tb testing.TB, dial func(ctx context.Context, network, addr string) (net.Conn, error)) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.DialContext = dial
	old := http.DefaultTransport
	http.DefaultTransport = tr
	tb.Cleanup(func() {
		http.DefaultTransport = old
		tr.CloseIdleConnections()
	})
}

func doReq(t *testing.T, method, url string, body any, wantCode int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d; body %s", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

// await polls cond with a bounded deadline; the federation tests cross
// process-style HTTP boundaries, so there is no in-process event to wait
// on.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFederationLifecycle drives the router's whole surface against
// three live daemons: hash-placed create, proxied reads and actuation,
// router-driven cross-member migration, job fan-out, and the aggregated
// health and metrics endpoints.
func TestFederationLifecycle(t *testing.T) {
	members, rt, fts := newFleet(t, 3, 64)

	// Create a handful of instances; each must land on the member the
	// placement table names.
	var infos []InstanceInfo
	for k := 0; k < 6; k++ {
		body := doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 500, Load: 0.3}, 201)
		var info InstanceInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if want := rt.table.Place(info.ID); info.Member != want {
			t.Fatalf("instance %s landed on %s, placement table says %s", info.ID, info.Member, want)
		}
		infos = append(infos, info)
	}

	// List and get agree, with federated ids.
	var listing struct {
		Instances []InstanceInfo `json:"instances"`
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances", nil, 200), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Instances) != len(infos) {
		t.Fatalf("router lists %d instances, want %d", len(listing.Instances), len(infos))
	}
	var got InstanceInfo
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+infos[0].ID, nil, 200), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != infos[0].ID || got.Member != infos[0].Member {
		t.Fatalf("get %s = %+v", infos[0].ID, got)
	}

	// Actuation proxies through to the hosting member.
	doReq(t, "PUT", fts.URL+"/api/v1/instances/"+infos[0].ID+"/load", map[string]float64{"load": 0.6}, 200)

	// Router-driven migration: the instance moves to the named member and
	// keeps answering under its federated id.
	target := ""
	for _, m := range rt.Members() {
		if m != infos[0].Member {
			target = m
			break
		}
	}
	var res serve.MigrateResult
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances/"+infos[0].ID+"/migrate",
		FedMigrateRequest{Member: target}, 200), &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+infos[0].ID, nil, 200), &got); err != nil {
		t.Fatal(err)
	}
	if got.Member != target || got.MemberID != res.To {
		t.Fatalf("after migration: %+v, want member %s id %s", got, target, res.To)
	}
	// The load actuation crossed the member boundary: the restored copy's
	// next resolved epoch reflects it.
	await(t, "migrated instance serving the raised load", func() bool {
		var cur InstanceInfo
		if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+infos[0].ID, nil, 200), &cur); err != nil {
			t.Fatal(err)
		}
		return cur.Last.Load > 0.55
	})

	// Jobs fan out and come back under federated ids.
	var js serve.JobStatus
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/jobs",
		serve.JobSubmission{Workload: "brain", WorkS: 1e9}, 201), &js); err != nil {
		t.Fatal(err)
	}
	if js.ID != 1 {
		t.Fatalf("first federated job id = %d, want 1", js.ID)
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+fmt.Sprintf("/api/v1/jobs/%d", js.ID), nil, 200), &js); err != nil {
		t.Fatal(err)
	}
	var jobs struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/jobs", nil, 200), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs.Jobs) != 1 || jobs.Jobs[0].ID != 1 {
		t.Fatalf("federated job list = %+v", jobs.Jobs)
	}
	doReq(t, "DELETE", fts.URL+fmt.Sprintf("/api/v1/jobs/%d", js.ID), nil, 200)

	var schedSt serve.SchedulerStatus
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/sched", nil, 200), &schedSt); err != nil {
		t.Fatal(err)
	}
	if schedSt.Submitted != 1 {
		t.Fatalf("merged sched accounting: submitted = %d, want 1", schedSt.Submitted)
	}

	// Aggregated health: all members up, instance count matches.
	var hz struct {
		Status     string `json:"status"`
		Members    int    `json:"members"`
		MembersUp  int    `json:"members_up"`
		Instances  int    `json:"instances"`
		Migrations int64  `json:"migrations"`
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/healthz", nil, 200), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.MembersUp != 3 || hz.Instances != len(infos) || hz.Migrations != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	// Aggregated metrics name every fed family.
	text := string(doReq(t, "GET", fts.URL+"/metrics", nil, 200))
	for _, name := range MetricNames() {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Fatalf("/metrics missing family %s", name)
		}
	}
	if !strings.Contains(text, "heracles_fed_migrations_total 1") {
		t.Fatalf("migration counter missing from exposition:\n%s", text)
	}

	// Delete drains everything, on the members too.
	for _, info := range infos {
		doReq(t, "DELETE", fts.URL+"/api/v1/instances/"+info.ID, nil, 200)
	}
	total := 0
	for _, m := range members {
		total += m.srv.Registry().Len()
	}
	if total != 0 {
		t.Fatalf("members still hold %d instances after federated deletes", total)
	}
}

// TestFederationScaleAndBitIdenticalMigration is the federation
// acceptance run: three daemons behind the router sustain tens of
// thousands of federated creates, a slice of live instances migrates
// across members mid-run, and one scenario-rich instance's final engine
// state is pinned bit-identical to an unfederated, unmigrated reference
// run.
func TestFederationScaleAndBitIdenticalMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("federation scale test skipped in -short")
	}
	n := 30_000
	if raceEnabled {
		n = 2_000
	}
	_, rt, fts := newFleet(t, 3, n+16)

	// The reference: the same scenario run to completion on a plain
	// unsharded server, never migrated.
	refSrv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(refSrv.Close)
	refInst, err := refSrv.CreateInstance(richSpec(serve.SpeedMax))
	if err != nil {
		t.Fatalf("reference create: %v", err)
	}
	await(t, "reference run", func() bool { return refInst.Status().State == serve.StateDone })
	refCp, err := refInst.Checkpoint()
	if err != nil {
		t.Fatalf("reference checkpoint: %v", err)
	}
	want, err := json.Marshal(refCp.Engine)
	if err != nil {
		t.Fatal(err)
	}

	// The probe: same scenario, paced, created through the router.
	var probe InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", richSpec(500), 201), &probe); err != nil {
		t.Fatal(err)
	}

	// The bulk: parked instances (paced far below one epoch per test
	// lifetime), created concurrently through the router.
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				body, _ := json.Marshal(serve.InstanceSpec{Speed: 1e-6})
				resp, err := http.Post(fts.URL+"/api/v1/instances", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Errorf("create %d: status %d", k, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Migrate the probe across members twice, mid-run.
	epochOf := func(fid string) uint64 {
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+fid, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		return info.Epoch
	}
	cur := probe.Member
	for hop, minEpoch := range []uint64{30, 80} {
		await(t, "probe mid-run epoch", func() bool { return epochOf(probe.ID) >= minEpoch })
		target := ""
		for _, m := range rt.Members() {
			if m != cur {
				target = m
				break
			}
		}
		doReq(t, "POST", fts.URL+"/api/v1/instances/"+probe.ID+"/migrate", FedMigrateRequest{Member: target}, 200)
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+probe.ID, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		if info.Member != target {
			t.Fatalf("hop %d: probe on %s, want %s", hop, info.Member, target)
		}
		cur = target
	}

	// The probe finishes; its engine state must match the reference byte
	// for byte — telemetry rings, controller state and BE scheduler
	// accounting all crossed two process boundaries intact.
	await(t, "probe run complete", func() bool {
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+probe.ID, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		return info.State == serve.StateDone
	})
	var cp serve.InstanceCheckpoint
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances/"+probe.ID+"/checkpoint", nil, 200), &cp); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(cp.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("federated migration diverged from the reference run (%d vs %d bytes)", len(got), len(want))
	}

	// Every member carries a sane share and the aggregate adds up.
	var hz struct {
		MembersUp int `json:"members_up"`
		Instances int `json:"instances"`
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/healthz", nil, 200), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.MembersUp != 3 || hz.Instances != n+1 {
		t.Fatalf("healthz after scale run = %+v, want 3 members up, %d instances", hz, n+1)
	}
	snap := rt.snapshot()
	for _, m := range snap.Members {
		if m.Instances < n/6 {
			t.Fatalf("member %s holds %d instances — placement is badly skewed for %d total", m.Member, m.Instances, n)
		}
	}
}

// richSpec mirrors the serve package's migration spec: scenario load
// shapes, BE arrival/departure and an SLO tightening, so the state that
// crosses the wire is far from trivial.
func richSpec(speed float64) serve.InstanceSpec {
	return serve.InstanceSpec{
		Load:      0.3,
		Speed:     speed,
		MaxEpochs: 130,
		Scenario: &serve.ScenarioSpec{
			Name:      "fed-migration-mix",
			DurationS: 120,
			Load: &serve.ShapeSpec{
				Kind: "sum",
				Terms: []serve.ShapeSpec{
					{Kind: "flat", Value: 0.3},
					{Kind: "flashcrowd", StartS: 60, RiseS: 10, HoldS: 10, FallS: 10, Amp: 0.4},
				},
				Clamp: &serve.ClampSpec{Lo: 0, Hi: 0.85},
			},
			Events: []serve.EventSpec{
				{AtS: 30, Kind: "be-arrive", Workload: "brain"},
				{AtS: 60, Kind: "slo-scale", Factor: 0.8},
				{AtS: 90, Kind: "be-depart", Workload: "brain"},
			},
		},
	}
}

// TestFederationJoinLeaveRebalance grows and shrinks the member set:
// joining a member moves only the instances whose hash home changed
// (bounded by the rendezvous-hash minimal-movement property), leaving
// drains the departing member entirely, and both keep every instance
// reachable under its federated id.
func TestFederationJoinLeaveRebalance(t *testing.T) {
	// The members are named, so every run hashes the same population and
	// a join moves the same instances.
	members := []member{startMember(t, 256), startMember(t, 256)}
	joiner := startMember(t, 256)
	nameMembers(t, map[string]member{"member-a": members[0], "member-b": members[1], "member-c": joiner})
	rt, fts := startRouter(t, "http://member-a", "http://member-b")

	const n = 60
	ids := make([]string, 0, n)
	for k := 0; k < n; k++ {
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 1e-6}, 201), &info); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	// Join a third member.
	var joinRes struct {
		Member string `json:"member"`
		Moved  int    `json:"moved"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/members", map[string]string{"url": "http://member-c"}, 200), &joinRes); err != nil {
		t.Fatal(err)
	}
	if joinRes.Error != "" {
		t.Fatalf("join rebalance error: %s", joinRes.Error)
	}
	// Rendezvous hashing moves ~n/members keys to the joiner; allow the
	// same slack as the chash property test.
	bound := n/3 + 1 + n/10
	if joinRes.Moved == 0 || joinRes.Moved > bound {
		t.Fatalf("join moved %d instances, want 1..%d", joinRes.Moved, bound)
	}
	if got := joiner.srv.Registry().Len(); got != joinRes.Moved {
		t.Fatalf("joiner hosts %d instances, join reported %d moved", got, joinRes.Moved)
	}
	// Every instance answers under its federated id and sits on its hash
	// home.
	for _, fid := range ids {
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+fid, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		if want := rt.table.Place(fid); info.Member != want {
			t.Fatalf("after join, %s on %s, placement says %s", fid, info.Member, want)
		}
	}
	// A no-op rebalance moves nothing.
	var rb struct {
		Moved int `json:"moved"`
	}
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/rebalance", nil, 200), &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Moved != 0 {
		t.Fatalf("steady-state rebalance moved %d instances, want 0", rb.Moved)
	}

	// The joiner leaves again: its instances drain back to the others.
	var leaveRes struct {
		Moved int    `json:"moved"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(doReq(t, "DELETE", fts.URL+"/api/v1/members", map[string]string{"url": "http://member-c"}, 200), &leaveRes); err != nil {
		t.Fatal(err)
	}
	if leaveRes.Error != "" {
		t.Fatalf("leave rebalance error: %s", leaveRes.Error)
	}
	if got := joiner.srv.Registry().Len(); got != 0 {
		t.Fatalf("departed member still hosts %d instances", got)
	}
	total := 0
	for _, m := range members {
		total += m.srv.Registry().Len()
	}
	if total != n {
		t.Fatalf("survivors host %d instances, want %d", total, n)
	}
}

// TestSchedSkipsFailingMember: a member whose scheduler route answers 503
// is left out of the merged accounting, not counted as an empty
// scheduler.
func TestSchedSkipsFailingMember(t *testing.T) {
	members, _, _ := newFleet(t, 1, 4)
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serve.APIError(w, http.StatusServiceUnavailable, "scheduler unavailable")
	}))
	t.Cleanup(failing.Close)
	rt, err := NewRouter(Config{Members: []string{members[0].ts.URL, failing.URL}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	fts := httptest.NewServer(rt.Handler())
	t.Cleanup(fts.Close)

	doReq(t, "POST", members[0].ts.URL+"/api/v1/jobs", serve.JobSubmission{Workload: "brain", WorkS: 1e9}, 201)
	var agg SchedStatus
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/sched", nil, 200), &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Members) != 1 || agg.Submitted != 1 || agg.Policy != "slack-greedy" {
		t.Fatalf("merged accounting = %+v, want only the healthy member's", agg)
	}
}

// TestSchedEmptyLedgerGoodputIsZero: with no CPU-seconds banked or lost,
// the merged goodput fraction is 0, the sched.Accounting rule every
// member answers with — not a perfect 1.
func TestSchedEmptyLedgerGoodputIsZero(t *testing.T) {
	_, _, fts := newFleet(t, 2, 4)
	var agg SchedStatus
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/sched", nil, 200), &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Members) != 2 {
		t.Fatalf("merged %d members, want 2", len(agg.Members))
	}
	for i, m := range agg.Members {
		if m.GoodputFrac != 0 {
			t.Fatalf("member %d goodput_frac = %v, want 0", i, m.GoodputFrac)
		}
	}
	if agg.GoodputFrac != 0 {
		t.Fatalf("merged goodput_frac = %v on an empty ledger, want 0 like each member", agg.GoodputFrac)
	}
}

// TestMalformedJobIDIsNotFound: a job id that is not a positive integer
// names no job, as on the daemon: "3abc" is not job 3, and "x" is a 404.
func TestMalformedJobIDIsNotFound(t *testing.T) {
	_, _, fts := newFleet(t, 1, 4)
	for range 3 {
		doReq(t, "POST", fts.URL+"/api/v1/jobs", serve.JobSubmission{Workload: "brain", WorkS: 1e9}, 201)
	}
	for _, id := range []string{"3abc", "0", "-1", "x"} {
		doReq(t, "GET", fts.URL+"/api/v1/jobs/"+id, nil, 404)
		doReq(t, "DELETE", fts.URL+"/api/v1/jobs/"+id, nil, 404)
	}
}

// TestMergedQueueHighWaterIsTheMax: the merged max_queue_depth is the
// deepest any member's queue has been, as sched.Accounting.Add keeps it,
// not the sum of high-water marks reached at different times.
func TestMergedQueueHighWaterIsTheMax(t *testing.T) {
	got := mergeSched([]serve.SchedulerStatus{{MaxQueueDepth: 4}, {MaxQueueDepth: 7}}).MaxQueueDepth
	if got != 7 {
		t.Fatalf("merged max_queue_depth = %d, want 7", got)
	}
}
