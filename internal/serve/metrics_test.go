package serve

import (
	"bytes"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"heracles/internal/expo"
	"heracles/internal/slo"
)

// updateGolden regenerates the files under testdata/ instead of
// comparing:
//
//	go test ./internal/serve -run 'TestWriteMetricsGolden|TestBlockGoldens' -update
var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition differs from %s (rerun with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

// sortFamiliesRef is how /metrics ordered its families before
// internal/expo, kept as the reference the handler is compared with: it
// re-parses a rendered exposition on "# HELP " and sorts the whole
// family chunks as strings.
func sortFamiliesRef(text string) string {
	chunks := strings.Split(text, "# HELP ")
	fams := make([]string, 0, len(chunks))
	for _, c := range chunks {
		if c != "" {
			fams = append(fams, "# HELP "+c)
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, "")
}

// goldenStatuses is a fixed pool that reaches every branch of the
// exposition writer: label values needing each escape, a zero error
// budget, every health and alert state, and floats that format as
// integers, exponents and non-finite values.
func goldenStatuses() []Status {
	return []Status{
		{
			ID: "i1", State: StateRunning, Epoch: 90210, DroppedEvents: 3,
			Last: EpochUpdate{
				Load: 0.4, TailMs: 9.25, P95Ms: 7.5, SLOMs: 12, Slack: 0.22916666666666666, EMU: 0.875,
				BEEnabled: true, BECores: 12, BEWays: 4, DRAMUtil: 0.31, PowerFracTDP: 0.77, LinkUtil: 1e-7,
			},
			Actions: []ActionCount{{Loop: "core", Action: "grow-cores", Count: 41}, {Loop: "top", Action: "enable-be", Count: 2}},
			SLO: slo.Status{
				Objective: 0.999, Epochs: 90210, Violations: 17, BudgetSpent: 0.006558641975308642,
				Burn: [slo.NumWindows]float64{14.4, 1, 0.25, 1e-3}, Page: true,
			},
			Health: HealthHealthy,
		},
		{
			ID: "i\"2\\\n", State: StateDone, Epoch: 1 << 53,
			Last:    EpochUpdate{Load: 1e21, Slack: -0.5, EMU: math.Inf(1), TailMs: math.NaN()},
			Actions: []ActionCount{{Loop: "l\"oop", Action: "a\\ct\nion", Count: 1}},
			Health:  HealthQuarantined, Restarts: 5, FaultsInjected: 9,
		},
		{
			ID: "i3", State: StateCrashed,
			Last:   EpochUpdate{Slack: 0.75, EMU: 0.5},
			SLO:    slo.Status{Objective: 0.99, BudgetSpent: 1.5, Ticket: true},
			Health: HealthDegraded, Restarts: 1,
		},
	}
}

// TestWriteMetricsGolden pins the exposition byte for byte on a fixed
// pool, and on the empty pool (headers and fleet aggregates only).
func TestWriteMetricsGolden(t *testing.T) {
	var got bytes.Buffer
	WriteMetrics(&got, goldenStatuses())
	WriteMetrics(&got, nil)
	checkGolden(t, "metrics.golden", got.Bytes())
}

func goldenSched() SchedulerStatus {
	return SchedulerStatus{
		Policy: "slack\"gre\\edy\n", QueueDepth: 7, Running: 3, Submitted: 120, Dispatches: 131,
		Completed: 96, Evictions: 11, Failed: 2, Cancelled: 5, Aborted: 4,
		GoodCPUSec: 51234.5, WastedCPUSec: 1e-7, GoodputFrac: 0.93, MeanQueueDelayS: 2.25,
		MaxQueueDepth: 19, TickPanics: 1, LastTickPanic: "boom",
	}
}

func goldenEpochSched() EpochSchedStatus {
	return EpochSchedStatus{
		Drivers: 8, QueueDepth: 1000, Slices: 1 << 40, Epochs: 9007199254740993,
		LagSeconds: 0.0125,
	}
}

func goldenShards() []ShardStatus {
	return []ShardStatus{
		{Shard: 0, Instances: 501},
		{Shard: 1, Instances: 0},
	}
}

// goldenScrape renders a whole scrape of the fixed snapshots.
func goldenScrape() *expo.Writer {
	return renderMetrics(goldenStatuses(), goldenSched(), goldenEpochSched(), goldenShards(), 42)
}

// TestBlockGoldens pins the scheduler, epoch-scheduler and shard blocks
// byte for byte, each on a fixed snapshot and on the zero one. The files
// were generated by the fmt.Fprintf renderers internal/expo replaced.
func TestBlockGoldens(t *testing.T) {
	for _, tc := range []struct {
		file         string
		filled, zero func(*expo.Writer)
	}{
		{"sched_metrics.golden",
			func(e *expo.Writer) { writeSchedMetrics(e, goldenSched()) },
			func(e *expo.Writer) { writeSchedMetrics(e, SchedulerStatus{}) }},
		{"epoch_sched_metrics.golden",
			func(e *expo.Writer) { writeEpochSchedMetrics(e, goldenEpochSched()) },
			func(e *expo.Writer) { writeEpochSchedMetrics(e, EpochSchedStatus{}) }},
		{"shard_metrics.golden",
			func(e *expo.Writer) { writeShardMetrics(e, goldenShards(), 42) },
			func(e *expo.Writer) { writeShardMetrics(e, nil, 0) }},
	} {
		filled, zero := expo.NewWriter(0), expo.NewWriter(0)
		tc.filled(filled)
		tc.zero(zero)
		checkGolden(t, tc.file, append(filled.Bytes(), zero.Bytes()...))
	}
}

// finishedPool creates n instances that park after a few epochs and
// waits until every one has: nothing steps while the test scrapes.
func finishedPool(t *testing.T, s *Server, n int) {
	t.Helper()
	insts := make([]*Instance, n)
	for i := range insts {
		spec := InstanceSpec{Load: 0.2 + 0.5*float64(i)/float64(n), Speed: SpeedMax, MaxEpochs: 3}
		if i%2 == 0 {
			spec.BEs = []BEAttachment{{Workload: "brain"}}
		}
		inst, err := s.CreateInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	for _, inst := range insts {
		inst := inst
		awaitInstance(t, inst, "instance done", func() bool { return inst.Status().State == StateDone })
	}
}

// TestMetricsHandlerMatchesReference is the differential test for the
// /metrics handler: over a real connection, the body must be what the
// old pipeline produced — every block rendered in the old sequence,
// re-parsed and sorted by sortFamiliesRef — and must carry its length.
// It fails if the family order, a header, an escape or a number format
// changes.
func TestMetricsHandlerMatchesReference(t *testing.T) {
	s := New(Config{Lab: testLab, Shards: 2})
	defer s.Close()
	finishedPool(t, s, 6)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scrape := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("Content-Length = %q, body is %d bytes", got, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("response is %v-encoded, want identity", resp.TransferEncoding)
		}
		return string(body)
	}
	// The last slice's bookkeeping (slice counter and histogram) lands a
	// moment after its instance reports done: scrape until nothing moves.
	body := scrape()
	for prev, tries := "", 0; prev != body; tries++ {
		if tries == 50 {
			t.Fatal("exposition of a finished pool keeps changing")
		}
		prev, body = body, scrape()
	}

	var old bytes.Buffer
	WriteMetrics(&old, s.reg.Statuses())
	for _, block := range []func(*expo.Writer){
		func(e *expo.Writer) { writeSchedMetrics(e, s.jobs.Status()) },
		func(e *expo.Writer) { writeEpochSchedMetrics(e, s.reg.pool.status()) },
		func(e *expo.Writer) { writeShardMetrics(e, s.reg.ShardStatuses(), s.reg.Migrations()) },
		writeProcessMetrics,
	} {
		e := expo.NewWriter(0)
		block(e)
		old.Write(e.Bytes())
	}
	if want := sortFamiliesRef(old.String()); body != want {
		t.Fatalf("/metrics differs from the blocks in the old order, sorted by the reference\ngot:\n%s\nwant:\n%s", body, want)
	}
	if body != sortFamiliesRef(body) {
		t.Fatal("/metrics body is not in the reference's family order")
	}
	if !strings.Contains(body, `heracles_instance_be_cores{instance="i1"} `) || !strings.Contains(body, `heracles_shard_instances{shard="1"} `) {
		t.Fatalf("/metrics lacks the pool's series:\n%s", body)
	}

	names := MetricNames()
	for _, name := range names {
		if n := strings.Count(body, "# HELP "+name+" "); n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", name, n)
		}
		if n := strings.Count(body, "# TYPE "+name+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", name, n)
		}
	}
	if n := strings.Count(body, "# HELP "); n != len(names) {
		t.Errorf("/metrics carries %d families, MetricNames lists %d", n, len(names))
	}
}

// discardResponse is a ResponseWriter that counts the body and keeps
// nothing.
type discardResponse struct {
	header http.Header
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestScrapeAllocatesLessThanTwiceItsBody pins the handler's memory
// budget on a 300-instance pool: the body is rendered once into one
// buffer that never regrows, so a scrape allocates that buffer plus the
// Statuses snapshot (~1.4x the body). The pipeline this replaced copied
// the body five times (~7x).
func TestScrapeAllocatesLessThanTwiceItsBody(t *testing.T) {
	const pool = 300
	s := New(Config{Lab: testLab, Shards: 2, MaxInstances: pool})
	defer s.Close()
	finishedPool(t, s, pool)

	sts := s.reg.Statuses()
	rendered := renderMetrics(sts, s.jobs.Status(), s.reg.pool.status(), s.reg.ShardStatuses(), s.reg.Migrations()).Bytes()
	if presized := metricsBytes(sts, s.reg.ShardCount()); cap(rendered) != presized {
		t.Errorf("writer presized to %d bytes ends at capacity %d after a %d-byte body: it regrew",
			presized, cap(rendered), len(rendered))
	}

	h := s.Handler()
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := &discardResponse{header: http.Header{}}
	h.ServeHTTP(w, req) // warm: lazy set-up is not the scrape's cost
	const runs = 10
	var before, after runtime.MemStats
	w.n = 0
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	body := w.n / runs
	perScrape := int(after.TotalAlloc-before.TotalAlloc) / runs
	if body < 1000*pool {
		t.Fatalf("body is only %d bytes for %d instances", body, pool)
	}
	if perScrape >= 2*body {
		t.Fatalf("a scrape allocates %d bytes for a %d-byte body (%.1fx), want under 2x",
			perScrape, body, float64(perScrape)/float64(body))
	}
	t.Logf("scrape of %d instances: %d-byte body, %d bytes allocated (%.2fx)", pool, body, perScrape, float64(perScrape)/float64(body))
}

// TestWriteMetricsAllocsDoNotGrowWithPool pins the renderer's allocation
// count independent of pool size: one output buffer, nothing per series.
// The pool carries registry-style ids; a label that needs escaping costs
// one string.
func TestWriteMetricsAllocsDoNotGrowWithPool(t *testing.T) {
	pool := func(n int) []Status {
		sts := make([]Status, n)
		for i := range sts {
			sts[i] = goldenStatuses()[0]
			sts[i].ID = "i" + strconv.Itoa(i+1)
		}
		return sts
	}
	small, large := pool(3), pool(300)
	a := testing.AllocsPerRun(20, func() { WriteMetrics(io.Discard, small) })
	b := testing.AllocsPerRun(20, func() { WriteMetrics(io.Discard, large) })
	if a != b || a > 2 {
		t.Fatalf("WriteMetrics allocates %.0f objects for 3 instances and %.0f for 300, want the same small count", a, b)
	}
}
