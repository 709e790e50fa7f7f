package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/machine"
)

// waitForJobState re-reads the job route after each dispatch tick until
// the predicate holds, returning the final status. Job state only changes
// on dispatch ticks, so waiting on the tick notification replaces the
// old sleep-poll without missing a transition.
func waitForJobState(t *testing.T, s *Server, client *http.Client, url string, what string, ok func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	var st JobStatus
	for {
		_, ch := s.jobs.tickWait()
		body := doReq(t, client, "GET", url, nil, 200)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("job status: %v; body %s", err, body)
		}
		if ok(st) {
			return st
		}
		select {
		case <-ch:
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s; last: %+v", what, st)
		}
	}
}

// TestJobLifecycleOverHTTP is the scheduler's acceptance flow: submit a
// job against a free-running instance, watch it dispatch and complete,
// see the scheduler decisions on the SSE stream and the goodput counters
// in /metrics, and exercise cancel/404/validation paths.
func TestJobLifecycleOverHTTP(t *testing.T) {
	s := New(Config{Lab: testLab, schedInterval: 10 * time.Millisecond, schedSeed: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// A fast (but not free-running) machine at modest load: its
	// controller enables BE within the first simulated minute, which
	// passes in well under a wall second — while the epoch-event rate
	// stays low enough that the SSE subscriber never overflows and drops
	// the scheduler events this test asserts on.
	spec := InstanceSpec{Name: "node", LC: "websearch", Load: 0.3, Speed: 500}
	body := doReq(t, client, "POST", ts.URL+"/api/v1/instances", jsonBody(t, spec), 201)
	var inst Status
	if err := json.Unmarshal(body, &inst); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Attach an SSE subscriber before any scheduling happens.
	req, err := http.NewRequest("GET", ts.URL+"/api/v1/instances/"+inst.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Drain the stream from the start: a free-running instance floods
	// epoch events, and an unread stream would overflow the subscriber
	// buffer and drop the scheduler events this test waits for.
	sawScheduler := make(chan SchedulerUpdate, 16)
	go func() {
		r := newSSEReader(resp.Body)
		for {
			ev, err := r.Next()
			if err != nil {
				close(sawScheduler)
				return
			}
			if ev.Event != "scheduler" {
				continue
			}
			var up SchedulerUpdate
			if json.Unmarshal(ev.Data, &up) == nil {
				select {
				case sawScheduler <- up:
				default:
				}
			}
		}
	}()

	// Validation: bad submissions are rejected before the queue sees
	// them.
	doReq(t, client, "POST", ts.URL+"/api/v1/jobs",
		jsonBody(t, JobSubmission{Workload: "nope", WorkS: 10}), 400)
	doReq(t, client, "POST", ts.URL+"/api/v1/jobs",
		jsonBody(t, JobSubmission{Workload: "brain"}), 400)

	// Submit a small job: 20 busy core-seconds completes in wall
	// milliseconds on a free-running machine.
	body = doReq(t, client, "POST", ts.URL+"/api/v1/jobs",
		jsonBody(t, JobSubmission{Name: "batch-1", Workload: "brain", WorkS: 20}), 201)
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("submit: %v; body %s", err, body)
	}
	if job.ID != 1 || job.State != "pending" || job.Demand != 1 || job.Retries != 3 {
		t.Fatalf("submitted job = %+v", job)
	}

	done := waitForJobState(t, s, client, ts.URL+"/api/v1/jobs/1", "job 1 completed", func(j JobStatus) bool {
		return j.State == "completed"
	})
	if done.CPUSec < 20 || done.Attempts != 1 {
		t.Fatalf("completed job = %+v", done)
	}

	// The job list carries it, and the scheduler status banked goodput.
	body = doReq(t, client, "GET", ts.URL+"/api/v1/jobs", nil, 200)
	if !bytes.Contains(body, []byte(`"batch-1"`)) {
		t.Fatalf("job list missing the job: %s", body)
	}
	body = doReq(t, client, "GET", ts.URL+"/api/v1/scheduler", nil, 200)
	var st SchedulerStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "slack-greedy" || st.Completed < 1 || st.GoodCPUSec < 20 {
		t.Fatalf("scheduler status = %+v", st)
	}

	// Submit a long job and cancel it; terminal jobs refuse a second
	// cancel, unknown ids 404.
	doReq(t, client, "POST", ts.URL+"/api/v1/jobs",
		jsonBody(t, JobSubmission{Name: "doomed", Workload: "streetview", WorkS: 1e7}), 201)
	waitForJobState(t, s, client, ts.URL+"/api/v1/jobs/2", "job 2 queued or running", func(j JobStatus) bool {
		return j.State == "running" || j.State == "pending"
	})
	body = doReq(t, client, "DELETE", ts.URL+"/api/v1/jobs/2", nil, 200)
	var cancelled JobStatus
	if err := json.Unmarshal(body, &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != "cancelled" {
		t.Fatalf("cancel result = %+v", cancelled)
	}
	doReq(t, client, "DELETE", ts.URL+"/api/v1/jobs/2", nil, 409)
	doReq(t, client, "DELETE", ts.URL+"/api/v1/jobs/99", nil, 404)

	// Scheduler decisions reached the instance's SSE stream.
	select {
	case up, ok := <-sawScheduler:
		if !ok {
			t.Fatal("stream closed before any scheduler event")
		}
		if up.Instance != inst.ID || up.Job == 0 || up.Action == "" {
			t.Fatalf("scheduler SSE event = %+v", up)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no scheduler event on the SSE stream")
	}

	// /metrics exposes the scheduler block.
	metrics := string(doReq(t, client, "GET", ts.URL+"/metrics", nil, 200))
	for _, want := range []string{
		"heracles_sched_queue_depth",
		"heracles_sched_goodput_cpu_seconds_total",
		"heracles_sched_evictions_total",
		`heracles_sched_info{policy="slack-greedy"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Telemetry carries the machine-side disposition counters and the
	// controller verdict field. The counters land on telemetry one epoch
	// after CompleteBE runs, so wait on the instance's change events.
	live, ok := s.Registry().Get(inst.ID)
	if !ok {
		t.Fatalf("instance %s vanished from the registry", inst.ID)
	}
	awaitInstance(t, live, "completed CPU time on telemetry", func() bool {
		return live.Status().Last.BEGoodCPUSec >= 20
	})
	var got Status
	body = doReq(t, client, "GET", ts.URL+"/api/v1/instances/"+inst.ID, nil, 200)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Last.BEGoodCPUSec < 20 || !got.Last.BEAllowed {
		t.Fatalf("telemetry missing CPU time or controller verdict: %+v", got.Last)
	}
}

// TestSchedulerSkipsDisabledInstances pins the live half of the
// dispatch invariant: an instance at saturating load (its controller
// keeps BE disabled) never receives a job.
func TestSchedulerSkipsDisabledInstances(t *testing.T) {
	s := New(Config{Lab: testLab, schedInterval: 5 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Load 0.95 is far above the controller's 0.85 disable threshold:
	// BE stays parked forever.
	doReq(t, client, "POST", ts.URL+"/api/v1/instances",
		jsonBody(t, InstanceSpec{Name: "hot", LC: "websearch", Load: 0.95, Speed: SpeedMax}), 201)
	doReq(t, client, "POST", ts.URL+"/api/v1/jobs",
		jsonBody(t, JobSubmission{Name: "starved", Workload: "brain", WorkS: 5}), 201)

	// Give the dispatch loop plenty of ticks, then require the job is
	// still queued with zero attempts.
	start, _ := s.jobs.tickWait()
	awaitTicks(t, s.jobs, "20 dispatch ticks", func(n int64) bool { return n >= start+20 })
	body := doReq(t, client, "GET", ts.URL+"/api/v1/jobs/1", nil, 200)
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "pending" || job.Attempts != 0 {
		t.Fatalf("job dispatched onto a BE-disabled machine: %+v", job)
	}
}

// TestJobAPIAnswersWhileATickWaitsOnAMailbox: the dispatch tick probes
// every instance through its mailbox, and /metrics and GET
// /api/v1/scheduler read the job scheduler. An epoch hook held shut keeps
// one instance's mailbox while ticks come due; both routes must answer
// all the same, with no tick finishing meanwhile.
func TestJobAPIAnswersWhileATickWaitsOnAMailbox(t *testing.T) {
	// Two workers: one waits in the hook, the other takes the tick.
	s := New(Config{Lab: testLab, Drivers: 2, schedInterval: 5 * time.Millisecond})
	defer s.Close()
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release) // before Close, which waits out the slice
	hook := func(*machine.Machine, machine.Telemetry) {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	if _, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1000, EpochHook: hook}); err != nil {
		t.Fatal(err)
	}
	start, _ := s.jobs.tickWait()
	awaitTicks(t, s.jobs, "2 dispatch ticks", func(n int64) bool { return n >= start+2 })

	before, _ := s.jobs.tickWait()
	hold.Store(true)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the instance never reached its epoch hook")
	}
	time.Sleep(100 * time.Millisecond) // 20 intervals: a tick waits on the held mailbox

	done := make(chan []int, 1)
	go func() {
		var codes []int
		for _, path := range []string{"/metrics", "/api/v1/scheduler"} {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			codes = append(codes, w.Code)
		}
		done <- codes
	}()
	select {
	case codes := <-done:
		if codes[0] != 200 || codes[1] != 200 {
			t.Fatalf("/metrics answered %d, /api/v1/scheduler %d; want 200 and 200", codes[0], codes[1])
		}
		// Twenty intervals passed with at most the tick that was under
		// way when the hook closed, so one is waiting on the mailbox.
		if n, _ := s.jobs.tickWait(); n > before+2 {
			t.Fatalf("%d ticks finished while the mailbox was held: the test held no tick", n-before)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/metrics and /api/v1/scheduler still waiting after 10 s: they wait on a tick that waits on a held mailbox")
	}
}

// TestShardedServerRunsEveryJob: on a two-shard server with one instance,
// every job runs there, whichever shard hosts it — there is one job
// scheduler and it dispatches over every live instance.
func TestShardedServerRunsEveryJob(t *testing.T) {
	s := New(Config{Lab: testLab, Shards: 2, schedInterval: 10 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	doReq(t, client, "POST", ts.URL+"/api/v1/instances",
		jsonBody(t, InstanceSpec{LC: "websearch", Load: 0.3, Speed: 500}), 201)
	for k := 1; k <= 2; k++ {
		doReq(t, client, "POST", ts.URL+"/api/v1/jobs",
			jsonBody(t, JobSubmission{Workload: "brain", WorkS: 20}), 201)
	}
	for k := 1; k <= 2; k++ {
		waitForJobState(t, s, client, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, k),
			fmt.Sprintf("job %d completed", k), func(j JobStatus) bool { return j.State == "completed" })
	}
}

// TestJobWorkIsBounded: work_s is accepted up to MaxJobWorkS and refused
// above it with a 400 — 1e10 s overflows the scheduler's Duration and
// used to panic the handler — and so is a work_s under a nanosecond,
// which truncates to no work at all.
func TestJobWorkIsBounded(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	doReq(t, client, "POST", ts.URL+"/api/v1/jobs", jsonBody(t, JobSubmission{Workload: "brain", WorkS: MaxJobWorkS}), 201)
	for _, work := range []float64{math.Nextafter(MaxJobWorkS, math.Inf(1)), 1e10, 1e-10} {
		doReq(t, client, "POST", ts.URL+"/api/v1/jobs", jsonBody(t, JobSubmission{Workload: "brain", WorkS: work}), 400)
	}
}
