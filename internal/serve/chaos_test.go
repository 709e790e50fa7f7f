package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heracles/internal/sched"
)

// injectRetry keeps re-submitting a fault until the instance accepts it —
// injections race with crash/restart windows, during which mutations fail
// fast with ErrCrashed. Between attempts it waits on the instance's
// change notification, grabbed before each attempt so a restart landing
// mid-attempt still wakes the retry.
func injectRetry(t *testing.T, inst *Instance, req FaultRequest) {
	t.Helper()
	deadline := time.NewTimer(20 * time.Second)
	defer deadline.Stop()
	for {
		ch := inst.changed()
		err := inst.InjectFault(req)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("inject %s on %s: %v", req.Kind, inst.ID(), err)
		}
		select {
		case <-ch:
		case <-deadline.C:
			t.Fatalf("inject %s on %s: still crashed after 20s: %v", req.Kind, inst.ID(), err)
		}
	}
}

// TestChaosSoak is the robustness acceptance test: a live control plane
// absorbs a sustained barrage of injected faults — driver panics,
// simulated leaf crashes, telemetry blackouts, slow machines — while the
// fleet scheduler keeps dispatching jobs. The server must survive, every
// crashed instance must restart from its checkpoint and keep advancing,
// and the scheduler's goodput accounting must stay consistent: no BE
// CPU-seconds lost or double-counted across all the evictions.
func TestChaosSoak(t *testing.T) {
	s := New(Config{
		Lab:              testLab,
		schedInterval:    5 * time.Millisecond,
		schedSeed:        7,
		restartBackoff:   time.Millisecond,
		maxCrashRestarts: 1000,
		checkpointEpochs: 5,
		stableEpochs:     5,
	})
	t.Cleanup(s.Close)

	var insts []*Instance
	for i := 0; i < 2; i++ {
		inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, BEs: []BEAttachment{{Workload: "brain"}}})
		if err != nil {
			t.Fatalf("create instance %d: %v", i, err)
		}
		insts = append(insts, inst)
	}

	// Jobs big enough that they cannot finish during the soak — at
	// SpeedMax a small job completes in milliseconds of wall time, and a
	// kill can only evict a job that is still running. Large retry
	// budgets keep them alive through repeated kills.
	retries := 1000
	for i := 0; i < 6; i++ {
		s.jobs.Submit(JobSubmission{Workload: "streetview", WorkS: 1e9, Retries: &retries})
	}

	// 24 faults >= the 20 the acceptance criterion demands; each block of
	// four kinds alternates target instances so both crash repeatedly.
	const rounds = 24
	for k := 0; k < rounds; k++ {
		inst := insts[(k/4)%len(insts)]
		switch k % 4 {
		case 0:
			injectRetry(t, inst, FaultRequest{Kind: FaultDriverPanic})
		case 1:
			injectRetry(t, inst, FaultRequest{Kind: "telemetry-blackout", DurationS: 0.5})
		case 2:
			// Mirror the HTTP handler: evict fleet jobs through the
			// scheduler before the simulated crash destroys their tasks.
			s.jobs.killJobsOn(inst, "", "killed by injected fault")
			injectRetry(t, inst, FaultRequest{Kind: "leaf-crash", DurationS: 0.5})
		case 3:
			injectRetry(t, inst, FaultRequest{Kind: "slow-machine", DurationS: 0.5, Factor: 1.5})
		}
		time.Sleep(3 * time.Millisecond)
	}

	// Every instance recovers: running, out of quarantine, having
	// restarted from checkpoint at least once (each took >= 3 panics).
	for _, inst := range insts {
		inst := inst
		awaitInstance(t, inst, "recovery", func() bool {
			st, h := inst.Status(), inst.Health()
			return st.State == StateRunning && h.State != HealthQuarantined && h.Restarts >= 1
		})
		h := inst.Health()
		if h.Crashes < 3 {
			t.Errorf("instance %s recorded %d crashes, want >= 3 (one per driver-panic block)", inst.ID(), h.Crashes)
		}
		if h.FaultsInjected < 9 {
			t.Errorf("instance %s counted %d faults, want >= 9 (12 rounds targeted it)", inst.ID(), h.FaultsInjected)
		}
		// The restarted simulation keeps advancing.
		e0 := inst.Status().Epoch
		awaitInstance(t, inst, "advancing after restart", func() bool {
			return inst.Status().Epoch > e0
		})
	}

	// A couple of small jobs complete on the recovered fleet so the
	// good-CPU side of the conservation check has something to count.
	var smallIDs []int
	for i := 0; i < 2; i++ {
		js := s.jobs.Submit(JobSubmission{Workload: "brain", WorkS: 5, Retries: &retries})
		smallIDs = append(smallIDs, js.ID)
	}
	awaitTicks(t, s.jobs, "small jobs completing on the recovered fleet", func(int64) bool {
		for _, id := range smallIDs {
			j, ok := s.jobs.Job(id)
			if !ok || j.State != sched.JobCompleted.String() {
				return false
			}
		}
		return true
	})

	// Goodput conservation: the scheduler's global tallies must equal the
	// per-job sums — CPU-seconds neither vanish nor double-count across
	// all the crash evictions and fault kills.
	st := s.jobs.Status()
	var good, wasted float64
	for _, j := range s.jobs.Jobs() {
		if j.State == sched.JobCompleted.String() {
			good += j.CPUSec
		}
		wasted += j.WastedS
	}
	if math.Abs(st.GoodCPUSec-good) > 1e-6 {
		t.Errorf("goodput tally %v != per-job completed sum %v", st.GoodCPUSec, good)
	}
	if math.Abs(st.WastedCPUSec-wasted) > 1e-6 {
		t.Errorf("wasted tally %v != per-job wasted sum %v", st.WastedCPUSec, wasted)
	}
	if st.Evictions == 0 {
		t.Error("chaos run evicted no jobs; the kills exercised nothing")
	}
	if st.TickPanics != 0 {
		t.Errorf("dispatch loop recovered %d tick panics (last: %s); ticks should survive crashes without panicking",
			st.TickPanics, st.LastTickPanic)
	}

	// The control plane as a whole still serves.
	if got := len(s.Registry().Statuses()); got != 2 {
		t.Fatalf("registry lists %d instances after the soak, want 2", got)
	}
}

// TestDriverPanicRestartsFromCheckpoint pins the single-crash path: the
// supervisor recovers the panic, restarts from the last checkpoint (not
// epoch zero), publishes the lifecycle transitions, and the health state
// walks degraded -> healthy after the stability window.
func TestDriverPanicRestartsFromCheckpoint(t *testing.T) {
	s := New(Config{
		Lab:              testLab,
		restartBackoff:   time.Millisecond,
		checkpointEpochs: 5,
		stableEpochs:     10,
	})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// At SpeedMax the per-epoch telemetry floods any subscriber buffer
	// within milliseconds, so the lifecycle transitions must be drained
	// continuously or the hub drops them.
	sub := inst.hub.Subscribe(4096)
	defer sub.Close()
	lifecycle := make(chan string, 16)
	go func() {
		for m := range sub.Ch() {
			if m.Event != "lifecycle" {
				continue
			}
			var lu LifecycleUpdate
			if json.Unmarshal(m.Data, &lu) != nil {
				continue
			}
			if lu.State == StateCrashed || strings.HasPrefix(lu.Detail, "restarted from checkpoint") {
				lifecycle <- lu.State
			}
		}
	}()

	// Let it advance past a few checkpoint refreshes, then crash it.
	awaitInstance(t, inst, "warmup epochs", func() bool { return inst.Status().Epoch >= 12 })
	injectRetry(t, inst, FaultRequest{Kind: FaultDriverPanic})

	awaitInstance(t, inst, "restart", func() bool { return inst.Health().Restarts == 1 })
	h := inst.Health()
	// At SpeedMax the stability window may already have elapsed and reset
	// the consecutive-crash counter, so only the cumulative count is
	// asserted here.
	if h.Crashes != 1 {
		t.Fatalf("health after crash = %+v, want exactly 1 crash", h)
	}
	if !strings.Contains(h.LastError, "injected driver panic") {
		t.Fatalf("health last_error = %q, want the panic message", h.LastError)
	}

	// Restarted from a checkpoint, not from scratch: the resumed epoch is
	// at least the last refresh cadence below the crash epoch.
	if ep := inst.Status().Epoch; ep == 0 {
		t.Fatal("restart resumed at epoch 0; the checkpoint was not used")
	}

	// Degraded now, healthy after the stability window.
	awaitInstance(t, inst, "healthy after stability window", func() bool {
		h := inst.Health()
		return h.State == HealthHealthy && h.ConsecutiveCrashes == 0
	})

	// The stream saw the crash and the restore, in order.
	var events []string
	deadline := time.After(5 * time.Second)
	for len(events) < 2 {
		select {
		case st := <-lifecycle:
			events = append(events, st)
		case <-deadline:
			t.Fatalf("lifecycle events seen before timeout: %v (want crashed then restored)", events)
		}
	}
	if events[0] != StateCrashed {
		t.Fatalf("lifecycle order = %v, want the crash first", events)
	}
}

// TestQuarantineAfterRepeatedCrashes opens the circuit breaker: with
// maxCrashRestarts 1 and an unreachable stability window, the second
// crash quarantines the instance; mutations fail with ErrQuarantined
// while status and health stay readable.
func TestQuarantineAfterRepeatedCrashes(t *testing.T) {
	s := New(Config{
		Lab:              testLab,
		restartBackoff:   time.Millisecond,
		maxCrashRestarts: 1,
		stableEpochs:     1 << 30,
	})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax})
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	injectRetry(t, inst, FaultRequest{Kind: FaultDriverPanic})
	awaitInstance(t, inst, "first restart", func() bool { return inst.Health().Restarts == 1 })
	injectRetry(t, inst, FaultRequest{Kind: FaultDriverPanic})
	awaitInstance(t, inst, "quarantine", func() bool { return inst.Health().State == HealthQuarantined })

	if st := inst.Status(); st.State != StateQuarantined {
		t.Fatalf("status state = %q, want %q", st.State, StateQuarantined)
	}
	if err := inst.Do(func() error { return nil }); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Do on quarantined instance = %v, want ErrQuarantined", err)
	}
	if err := inst.InjectFault(FaultRequest{Kind: "telemetry-blackout"}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("InjectFault on quarantined instance = %v, want ErrQuarantined", err)
	}
	h := inst.Health()
	if h.Crashes != 2 || h.Restarts != 1 {
		t.Fatalf("health = %+v, want 2 crashes and 1 restart", h)
	}
}

// TestFaultAndHealthRoutes exercises the HTTP surface: health reporting,
// fault injection (valid, invalid, defaulted), and the request body
// limit on mutating routes.
func TestFaultAndHealthRoutes(t *testing.T) {
	s := New(Config{Lab: testLab})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	body := doReq(t, client, "POST", ts.URL+"/api/v1/instances",
		jsonBody(t, InstanceSpec{Speed: SpeedMax}), 201)
	var created Status
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("create response: %v; body %s", err, body)
	}
	id := created.ID

	// Responses are compact JSON: decode them, never match their spacing.
	health := func() (h HealthStatus) {
		t.Helper()
		hb := doReq(t, client, "GET", ts.URL+"/api/v1/instances/"+id+"/health", nil, 200)
		if err := json.Unmarshal(hb, &h); err != nil {
			t.Fatalf("health body %s: %v", hb, err)
		}
		return h
	}
	if h := health(); h.State != "healthy" {
		t.Fatalf("health = %+v, want healthy state", h)
	}
	doReq(t, client, "GET", ts.URL+"/api/v1/instances/nosuch/health", nil, 404)

	fb := doReq(t, client, "POST", ts.URL+"/api/v1/instances/"+id+"/faults",
		jsonBody(t, FaultRequest{Kind: "telemetry-blackout", DurationS: 1}), 202)
	var injected struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(fb, &injected); err != nil || injected.Kind != "telemetry-blackout" {
		t.Fatalf("fault response = %s (%v)", fb, err)
	}
	doReq(t, client, "POST", ts.URL+"/api/v1/instances/"+id+"/faults",
		jsonBody(t, FaultRequest{Kind: "meteor-strike"}), 400)
	doReq(t, client, "POST", ts.URL+"/api/v1/instances/"+id+"/faults",
		jsonBody(t, FaultRequest{Kind: "slow-machine", Factor: 0.5}), 400)

	// The injected fault shows up in the health counters.
	live, ok := s.Registry().Get(id)
	if !ok {
		t.Fatalf("instance %s not in registry", id)
	}
	awaitInstance(t, live, "fault counted in health", func() bool {
		return live.Health().FaultsInjected >= 1
	})
	if h := health(); h.FaultsInjected != 1 {
		t.Fatalf("health = %+v, want faults_injected 1", h)
	}

	// Oversized mutating bodies are rejected with 413 before decoding.
	huge := strings.NewReader(`{"workload":"` + strings.Repeat("x", BodyLimit+1024) + `"}`)
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/jobs", huge)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("oversized request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}
