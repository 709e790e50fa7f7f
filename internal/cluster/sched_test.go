package cluster

import (
	"reflect"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
)

// schedConfig builds a cluster config with a scheduler-driven BE source.
func schedConfig(t *testing.T, policy sched.Policy, jobs []sched.JobSpec) Config {
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.Sched = &sched.Config{Policy: policy, Jobs: jobs, EvictGrace: 10 * time.Second, Backoff: 20 * time.Second}
	return cfg
}

func schedJobs(n int, horizon time.Duration) []sched.JobSpec {
	return sched.SyntheticJobs(n, horizon, 5, []string{"brain", "streetview"})
}

// runWithJobs runs the scenario and also returns the scheduler's final
// job table, read from a checkpoint taken after the last epoch.
func runWithJobs(t *testing.T, cfg Config, sc scenario.Scenario) (Result, []sched.Job) {
	t.Helper()
	var jobs []sched.Job
	cfg.CheckpointAt = sc.Duration
	cfg.OnCheckpoint = func(cp *engine.Checkpoint) { jobs = cp.Sched.Jobs }
	res := RunScenario(cfg, sc)
	if jobs == nil {
		t.Fatal("no job table: the final checkpoint never fired")
	}
	return res, jobs
}

// TestSchedulerClusterCompletesJobs: on a calm cluster the scheduler
// dispatches and completes jobs, banks their CPU time as goodput, and
// colocation lifts EMU above the bare load.
func TestSchedulerClusterCompletesJobs(t *testing.T) {
	horizon := 16 * time.Minute
	cfg := schedConfig(t, sched.SlackGreedy{}, schedJobs(12, horizon))
	res := RunScenario(cfg, scenario.Scenario{
		Name: "sched-calm", Duration: horizon, Load: scenario.Flat(0.35),
	})
	if res.Sched == nil {
		t.Fatal("no scheduler accounting")
	}
	acct := res.Sched
	if acct.Completed == 0 {
		t.Fatalf("no jobs completed: %+v", acct)
	}
	if acct.GoodCPUSec <= 0 {
		t.Fatalf("no goodput banked: %+v", acct)
	}
	s := res.Summarize()
	if s.Sched == nil || s.SchedPolicy != "slack-greedy" {
		t.Fatalf("summary lost sched accounting: %+v", s)
	}
	if s.MeanEMU <= 0.37 {
		t.Fatalf("scheduled BE work did not lift EMU: %.3f", s.MeanEMU)
	}
	// Depths are reported per epoch.
	sawRunning := false
	for _, e := range res.Epochs {
		if e.SchedRunning > 0 {
			sawRunning = true
			break
		}
	}
	if !sawRunning {
		t.Fatal("no epoch reported running jobs")
	}
}

// TestSchedulerEvictsUnderFlashCrowd drives load above the controller's
// disable threshold mid-run: every controller parks BE, the scheduler
// must evict and re-queue (wasting the accrued work), and the
// dispatch-to-disabled panic guard in applySchedAction must stay silent
// throughout — the integration half of the invariant test.
func TestSchedulerEvictsUnderFlashCrowd(t *testing.T) {
	horizon := 18 * time.Minute
	jobs := []sched.JobSpec{}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, sched.JobSpec{
			Name: "long", Workload: "brain", Demand: 2,
			Work: time.Hour, Retries: 8, Submit: time.Duration(i) * 20 * time.Second,
		})
	}
	cfg := schedConfig(t, sched.Spread{}, jobs)
	res := RunScenario(cfg, scenario.Scenario{
		Name:     "sched-crowd",
		Duration: horizon,
		Load: scenario.Clamp(scenario.Sum(
			scenario.Flat(0.35),
			scenario.FlashCrowd{Start: 6 * time.Minute, Rise: time.Minute, Hold: 2 * time.Minute, Fall: time.Minute, Amp: 0.55},
		), 0, 0.92),
	})
	acct := res.Sched
	if acct.Evictions == 0 {
		t.Fatalf("flash crowd caused no evictions: %+v", acct)
	}
	if acct.WastedCPUSec <= 0 {
		t.Fatalf("evictions wasted no CPU time: %+v", acct)
	}
}

// TestScriptedDepartSparesSchedulerTasks: a scripted be-depart event for
// a workload the scheduler is also running must not detach the
// scheduler's tasks — otherwise those jobs would freeze mid-run, never
// completing and never evicting. With departs fenced off, every job
// still completes.
func TestScriptedDepartSparesSchedulerTasks(t *testing.T) {
	horizon := 14 * time.Minute
	jobs := []sched.JobSpec{}
	for i := 0; i < 4; i++ {
		jobs = append(jobs, sched.JobSpec{
			Name: "j", Workload: "brain", Demand: 2,
			Work: 2 * time.Minute, Retries: 3,
			Submit: time.Duration(i) * 30 * time.Second,
		})
	}
	cfg := schedConfig(t, sched.SlackGreedy{}, jobs)
	res := RunScenario(cfg, scenario.Scenario{
		Name: "depart-vs-sched", Duration: horizon, Load: scenario.Flat(0.35),
		Events: []scenario.Event{
			// Fires while the scheduler's brain jobs are running.
			scenario.BEDepart(4*time.Minute, scenario.AllLeaves, "brain"),
		},
	})
	acct := res.Sched
	if acct.Completed != len(jobs) {
		t.Fatalf("scripted depart froze scheduler jobs: %+v", acct)
	}
}

// TestSchedulerUnknownWorkloadPanics: job composition errors fail before
// any simulation state exists, like scenario events.
func TestSchedulerUnknownWorkloadPanics(t *testing.T) {
	cfg := schedConfig(t, sched.SlackGreedy{}, []sched.JobSpec{
		{Name: "bad", Workload: "nope", Work: time.Minute},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown job workload did not panic")
		}
	}()
	RunScenario(cfg, scenario.Scenario{Name: "bad", Duration: time.Minute, Load: scenario.Flat(0.3)})
}

// TestSeedReachesOnlyRandomPlacement: Config.Seed reaches a cluster run
// only through its job scheduler's RNG, so a run whose policy does not
// read it has one summary under any seed (internal/fleet shares such
// runs among replicas), while the random policy's moves.
func TestSeedReachesOnlyRandomPlacement(t *testing.T) {
	horizon := 8 * time.Minute
	sc := scenario.Scenario{Name: "sched-seed", Duration: horizon, Load: scenario.Flat(0.35)}
	for _, name := range sched.PolicyNames() {
		pol, _ := sched.PolicyByName(name)
		cfg := schedConfig(t, pol, schedJobs(12, horizon))
		cfg.Seed = 1
		a := RunScenario(cfg, sc).Summarize()
		cfg.Seed = 2
		b := RunScenario(cfg, sc).Summarize()
		if a.Sched.Dispatches == 0 {
			t.Fatalf("%s: no job was placed", name)
		}
		if equal := reflect.DeepEqual(a, b); equal == pol.ReadsRNG() {
			t.Errorf("%s (ReadsRNG %v): summaries equal under two seeds = %v:\n%+v\n%+v",
				name, pol.ReadsRNG(), equal, a, b)
		}
	}
}
