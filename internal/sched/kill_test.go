package sched

import (
	"testing"
	"time"
)

// TestKillEvictsThroughRetryBudget: Kill force-evicts a running job via
// the normal evict path — wasted CPU time is booked, the job requeues
// while it has retry budget and fails once the budget is spent — and is
// a no-op on jobs that are not running.
func TestKillEvictsThroughRetryBudget(t *testing.T) {
	s := New(Config{Policy: SlackGreedy{}})
	id := s.Submit(JobSpec{Workload: "brain", Demand: 1, Work: 100 * time.Second, Retries: 1})
	node := []NodeState{{ID: 1, BEAllowed: true, Slack: 0.3, EMU: 0.5, MaxBECores: 8}}
	progress := func(j *Job) float64 { return j.CPUSec }

	acts := s.Tick(0, node, progress)
	if len(acts) != 1 || acts[0].Kind != ActionDispatch {
		t.Fatalf("first tick actions = %+v, want one dispatch", acts)
	}

	acts = s.Kill(id, 10*time.Second, 7.5)
	if len(acts) != 1 || acts[0].Kind != ActionEvict {
		t.Fatalf("Kill actions = %+v, want one evict", acts)
	}
	j, _ := s.Job(id)
	if j.State != JobPending {
		t.Fatalf("job state after first kill = %v, want pending (retry budget remains)", j.State)
	}
	if j.WastedCPUSec != 7.5 {
		t.Fatalf("job wasted CPU = %v, want 7.5 (the accrued time Kill was told about)", j.WastedCPUSec)
	}
	a := s.Accounting()
	if a.WastedCPUSec != 7.5 || a.Evictions != 1 {
		t.Fatalf("accounting after kill = wasted %v evictions %d, want 7.5 and 1", a.WastedCPUSec, a.Evictions)
	}

	// Killing a job that is not running does nothing.
	if acts := s.Kill(id, 11*time.Second, 3); acts != nil {
		t.Fatalf("Kill on a pending job returned %+v, want nil", acts)
	}
	if acts := s.Kill(999, 11*time.Second, 3); acts != nil {
		t.Fatalf("Kill on an unknown id returned %+v, want nil", acts)
	}

	// Redispatch after the evict backoff, then kill again: the retry
	// budget is spent, the job fails.
	acts = s.Tick(2*time.Minute, node, progress)
	if len(acts) != 1 || acts[0].Kind != ActionDispatch {
		t.Fatalf("redispatch actions = %+v, want one dispatch", acts)
	}
	acts = s.Kill(id, 3*time.Minute, 2.5)
	if len(acts) != 1 || acts[0].Kind != ActionFail {
		t.Fatalf("second kill actions = %+v, want one fail", acts)
	}
	j, _ = s.Job(id)
	if j.State != JobFailed {
		t.Fatalf("job state after budget spent = %v, want failed", j.State)
	}
	a = s.Accounting()
	if a.WastedCPUSec != 10 || a.Failed != 1 {
		t.Fatalf("final accounting = wasted %v failed %d, want 10 and 1", a.WastedCPUSec, a.Failed)
	}
}
