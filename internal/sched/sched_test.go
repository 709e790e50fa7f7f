package sched

import (
	"reflect"
	"testing"
	"time"

	"heracles/internal/sim"
)

// synthRun is what a synthetic drive leaves behind: every tick's actions
// (copied out of the scheduler's scratch), the final job table and the
// accounting.
type synthRun struct {
	Actions [][]Action
	Jobs    []Job
	Acct    Accounting
}

// driveSynthetic runs a scheduler against a synthetic fleet whose
// BE-allowed bits and slack wobble deterministically with (seed, tick),
// with progress crediting one core-second per demand core per tick. It
// fails the test if any dispatch lands on a node advertising BE disabled.
func driveSynthetic(t *testing.T, cfg Config, seed uint64, nodes, ticks int) synthRun {
	t.Helper()
	s := New(cfg)
	var run synthRun
	for tick := 0; tick < ticks; tick++ {
		now := time.Duration(tick) * time.Second
		states := make([]NodeState, nodes)
		for n := range states {
			r := sim.DeriveRNG(seed, uint64(tick*nodes+n))
			states[n] = NodeState{
				ID:         n,
				BEAllowed:  r.Float64() > 0.3,
				Slack:      r.Float64() * 0.5,
				EMU:        0.4 + r.Float64()*0.5,
				Load:       r.Float64() * 0.8,
				MaxBECores: 8,
			}
		}
		actions := s.Tick(now, states, func(j *Job) float64 {
			return j.CPUSec + float64(j.Spec.Demand)
		})
		run.Actions = append(run.Actions, append([]Action(nil), actions...))
		for _, a := range actions {
			if a.Kind != ActionDispatch {
				continue
			}
			for _, st := range states {
				if st.ID == a.Node && !st.BEAllowed {
					t.Fatalf("tick %d: job %d dispatched to node %d whose controller has BE disabled", tick, a.Job, a.Node)
				}
			}
		}
	}
	run.Jobs, run.Acct = s.Jobs(), s.Accounting()
	return run
}

func testJobs(n int) []JobSpec {
	return SyntheticJobs(n, 5*time.Minute, 7, []string{"brain", "streetview"})
}

// TestTickDeterminism: same seed and inputs must reproduce every tick's
// actions and the final job table bit-for-bit, for every built-in
// policy; a different seed must move the random baseline's actions.
func TestTickDeterminism(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Policy: pol, Jobs: testJobs(24), Seed: 42, EvictGrace: 5 * time.Second}
		a := driveSynthetic(t, cfg, 9, 6, 240)
		b := driveSynthetic(t, cfg, 9, 6, 240)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical runs diverged", name)
		}
		if a.Acct.Dispatches == 0 || a.Acct.Evictions == 0 {
			t.Fatalf("%s: the fixture must both dispatch and evict: %+v", name, a.Acct)
		}
	}

	cfg := Config{Policy: Random{}, Jobs: testJobs(24), Seed: 42, EvictGrace: 5 * time.Second}
	a := driveSynthetic(t, cfg, 9, 6, 240)
	cfg.Seed = 43
	b := driveSynthetic(t, cfg, 9, 6, 240)
	if reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatal("random policy ignores the seed")
	}
}

// TestNoDispatchToDisallowedNode is the invariant at unit level: across
// policies and seeds (driveSynthetic fails the test on violation), and
// explicitly when every node is disabled.
func TestNoDispatchToDisallowedNode(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, _ := PolicyByName(name)
		for seed := uint64(0); seed < 4; seed++ {
			driveSynthetic(t, Config{Policy: pol, Jobs: testJobs(16), Seed: seed, EvictGrace: time.Second}, seed, 5, 120)
		}
		s := New(Config{Policy: pol, Jobs: testJobs(8)})
		nodes := []NodeState{{ID: 0, MaxBECores: 8}, {ID: 1, MaxBECores: 8}}
		actions := s.Tick(10*time.Minute, nodes, func(j *Job) float64 { return 0 })
		if len(actions) != 0 {
			t.Fatalf("%s: dispatched onto an all-disabled fleet: %+v", name, actions)
		}
	}
}

// TestEvictionBackoffAndRetryBudget walks one job through the eviction
// lifecycle: grace, exponential backoff, wasted-CPU accounting, terminal
// failure once the budget is spent.
func TestEvictionBackoffAndRetryBudget(t *testing.T) {
	spec := JobSpec{Name: "j", Workload: "brain", Demand: 2, Work: time.Hour, Retries: 1}
	s := New(Config{Jobs: []JobSpec{spec}, Backoff: 10 * time.Second, EvictGrace: 5 * time.Second})

	allowed := []NodeState{{ID: 3, BEAllowed: true, Slack: 0.3, MaxBECores: 8}}
	disallowed := []NodeState{{ID: 3, BEAllowed: false, Slack: 0.3, MaxBECores: 8}}
	progress := func(j *Job) float64 { return 40 }

	acts := s.Tick(0, allowed, progress)
	if len(acts) != 1 || acts[0].Kind != ActionDispatch || acts[0].Node != 3 {
		t.Fatalf("first tick = %+v, want dispatch to node 3", acts)
	}

	// Disabled below the grace: no eviction yet.
	if acts = s.Tick(2*time.Second, disallowed, progress); len(acts) != 0 {
		t.Fatalf("evicted before the grace: %+v", acts)
	}
	// Past the grace: evicted, 40 cpu-s wasted, requeued with backoff.
	acts = s.Tick(7*time.Second, disallowed, progress)
	if len(acts) != 1 || acts[0].Kind != ActionEvict {
		t.Fatalf("post-grace tick = %+v, want evict", acts)
	}
	j, _ := s.Job(1)
	if j.State != JobPending || j.WastedCPUSec != 40 {
		t.Fatalf("after evict: state=%v wasted=%v", j.State, j.WastedCPUSec)
	}
	if got := s.Accounting().WastedCPUSec; got != 40 {
		t.Fatalf("accounting wasted = %v", got)
	}

	// Still backing off at +5s (backoff 10s from eviction at 7s).
	if acts = s.Tick(12*time.Second, allowed, progress); len(acts) != 0 {
		t.Fatalf("dispatched during backoff: %+v", acts)
	}
	// Redispatch once the backoff expires; the wait is charged as queue
	// delay.
	acts = s.Tick(20*time.Second, allowed, progress)
	if len(acts) != 1 || acts[0].Kind != ActionDispatch {
		t.Fatalf("redispatch = %+v", acts)
	}

	// Second eviction exhausts the budget (Retries = 1).
	s.Tick(21*time.Second, disallowed, progress)
	acts = s.Tick(40*time.Second, disallowed, progress)
	if len(acts) != 1 || acts[0].Kind != ActionFail {
		t.Fatalf("budget exhaustion = %+v, want fail", acts)
	}
	j, _ = s.Job(1)
	if j.State != JobFailed || j.WastedCPUSec != 80 {
		t.Fatalf("after fail: state=%v wasted=%v", j.State, j.WastedCPUSec)
	}
	a := s.Accounting()
	if a.Evictions != 2 || a.Failed != 1 || a.GoodCPUSec != 0 {
		t.Fatalf("accounting = %+v", a)
	}
}

// TestCompletionBanksGoodput: a job that reaches its Work completes and
// its CPU time lands in GoodCPUSec.
func TestCompletionBanksGoodput(t *testing.T) {
	spec := JobSpec{Name: "j", Workload: "brain", Work: 30 * time.Second}
	s := New(Config{Jobs: []JobSpec{spec}})
	nodes := []NodeState{{ID: 0, BEAllowed: true, Slack: 0.4, MaxBECores: 8}}
	s.Tick(0, nodes, func(j *Job) float64 { return 0 })
	acts := s.Tick(time.Second, nodes, func(j *Job) float64 { return 31 })
	if len(acts) != 1 || acts[0].Kind != ActionComplete {
		t.Fatalf("completion = %+v", acts)
	}
	a := s.Accounting()
	if a.Completed != 1 || a.GoodCPUSec != 31 || a.WastedCPUSec != 0 {
		t.Fatalf("accounting = %+v", a)
	}
	if a.GoodputFrac() != 1 {
		t.Fatalf("goodput frac = %v", a.GoodputFrac())
	}
}

// TestPriorityAndCapacity: higher priority dispatches first, and a full
// node admits no further demand.
func TestPriorityAndCapacity(t *testing.T) {
	jobs := []JobSpec{
		{Name: "lo", Workload: "brain", Demand: 4, Work: time.Hour, Priority: 0},
		{Name: "hi", Workload: "brain", Demand: 4, Work: time.Hour, Priority: 5},
		{Name: "mid", Workload: "brain", Demand: 4, Work: time.Hour, Priority: 2},
	}
	s := New(Config{Jobs: jobs})
	nodes := []NodeState{{ID: 0, BEAllowed: true, Slack: 0.4, MaxBECores: 8}}
	acts := s.Tick(0, nodes, func(j *Job) float64 { return 0 })
	if len(acts) != 2 {
		t.Fatalf("dispatches = %+v, want exactly two (8 cores / demand 4)", acts)
	}
	if acts[0].Job != 2 || acts[1].Job != 3 {
		t.Fatalf("dispatch order = %+v, want hi (job 2) then mid (job 3)", acts)
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1 (lo waiting)", s.QueueDepth())
	}
}

// TestCancelRunningJobCountsWaste: cancellation is terminal and the
// discarded CPU time is charged as waste.
func TestCancelRunningJobCountsWaste(t *testing.T) {
	s := New(Config{Jobs: []JobSpec{{Name: "j", Workload: "brain", Work: time.Hour}}})
	nodes := []NodeState{{ID: 0, BEAllowed: true, Slack: 0.4, MaxBECores: 8}}
	s.Tick(0, nodes, func(j *Job) float64 { return 0 })
	if !s.Cancel(1, 5*time.Second, 12) {
		t.Fatal("cancel refused")
	}
	j, _ := s.Job(1)
	if j.State != JobCancelled || j.WastedCPUSec != 12 {
		t.Fatalf("after cancel: %+v", j)
	}
	if s.Cancel(1, 6*time.Second, 0) {
		t.Fatal("cancel of a terminal job succeeded")
	}
	a := s.Accounting()
	if a.Cancelled != 1 || a.WastedCPUSec != 12 {
		t.Fatalf("accounting = %+v", a)
	}
}

// TestAbortRefundsAttempt: an executor-refused dispatch does not charge
// the retry budget; the dispatch counter stays monotonic (Prometheus
// counters must never decrease) with the refusal counted separately.
func TestAbortRefundsAttempt(t *testing.T) {
	s := New(Config{Jobs: []JobSpec{{Name: "j", Workload: "brain", Work: time.Hour}}, Backoff: 5 * time.Second})
	nodes := []NodeState{{ID: 0, BEAllowed: true, Slack: 0.4, MaxBECores: 8}}
	s.Tick(0, nodes, func(j *Job) float64 { return 0 })
	s.Abort(1, 0)
	j, _ := s.Job(1)
	if j.State != JobPending || j.Attempts != 0 {
		t.Fatalf("after abort: %+v", j)
	}
	if a := s.Accounting(); a.Dispatches != 1 || a.Aborted != 1 {
		t.Fatalf("accounting after abort = %+v", a)
	}
}

// TestBackoffShiftNeverOverflows: huge retry budgets must not shift the
// backoff past the duration range (a negative backoff would abolish
// backoff entirely).
func TestBackoffShiftNeverOverflows(t *testing.T) {
	spec := JobSpec{Name: "j", Workload: "brain", Work: time.Hour, Retries: 1 << 20}
	s := New(Config{Jobs: []JobSpec{spec}, Backoff: 30 * time.Second, EvictGrace: time.Second})
	allowed := []NodeState{{ID: 0, BEAllowed: true, Slack: 0.3, MaxBECores: 8}}
	disallowed := []NodeState{{ID: 0, MaxBECores: 8}}
	progress := func(j *Job) float64 { return 0 }
	now := time.Duration(0)
	for i := 0; i < 80; i++ { // far past the 63-bit shift horizon
		now += 10 * time.Minute
		s.Tick(now, allowed, progress) // redispatch
		now += 10 * time.Minute
		s.Tick(now, disallowed, progress) // grace clock starts
		now += 10 * time.Minute
		s.Tick(now, disallowed, progress) // evicted past the grace
	}
	j, _ := s.Job(1)
	if j.ReadyAt < now || j.ReadyAt > now+8*30*time.Second {
		t.Fatalf("backoff escaped its cap: ReadyAt=%v now=%v attempts=%d", j.ReadyAt, now, j.Attempts)
	}
	if j.Attempts < 70 {
		t.Fatalf("fixture did not reach high attempt counts: %d", j.Attempts)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSyntheticJobsDeterministic(t *testing.T) {
	a := SyntheticJobs(32, 30*time.Minute, 11, []string{"brain", "streetview"})
	b := SyntheticJobs(32, 30*time.Minute, 11, []string{"brain", "streetview"})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SyntheticJobs not deterministic")
	}
	c := SyntheticJobs(32, 30*time.Minute, 12, []string{"brain", "streetview"})
	if reflect.DeepEqual(a, c) {
		t.Fatal("SyntheticJobs ignores the seed")
	}
	for i, s := range a {
		if s.Work <= 0 || s.Demand < 1 || s.Submit < 0 || s.Submit > 30*time.Minute {
			t.Fatalf("job %d out of range: %+v", i, s)
		}
		if i > 0 && a[i-1].Submit > s.Submit {
			t.Fatalf("jobs not in submission order at %d", i)
		}
	}
}
