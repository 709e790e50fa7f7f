package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/scenario"
	"heracles/internal/sched"
)

// policyFleet is the policy-comparison fixture: one four-leaf cluster in
// which two leaves run tightened controller targets (structurally thin
// slack, so their controllers are stingy with BE resources) while the
// cluster's real root latency stays comfortably inside its SLO, plus a
// job stream that oversubscribes BE capacity. Placement quality is the
// only free variable: a slack-blind policy keeps feeding the starved
// leaves while slack-greedy routes work to machines that will actually
// run it.
func policyFleet(seed uint64) Config {
	horizon := 20 * time.Minute
	sc := scenario.Scenario{
		Name:     "tight-leaves",
		Duration: horizon,
		Load:     scenario.Flat(0.55),
		Events: []scenario.Event{
			scenario.SLOScale(0, 1, 0.62),
			scenario.SLOScale(0, 2, 0.70),
		},
	}
	jobs := sched.SyntheticJobs(28, horizon, seed+1, []string{"brain", "streetview"})
	for i := range jobs {
		jobs[i].Demand *= 2
		jobs[i].Work *= 2
	}
	return Config{
		Seed: seed,
		Clusters: []ClusterSpec{{
			Name: "std", HW: hw.DefaultConfig(), Leaves: 4,
			Warmup: 2 * time.Minute, Scenario: sc, Jobs: jobs,
		}},
	}
}

// TestSlackGreedyBeatsRandomGoodput is the acceptance criterion:
// slack-greedy placement must bank at least 10% more BE goodput than the
// random baseline on the same seed, at equal or better LC SLO compliance
// (violation count no worse; worst root window within a 3% band), and
// the comparison must reproduce bit-for-bit.
func TestSlackGreedyBeatsRandomGoodput(t *testing.T) {
	cfg := policyFleet(42)
	res := RunPolicies(cfg, []string{"slack-greedy", "random"})
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	sg, rd := res.Outcomes[0], res.Outcomes[1]
	if sg.Heracles.Sched == nil || rd.Heracles.Sched == nil {
		t.Fatal("missing scheduler accounting")
	}

	// Goodput: higher under slack-aware placement.
	if sg.Heracles.Sched.GoodCPUSec < 1.10*rd.Heracles.Sched.GoodCPUSec {
		t.Fatalf("slack-greedy goodput %.0f cpu-s not >10%% above random %.0f",
			sg.Heracles.Sched.GoodCPUSec, rd.Heracles.Sched.GoodCPUSec)
	}
	// LC SLO compliance: equal or better.
	if sg.Heracles.Violations > rd.Heracles.Violations {
		t.Fatalf("slack-greedy violations %d > random %d",
			sg.Heracles.Violations, rd.Heracles.Violations)
	}
	if sg.Heracles.MaxRootFrac > rd.Heracles.MaxRootFrac+0.03 {
		t.Fatalf("slack-greedy worst root window %.3f above random %.3f + band",
			sg.Heracles.MaxRootFrac, rd.Heracles.MaxRootFrac)
	}
	// Both arms share the paired baseline and stay SLO-compliant.
	if res.Baseline.Violations != 0 || sg.Heracles.Violations != 0 {
		t.Fatalf("fixture regressed into violation: baseline %d, slack-greedy %d",
			res.Baseline.Violations, sg.Heracles.Violations)
	}

	// Reproducibility: the whole comparison is deterministic.
	again := RunPolicies(policyFleet(42), []string{"slack-greedy", "random"})
	if !reflect.DeepEqual(res, again) {
		t.Fatal("policy comparison not reproducible on the same seed")
	}
}

// TestRunPoliciesDeterministicAcrossWorkers extends the fleet's
// worker-count invariance to the policy fan-out.
func TestRunPoliciesDeterministicAcrossWorkers(t *testing.T) {
	cfg := policyFleet(7)
	cfg.Workers = 1
	seq := RunPolicies(cfg, []string{"slack-greedy", "random"})
	cfg = policyFleet(7)
	cfg.Workers = 4
	par := RunPolicies(cfg, []string{"slack-greedy", "random"})
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("policy comparison diverged across worker counts")
	}
}

// TestRunWithJobsCarriesAccounting: the plain fleet entry point honours
// ClusterSpec.Jobs/SchedPolicy and surfaces the aggregate in the
// rendered table.
func TestRunWithJobsCarriesAccounting(t *testing.T) {
	cfg := policyFleet(11)
	cfg.Clusters[0].SchedPolicy = "spread"
	res := Run(cfg)
	if res.Heracles.Sched == nil {
		t.Fatal("Run dropped the scheduler aggregate")
	}
	if res.Baseline.Sched != nil {
		t.Fatal("baseline run grew a scheduler")
	}
	if res.Heracles.Sched.GoodCPUSec <= 0 {
		t.Fatalf("no goodput: %+v", res.Heracles.Sched)
	}
	out := res.String()
	if want := "BE scheduler:"; !strings.Contains(out, want) {
		t.Fatalf("rendered result missing %q:\n%s", want, out)
	}
}

func TestRunPoliciesRejectsUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	RunPolicies(policyFleet(1), []string{"nope"})
}
