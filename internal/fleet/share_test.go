package fleet

import (
	"cmp"
	"reflect"
	"sync/atomic"
	"testing"

	"heracles/internal/cluster"
	"heracles/internal/experiment"
	"heracles/internal/sched"
	"heracles/internal/sim"
	"heracles/internal/tco"
)

// jobsFleet is testFleet with a job stream on each spec and std
// replicated count times: the shape of cmd/fleet's policy mode.
func jobsFleet(count int) Config {
	cfg := testFleet()
	cfg.TCO = tco.Barroso()
	cfg.Clusters[0].Count = count
	for i := range cfg.Clusters {
		c := &cfg.Clusters[i]
		c.Jobs = sched.SyntheticJobs(8, c.Scenario.Duration, 3+uint64(i), []string{"brain", "streetview"})
	}
	return cfg
}

// everyUnit is the reference the fleet's shared runs are checked
// against: it simulates every (instance, arm), one after another, each
// arm under the instance's derived seed.
func everyUnit(cfg Config, policies []string) []cluster.Summary {
	labs, instances := expand(cfg)
	var out []cluster.Summary
	for i, inst := range instances {
		spec := cfg.Clusters[inst.spec]
		seed := sim.DeriveRNG(cfg.Seed, uint64(i)).Uint64()
		out = append(out, runInstance(spec, labs[spec.HW], seed, false, ""))
		for _, p := range policies {
			if len(spec.Jobs) > 0 {
				p = cmp.Or(p, spec.SchedPolicy, "slack-greedy")
			} else {
				p = ""
			}
			out = append(out, runInstance(spec, labs[spec.HW], seed, true, p))
		}
	}
	return out
}

// countRuns counts the cluster runs the fleet makes until the test ends.
func countRuns(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	orig := simulate
	simulate = func(spec ClusterSpec, lab *experiment.Lab, seed uint64, heracles bool, policy string) cluster.Summary {
		n.Add(1)
		return orig(spec, lab, seed, heracles, policy)
	}
	t.Cleanup(func() { simulate = orig })
	return &n
}

// TestSharedRunsMatchEveryRun: Run and RunPolicies, which simulate one
// run per distinct key, equal what running every (instance, arm) gives,
// for every policy, the scripted mode, a repeated policy, one to three
// replicas and one or two workers.
func TestSharedRunsMatchEveryRun(t *testing.T) {
	armSets := [][]string{
		{"slack-greedy"}, {"bin-pack"}, {"spread"}, {"random"},
		sched.PolicyNames(), {"slack-greedy", "slack-greedy"},
	}
	for _, count := range []int{1, 2, 3} {
		for _, workers := range []int{1, 2} {
			scripted := testFleet()
			scripted.TCO = tco.Barroso()
			scripted.Clusters[0].Count = count
			// Run with a job stream: std under its default policy,
			// compact under random.
			jobs := jobsFleet(count)
			jobs.Clusters[1].SchedPolicy = "random"
			for _, cfg := range []Config{scripted, jobs} {
				cfg.Workers = workers
				_, instances := expand(cfg)
				if got, want := Run(cfg), fleetResult(cfg, instances, everyUnit(cfg, []string{""})); !reflect.DeepEqual(got, want) {
					t.Fatalf("Run, count %d, workers %d:\n%+v\nwant\n%+v", count, workers, got, want)
				}
			}

			cfg := jobsFleet(count)
			cfg.Workers = workers
			_, instances := expand(cfg)
			for _, policies := range armSets {
				got := RunPolicies(cfg, policies)
				want := policiesResult(cfg, len(instances), policies, everyUnit(cfg, policies))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("RunPolicies %v, count %d, workers %d:\n%+v\nwant\n%+v", policies, count, workers, got, want)
				}
			}
		}
	}
}

// TestFleetRunCount pins how many clusters a fleet simulates. In the
// shape of cmd/fleet's heavy op (two std replicas and one compact
// cluster under one seed-blind policy) std/1 repeats std/0 in both arms:
// 4 runs for 6 units. Under random each std Heracles arm draws its own
// seed and runs apart, while the baseline arms, which have no scheduler,
// still share: 5.
func TestFleetRunCount(t *testing.T) {
	for _, c := range []struct {
		policies []string
		want     int64
	}{
		{[]string{"slack-greedy"}, 4},
		{[]string{"bin-pack"}, 4},
		{[]string{"random"}, 5},
		{[]string{"slack-greedy", "slack-greedy"}, 4},
		{[]string{"spread", "random"}, 7},
	} {
		n := countRuns(t)
		RunPolicies(jobsFleet(2), c.policies)
		if got := n.Load(); got != c.want {
			t.Errorf("%v: %d runs, want %d", c.policies, got, c.want)
		}
	}
	// The scripted mode: three std replicas and compact, two arms each.
	cfg := testFleet()
	cfg.Clusters[0].Count = 3
	n := countRuns(t)
	Run(cfg)
	if got := n.Load(); got != 4 {
		t.Errorf("Run: %d runs, want 4", got)
	}
}
