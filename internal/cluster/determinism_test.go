package cluster

import (
	"reflect"
	"testing"
	"time"

	"heracles/internal/scenario"
	"heracles/internal/sched"
)

// TestRootMeanIgnoresSeed: the root's fan-out latency is an integral over
// the leaves' latency statistics, so a run with no seeded input — scripted
// BE tasks, a fixed trace — is the same run under any seed, root values
// included. The seed still reaches what draws from it: under the random
// placement policy it moves the final job table.
func TestRootMeanIgnoresSeed(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.DynamicLeafTargets = true // the root mean feeds back into the leaves
	tr := flatTrace(0.5, 4*time.Minute)
	ref := Run(cfg, tr)
	if last := ref.Epochs[len(ref.Epochs)-1]; last.RootMean <= 0 {
		t.Fatalf("no root latency in the last epoch: %+v", last)
	}
	for _, d := range []uint64{1, 2, 8} {
		other := cfg
		other.Seed += d
		if got := Run(other, tr); !reflect.DeepEqual(ref.Epochs, got.Epochs) {
			t.Fatalf("seed %d: epochs differ from seed %d", other.Seed, cfg.Seed)
		}
	}

	horizon := 6 * time.Minute
	sc := scenario.Scenario{Name: "seeded-placement", Duration: horizon, Load: scenario.Flat(0.35)}
	placed := func(seed uint64) []sched.Job {
		c := schedConfig(t, sched.Random{}, schedJobs(10, horizon))
		c.Seed = seed
		_, jobs := runWithJobs(t, c, sc)
		return jobs
	}
	if reflect.DeepEqual(placed(1), placed(2)) {
		t.Fatal("the random policy places identically under two seeds: Config.Seed no longer reaches the scheduler")
	}
}
