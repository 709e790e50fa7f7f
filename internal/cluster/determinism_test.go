package cluster

import (
	"reflect"
	"testing"
	"time"

	"heracles/internal/scenario"
	"heracles/internal/sched"
)

// Worker-count invariance of the epoch loop is pinned at the engine
// level (internal/engine), which cluster runs are a thin driver over;
// this file keeps the cluster-specific statement about the seed.

// TestRootMeanIgnoresSeed: the root's fan-out latency is an integral over
// the leaves' latency statistics, so a run with no seeded input — scripted
// BE tasks, a fixed trace — is the same run under any seed and any worker
// count, root values included. The seed still reaches what draws from it:
// under the random placement policy it moves the placement log.
func TestRootMeanIgnoresSeed(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.DynamicLeafTargets = true // the root mean feeds back into the leaves
	tr := flatTrace(0.5, 4*time.Minute)
	cfg.Workers = 1
	ref := Run(cfg, tr)
	if last := ref.Epochs[len(ref.Epochs)-1]; last.RootMean <= 0 {
		t.Fatalf("no root latency in the last epoch: %+v", last)
	}
	for _, workers := range []int{1, 2, 8} {
		other := cfg
		other.Seed += uint64(workers)
		other.Workers = workers
		if got := Run(other, tr); !reflect.DeepEqual(ref.Epochs, got.Epochs) {
			t.Fatalf("seed %d, %d workers: epochs differ from seed %d, 1 worker", other.Seed, workers, cfg.Seed)
		}
	}

	horizon := 6 * time.Minute
	sc := scenario.Scenario{Name: "seeded-placement", Duration: horizon, Load: scenario.Flat(0.35)}
	placed := func(seed uint64) *sched.Report {
		c := schedConfig(t, sched.Random{}, schedJobs(10, horizon))
		c.Seed = seed
		return RunScenario(c, sc).Sched
	}
	if reflect.DeepEqual(placed(1).Decisions, placed(2).Decisions) {
		t.Fatal("the random policy places identically under two seeds: Config.Seed no longer reaches the scheduler")
	}
}
