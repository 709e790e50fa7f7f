package fleet

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"heracles/internal/cluster"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/tco"
	"heracles/internal/trace"
)

// testFleet mirrors the cmd/fleet shape at test scale: two hardware
// generations, a flash-crowd spike on one and BE churn on the other.
func testFleet() Config {
	std := scenario.Scenario{
		Name:     "diurnal-spike",
		Duration: 6 * time.Minute,
		Load: scenario.Clamp(scenario.Sum(
			scenario.Ramp{From: 0.25, To: 0.5, Start: 0, End: 6 * time.Minute},
			scenario.FlashCrowd{Start: 3 * time.Minute, Rise: 20 * time.Second,
				Hold: 40 * time.Second, Fall: 20 * time.Second, Amp: 0.3},
		), 0, 1),
	}
	compact := scenario.Scenario{
		Name:     "churn",
		Duration: 6 * time.Minute,
		Load:     scenario.Steps{{At: 0, Load: 0.3}, {At: 3 * time.Minute, Load: 0.45}},
		Events: []scenario.Event{
			scenario.BEDepart(2*time.Minute, scenario.AllLeaves, "streetview"),
			scenario.BEArrive(4*time.Minute, scenario.AllLeaves, "streetview"),
		},
	}
	return Config{
		Seed: 11,
		Clusters: []ClusterSpec{
			{
				Name: "std", HW: hw.DefaultConfig(), Leaves: 3,
				Warmup: 90 * time.Second, Scenario: std,
			},
			{
				// The compact generation runs structurally closer to its
				// root SLO (fewer cores flatten the latency/load curve), so
				// it starts from a conservative leaf target and lets the
				// §5.3 centralized controller harvest slack dynamically.
				Name: "compact", HW: hw.CompactConfig(), Leaves: 2,
				LeafTargetFrac: 0.65, DynamicLeafTargets: true,
				Warmup: 90 * time.Second, Scenario: compact,
			},
		},
	}
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	// The acceptance invariant: a mixed-hardware fleet with a flash-crowd
	// spike and BE churn is bit-identical for any worker count.
	cfg := testFleet()
	cfg.Workers = 1
	seq := Run(cfg)
	cfg.Workers = 4
	par := Run(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fleet run diverged across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFanOutStartsLongestFirst pins the dispatch order of the fleet's
// fan-out: every Heracles arm before any baseline, and within each the
// larger cluster (leaves × cores) first, index order among equals.
func TestFanOutStartsLongestFirst(t *testing.T) {
	cfg := testFleet() // std: 3 leaves × 36 cores; compact: 2 leaves × 16 cores
	cfg.Clusters[1].Count = 2
	_, instances := expand(cfg) // std, compact/0, compact/1
	for _, c := range []struct {
		stride int
		want   []int
	}{
		{2, []int{1, 3, 5, 0, 2, 4}},
		{3, []int{1, 2, 4, 5, 7, 8, 0, 3, 6}}, // two policy arms
	} {
		if got := longestFirst(cfg, instances, c.stride); !slices.Equal(got, c.want) {
			t.Errorf("stride %d: order %v, want %v", c.stride, got, c.want)
		}
	}
}

func TestFleetHeraclesLiftsUtilisation(t *testing.T) {
	res := Run(testFleet())
	if len(res.Clusters) != 2 {
		t.Fatalf("cluster outcomes = %d", len(res.Clusters))
	}
	if res.Heracles.MeanEMU <= res.Baseline.MeanEMU+0.1 {
		t.Fatalf("fleet EMU lift too small: %.3f -> %.3f",
			res.Baseline.MeanEMU, res.Heracles.MeanEMU)
	}
	if res.Heracles.Violations != 0 {
		t.Fatalf("heracles fleet violations = %d", res.Heracles.Violations)
	}
	if res.Gain <= 0 {
		t.Fatalf("throughput/TCO gain = %v", res.Gain)
	}
	if res.HeraclesTCO <= res.BaselineTCO {
		t.Fatalf("TCO should rise with utilisation (more energy): %v vs %v",
			res.HeraclesTCO, res.BaselineTCO)
	}
	// Zero-value TCO params selected the Barroso defaults.
	if res.TCO != tco.Barroso() {
		t.Fatalf("TCO params = %+v", res.TCO)
	}
	out := res.String()
	for _, want := range []string{"std", "compact", "fleet", "throughput/TCO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, out)
		}
	}
}

// TestFleetSeedMatters: the root's fan-out latency is an integral, not a
// sample mean, so a fleet in which nothing draws random numbers is the
// same fleet under any seed — and every input that does draw still moves
// the result, one assertion per consumer, so that a seed that stops
// arriving somewhere fails here.
func TestFleetSeedMatters(t *testing.T) {
	cfg := testFleet()
	ref := Run(cfg)
	cfg.Seed++
	if got := Run(cfg); !reflect.DeepEqual(ref, got) {
		t.Fatalf("a fleet with no seeded input changed with the seed:\n%+v\nvs\n%+v", ref, got)
	}

	// Config.Seed reaches the scheduler of every instance: the random
	// policy places differently, the slack-driven one does not draw.
	policies := []string{"random", "slack-greedy"}
	base, reseeded := policyFleet(42), policyFleet(42)
	reseeded.Seed++
	a, b := RunPolicies(base, policies), RunPolicies(reseeded, policies)
	if reflect.DeepEqual(a.Outcomes[0], b.Outcomes[0]) {
		t.Fatal("the random policy ignores Config.Seed")
	}
	if !reflect.DeepEqual(a.Outcomes[1], b.Outcomes[1]) {
		t.Fatal("slack-greedy placement changed with Config.Seed")
	}

	// The seeded inputs a caller composes into a spec.
	std := func(mutate func(*ClusterSpec)) cluster.Summary {
		c := testFleet()
		c.Clusters = c.Clusters[:1]
		mutate(&c.Clusters[0])
		return Run(c).Clusters[0].Heracles
	}
	dur := testFleet().Clusters[0].Scenario.Duration
	for _, input := range []struct {
		name string
		with func(seed uint64) func(*ClusterSpec)
	}{
		{"diurnal noise", func(seed uint64) func(*ClusterSpec) {
			return func(s *ClusterSpec) {
				s.Scenario.Load = scenario.Diurnal(trace.DiurnalConfig{
					Duration: dur, Step: time.Second, MinLoad: 0.2, MaxLoad: 0.6, Seed: seed})
			}
		}},
		{"synthetic jobs", func(seed uint64) func(*ClusterSpec) {
			return func(s *ClusterSpec) {
				s.Jobs = sched.SyntheticJobs(8, dur, seed, []string{"brain", "streetview"})
			}
		}},
		{"fault schedule", func(seed uint64) func(*ClusterSpec) {
			return func(s *ClusterSpec) {
				s.Faults = fault.Generate(fault.GenConfig{
					Seed: seed, Nodes: s.Leaves, Horizon: dur, Crashes: 2, Slowdowns: 2}).Faults
			}
		}},
	} {
		if reflect.DeepEqual(std(input.with(1)), std(input.with(2))) {
			t.Fatalf("%s: two seeds, one result", input.name)
		}
	}
}

func TestFleetReplicasAndDefaults(t *testing.T) {
	cfg := testFleet()
	cfg.Clusters = cfg.Clusters[:1]
	cfg.Clusters[0].Count = 2
	res := Run(cfg)
	if len(res.Clusters) != 2 {
		t.Fatalf("replica expansion produced %d outcomes", len(res.Clusters))
	}
	if res.Clusters[0].Name != "std/0" || res.Clusters[1].Name != "std/1" {
		t.Fatalf("replica names = %q, %q", res.Clusters[0].Name, res.Clusters[1].Name)
	}
	// Replicas draw distinct seeds, and this spec has nothing that draws:
	// one run answers both (DESIGN.md §7). TestSharedRunsMatchEveryRun
	// runs each replica apart and holds them equal.
	r0, r1 := res.Clusters[0], res.Clusters[1]
	if !reflect.DeepEqual(r0.Baseline, r1.Baseline) || !reflect.DeepEqual(r0.Heracles, r1.Heracles) {
		t.Fatalf("replicas of a spec with no seeded input differ:\n%+v\nvs\n%+v", r0, r1)
	}
	if r0.Baseline.SLO <= 0 || r0.Heracles.MeanRootFrac <= 0 {
		t.Fatalf("replica ran without a root: %+v", r0)
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty fleet did not panic")
		}
	}()
	Run(Config{})
}
