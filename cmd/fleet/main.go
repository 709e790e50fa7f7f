// Command fleet runs the fleet-scale scenario experiment: a mix of
// hardware generations, each cluster riding its own composed load shape
// (diurnal base, flash-crowd spike) with best-effort churn and a mid-run
// latency-target change, evaluated baseline vs Heracles and priced with
// the §5.3 TCO model.
//
// With -policy, best-effort work arrives as a job stream instead of the
// static brain/streetview split: a deterministic synthetic batch of -jobs
// jobs per cluster is dispatched by the named placement policy
// (slack-greedy, bin-pack, spread, random; comma-separate to compare
// several), and the output gains the scheduler's goodput-vs-wasted BE
// CPU accounting. Arms are paired: the same -seed reproduces the same
// job stream and per-cluster scheduler streams for every policy, so
// `fleet -policy slack-greedy` vs `fleet -policy random` is an
// apples-to-apples placement-quality comparison.
//
// -std 0 or -compact 0 leaves that generation out. A negative count,
// -leaves, -minutes or -jobs, an unknown policy, or no cluster at all
// prints one line to stderr and exits 2.
//
// Usage:
//
//	fleet [-minutes 30] [-std 2] [-compact 1] [-leaves 8] [-seed 42]
//	      [-workers 0] [-policy slack-greedy,random] [-jobs 32]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"heracles/internal/fleet"
	"heracles/internal/hw"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the result table to stdout
// and returns the exit status. A bad flag value prints one line to
// stderr and returns 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	minutes := fs.Float64("minutes", 30, "scenario duration in simulated minutes")
	stdN := fs.Int("std", 2, "clusters of the reference dual-socket generation (0 = none)")
	compactN := fs.Int("compact", 1, "clusters of the compact single-socket generation (0 = none)")
	leaves := fs.Int("leaves", 8, "leaf servers per cluster")
	seed := fs.Uint64("seed", 42, "random seed (diurnal noise, the synthetic job stream, per-cluster scheduler streams)")
	workers := fs.Int("workers", 0, "concurrent cluster runs (0 = GOMAXPROCS, 1 = sequential)")
	policy := fs.String("policy", "", "BE job scheduler placement policy (comma-separate to compare; empty = scripted BE, no scheduler)")
	jobsN := fs.Int("jobs", 32, "synthetic BE jobs per cluster when -policy is set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "fleet: "+format+"\n", a...)
		return 2
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"minutes", *minutes}, {"std", float64(*stdN)}, {"compact", float64(*compactN)},
		{"leaves", float64(*leaves)}, {"jobs", float64(*jobsN)},
	} {
		if f.value < 0 {
			return usage("-%s must not be negative", f.name)
		}
	}
	if *stdN == 0 && *compactN == 0 {
		return usage("-std and -compact are both 0: no cluster to run")
	}
	var policies []string
	if *policy != "" {
		policies = strings.Split(*policy, ",")
		for _, p := range policies {
			if _, err := sched.PolicyByName(p); err != nil {
				return usage("-policy: %v", err)
			}
		}
	}

	dur := time.Duration(*minutes * float64(time.Minute))
	warmup := dur / 6

	// The reference generation rides a diurnal curve with a flash crowd
	// at two-thirds of the horizon, while brain departs for a nightly
	// rebuild and returns. Brain lives on the even leaves (the §5.3
	// half-and-half split), so the churn targets exactly those.
	stdEvents := make([]scenario.Event, 0, *leaves+1)
	for i := 0; i < *leaves; i += 2 {
		stdEvents = append(stdEvents,
			scenario.BEDepart(dur/4, i, "brain"),
			scenario.BEArrive(dur/2, i, "brain"))
	}
	std := scenario.Scenario{
		Name:     "diurnal+flashcrowd",
		Duration: dur,
		Load: scenario.Clamp(scenario.Sum(
			scenario.Diurnal(trace.DiurnalConfig{
				Duration: dur, Step: time.Second,
				MinLoad: 0.20, MaxLoad: 0.60, Seed: *seed,
			}),
			// The crowd peaks above the controller's LoadDisable threshold
			// (0.85), so Heracles parks every BE task for its duration —
			// the §5.2 "load changes" response.
			scenario.FlashCrowd{
				Start: dur * 2 / 3,
				Rise:  dur / 12, Hold: dur / 20, Fall: dur / 15,
				Amp: 0.30,
			},
			// Clamp below the 95%-load point the root SLO is calibrated
			// at: the cluster is provisioned for its crest.
		), 0, 0.88),
		Events: stdEvents,
	}

	// The compact generation sees stepped load-target changes (§5.2) and
	// a mid-run SLO tightening; it starts from a conservative leaf target
	// and lets the centralized root controller harvest slack.
	compact := scenario.Scenario{
		Name:     "steps+retarget",
		Duration: dur,
		Load: scenario.Steps{
			{At: 0, Load: 0.30},
			{At: dur / 3, Load: 0.45},
			{At: dur * 3 / 4, Load: 0.35},
		},
		Events: []scenario.Event{
			scenario.BEDepart(dur/3, scenario.AllLeaves, "streetview"),
			// Tighten every leaf's latency target mid-run; with
			// DynamicLeafTargets on, this re-anchors the root
			// controller's working scale.
			scenario.SLOScale(dur/2, scenario.AllLeaves, 0.60),
			scenario.BEArrive(dur*2/3, scenario.AllLeaves, "streetview"),
			scenario.LoadScale(dur*5/6, 1.1),
		},
	}

	cfg := fleet.Config{
		Seed:    *seed,
		Workers: *workers,
		Clusters: []fleet.ClusterSpec{
			{
				Name: "std", Count: *stdN,
				HW: hw.DefaultConfig(), Leaves: *leaves,
				Warmup: warmup, Scenario: std,
			},
			{
				Name: "compact", Count: *compactN,
				HW: hw.CompactConfig(), Leaves: *leaves,
				LeafTargetFrac: 0.65, DynamicLeafTargets: true,
				Warmup: warmup, Scenario: compact,
			},
		},
	}

	if policies == nil {
		fmt.Fprint(stdout, fleet.Run(dropEmpty(cfg)).String())
		return 0
	}

	// Scheduler mode: the BE source is a deterministic synthetic job
	// stream per cluster spec (same -seed, same jobs), and the scripted
	// brain/streetview churn above no longer applies — the scheduler owns
	// BE lifecycle, so the churn events are dropped to keep the
	// comparison about placement alone.
	for ci := range cfg.Clusters {
		events := cfg.Clusters[ci].Scenario.Events[:0]
		for _, ev := range cfg.Clusters[ci].Scenario.Events {
			if ev.Kind != scenario.EventBEArrive && ev.Kind != scenario.EventBEDepart {
				events = append(events, ev)
			}
		}
		cfg.Clusters[ci].Scenario.Events = events
		cfg.Clusters[ci].Jobs = sched.SyntheticJobs(*jobsN, dur, *seed+uint64(ci), []string{"brain", "streetview"})
	}
	fmt.Fprint(stdout, fleet.RunPolicies(dropEmpty(cfg), policies).String())
	return 0
}

// dropEmpty removes the generations asked for zero clusters, after the
// job streams are drawn, so a generation's jobs do not depend on which
// others run.
func dropEmpty(cfg fleet.Config) fleet.Config {
	cfg.Clusters = slices.DeleteFunc(cfg.Clusters, func(s fleet.ClusterSpec) bool { return s.Count == 0 })
	return cfg
}
