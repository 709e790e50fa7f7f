// Schedpolicies: the slack-aware scheduler walkthrough — close the loop
// the paper leaves open in §5.3: each machine's Heracles controller
// advertises its latency slack upward, and a fleet scheduler dispatches
// best-effort jobs onto that slack.
//
// Everything goes through the public facade. A deterministic synthetic
// job batch (SyntheticJobs) oversubscribes the fleet's BE capacity; two
// leaves run tightened latency targets so their controllers are stingy
// with BE resources; RunFleetPolicies then runs one paired arm per
// placement policy — same seeds everywhere — so the goodput spread
// between slack-greedy and the random baseline is attributable to
// placement quality alone.
package main

import (
	"fmt"
	"time"

	"heracles"
)

func main() {
	const horizon = 15 * time.Minute

	// A steady afternoon with two fragile leaves: their controllers
	// defend tightened latency targets (thin slack), so a slack-blind
	// policy that keeps feeding them starves its jobs, while the real
	// root latency stays comfortably inside the SLO.
	sc := heracles.Scenario{
		Name:     "two-fragile-leaves",
		Duration: horizon,
		Load:     heracles.FlatLoad(0.55),
		Events: []heracles.ScenarioEvent{
			heracles.SLOScaleEvent(0, 1, 0.62),
			heracles.SLOScaleEvent(0, 2, 0.70),
		},
	}

	// Deterministic job stream: 24 jobs over the horizon, one to four
	// cores and one to five minutes of CPU work each, brain/streetview
	// mix. Doubling demand and work oversubscribes the four leaves, so
	// placement decisions matter.
	jobs := heracles.SyntheticJobs(24, horizon, 7, []string{"brain", "streetview"})
	for i := range jobs {
		jobs[i].Demand *= 2
		jobs[i].Work *= 2
	}

	cfg := heracles.FleetConfig{
		Seed: 42,
		Clusters: []heracles.FleetClusterSpec{{
			Name: "std", HW: heracles.DefaultHardware(), Leaves: 4,
			Warmup: 2 * time.Minute, Scenario: sc, Jobs: jobs,
		}},
	}

	res := heracles.RunFleetPolicies(cfg, heracles.SchedPolicyNames())
	fmt.Print(res.String())

	fmt.Println("\nWhy slack-greedy wins: eligibility (controller allows BE,")
	fmt.Println("cores fit) is enforced for every policy, so the spread above is")
	fmt.Println("pure placement quality — slack-blind policies park work on")
	fmt.Println("machines whose controllers will not grow it, while slack-greedy")
	fmt.Println("follows the capacity each controller actually advertises.")
}
