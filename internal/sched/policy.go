package sched

import (
	"fmt"

	"heracles/internal/sim"
)

// NodeState is one machine's slack/EMU telemetry as the scheduler sees it
// at a tick — the per-epoch capacity advertisement each Heracles
// controller sends upward.
type NodeState struct {
	// ID identifies the machine; it must be stable across ticks.
	ID int
	// BEAllowed reports whether the machine's controller currently
	// permits best-effort execution. The scheduler never dispatches to a
	// node with BEAllowed false, and evicts from one after a grace.
	BEAllowed bool
	// AdmitHold throttles new placements without touching running jobs:
	// the error-budget engine raises it while the node's fast-burn alert
	// fires (DESIGN.md §15). Unlike !BEAllowed it never evicts — work
	// already placed runs on under the controller's own enablement; the
	// node just stops accepting more until the budget recovers.
	AdmitHold bool
	// Slack is the latency slack (SLO - tail)/SLO of the last epoch.
	Slack float64
	// EMU is the machine's effective utilisation of the last epoch.
	EMU float64
	// Load is the LC offered load fraction.
	Load float64
	// MaxBECores caps the summed core demand of jobs placed on the node.
	MaxBECores int
}

// NodeView augments a NodeState with the scheduler's own bookkeeping; it
// is what policies choose among. Every view handed to a policy is already
// eligible for the job being placed.
type NodeView struct {
	NodeState
	// RunningJobs is the number of scheduler-placed jobs on the node.
	RunningJobs int
	// CommittedCores is the summed core demand of those jobs.
	CommittedCores int
}

// Policy picks a node for one job among eligible candidates. Place
// returns an index into nodes, or -1 to leave the job queued. nodes is
// never empty, is sorted by node id, and contains only eligible machines
// (controller allows BE, demand fits) — eligibility is the scheduler's
// job, placement quality the policy's. Implementations must be
// deterministic given (job, nodes, rng), and given (job, nodes) alone
// when ReadsRNG is false.
type Policy interface {
	Name() string
	Place(job *Job, nodes []NodeView, rng *sim.RNG) int
	// ReadsRNG reports whether Place draws from rng. A scheduler whose
	// policy does not places the same under any seed, so a caller may
	// share one run among seeds (internal/fleet does).
	ReadsRNG() bool
}

// SlackGreedy places each job on the eligible node with the most latency
// slack — the machine whose controller is furthest from its SLO and so
// least likely to park or evict the job. Ties break by node id.
type SlackGreedy struct{}

// Name implements Policy.
func (SlackGreedy) Name() string { return "slack-greedy" }

// ReadsRNG implements Policy: the choice is a function of the views.
func (SlackGreedy) ReadsRNG() bool { return false }

// Place implements Policy.
func (SlackGreedy) Place(_ *Job, nodes []NodeView, _ *sim.RNG) int {
	best := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Slack > nodes[best].Slack {
			best = i
		}
	}
	return best
}

// BinPack consolidates: it places each job on the eligible node with the
// most committed BE cores (filling machines up before opening new ones),
// ties broken by node id. Dense packing maximises how many machines stay
// BE-free but concentrates eviction risk.
type BinPack struct{}

// Name implements Policy.
func (BinPack) Name() string { return "bin-pack" }

// ReadsRNG implements Policy: the choice is a function of the views.
func (BinPack) ReadsRNG() bool { return false }

// Place implements Policy.
func (BinPack) Place(_ *Job, nodes []NodeView, _ *sim.RNG) int {
	best := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].CommittedCores > nodes[best].CommittedCores {
			best = i
		}
	}
	return best
}

// Spread balances: it places each job on the eligible node with the
// fewest committed BE cores (then fewest running jobs, then lowest id).
type Spread struct{}

// Name implements Policy.
func (Spread) Name() string { return "spread" }

// ReadsRNG implements Policy: the choice is a function of the views.
func (Spread) ReadsRNG() bool { return false }

// Place implements Policy.
func (Spread) Place(_ *Job, nodes []NodeView, _ *sim.RNG) int {
	best := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].CommittedCores < nodes[best].CommittedCores ||
			(nodes[i].CommittedCores == nodes[best].CommittedCores &&
				nodes[i].RunningJobs < nodes[best].RunningJobs) {
			best = i
		}
	}
	return best
}

// Random is the baseline: a uniform choice among eligible nodes, blind to
// slack. It measures how much placement quality (as opposed to admission
// control) contributes to goodput.
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// ReadsRNG implements Policy.
func (Random) ReadsRNG() bool { return true }

// Place implements Policy.
func (Random) Place(_ *Job, nodes []NodeView, rng *sim.RNG) int {
	return rng.Intn(len(nodes))
}

// PolicyNames lists the built-in placement policies.
func PolicyNames() []string {
	return []string{"slack-greedy", "bin-pack", "spread", "random"}
}

// PolicyByName resolves a built-in policy.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "slack-greedy":
		return SlackGreedy{}, nil
	case "bin-pack":
		return BinPack{}, nil
	case "spread":
		return Spread{}, nil
	case "random":
		return Random{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want one of %v)", name, PolicyNames())
}
