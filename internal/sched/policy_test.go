package sched

import (
	"testing"

	"heracles/internal/sim"
)

// TestPolicyReadsRNG holds each policy to what ReadsRNG says: over
// seeded random candidate sets (coarse values, so ties occur), a policy
// that does not read its RNG picks the same node under two unrelated
// streams, and random, the one policy that does, picks differently
// somewhere.
func TestPolicyReadsRNG(t *testing.T) {
	job := &Job{Spec: JobSpec{Name: "j", Workload: "brain", Demand: 2}}
	for _, name := range PolicyNames() {
		pol, _ := PolicyByName(name)
		if pol.ReadsRNG() != (name == "random") {
			t.Errorf("%s: ReadsRNG = %v", name, pol.ReadsRNG())
		}
		a, b := sim.NewRNG(1), sim.NewRNG(2)
		differ := false
		for set := range 500 {
			r := sim.DeriveRNG(99, uint64(set))
			nodes := make([]NodeView, 1+r.Intn(8))
			for i := range nodes {
				nodes[i] = NodeView{
					NodeState: NodeState{
						ID: 3*i + r.Intn(3), BEAllowed: true,
						Slack: float64(r.Intn(4)) / 10, EMU: float64(r.Intn(4)) / 4,
						Load: float64(r.Intn(4)) / 4, MaxBECores: 24,
					},
					RunningJobs:    r.Intn(3),
					CommittedCores: r.Intn(4),
				}
			}
			pa, pb := pol.Place(job, nodes, a), pol.Place(job, nodes, b)
			if pa != pb {
				differ = true
				if !pol.ReadsRNG() {
					t.Fatalf("%s: set %d placed on %d and %d under two streams", name, set, pa, pb)
				}
			}
		}
		if pol.ReadsRNG() && !differ {
			t.Errorf("%s: every placement equal under two streams", name)
		}
	}
}
