package cluster

import (
	"testing"
	"time"

	"heracles/internal/scenario"
	"heracles/internal/slo"
)

// budgetCrowd saturates the cluster behind a degraded dependency long
// enough to fire the fast-burn page on every leaf.
func budgetCrowd(d time.Duration) scenario.Scenario {
	return scenario.Scenario{
		Name:     "budget-crowd",
		Duration: d,
		Load: scenario.Sum(
			scenario.Flat(0.40),
			scenario.FlashCrowd{Start: 2 * time.Minute, Rise: 30 * time.Second,
				Hold: 15 * time.Minute, Fall: 30 * time.Second, Amp: 0.6},
		),
		Events: []scenario.Event{
			scenario.Degrade(150*time.Second, scenario.AllLeaves, 1.3),
			scenario.Degrade(16*time.Minute, scenario.AllLeaves, 1),
		},
	}
}

// TestClusterBudgetReport: a run with Config.Budget carries the full
// error-budget accounting — per-leaf and cluster-wide status plus every
// alert edge.
func TestClusterBudgetReport(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.Budget = &slo.Config{}
	res := RunScenario(cfg, budgetCrowd(20*time.Minute))
	if res.Budget == nil {
		t.Fatal("Result.Budget missing on a budget-tracking run")
	}
	if len(res.Budget.Nodes) != 4 {
		t.Fatalf("budget report covers %d leaves, want 4", len(res.Budget.Nodes))
	}
	if res.Budget.Cluster.Violations == 0 || res.Budget.Cluster.BudgetSpent <= 0 {
		t.Fatalf("crowd spent no budget: %+v", res.Budget.Cluster)
	}
	var pageFired bool
	for _, tr := range res.Budget.Transitions {
		if tr.Node == -1 && tr.Alert == slo.AlertPage && tr.Firing {
			pageFired = true
		}
	}
	if !pageFired {
		t.Fatalf("cluster page never fired; transitions: %+v", res.Budget.Transitions)
	}

}

// TestClusterBudgetOffByDefault: no Config.Budget, no report.
func TestClusterBudgetOffByDefault(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = true
	res := RunScenario(cfg, budgetCrowd(3*time.Minute))
	if res.Budget != nil {
		t.Fatal("Result.Budget present without Config.Budget")
	}
}
