package serve

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"heracles/internal/slo"
)

// updateGolden regenerates testdata/metrics.golden instead of comparing:
//
//	go test ./internal/serve -run TestWriteMetricsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// goldenStatuses is a fixed pool that reaches every branch of the
// exposition writer: label values needing each escape, an instance
// without the SLO engine, every health and alert state, and floats that
// format as integers, exponents and non-finite values.
func goldenStatuses() []Status {
	return []Status{
		{
			ID: "i1", State: StateRunning, Epoch: 90210, DroppedEvents: 3,
			Last: EpochUpdate{
				Load: 0.4, TailMs: 9.25, P95Ms: 7.5, SLOMs: 12, Slack: 0.22916666666666666, EMU: 0.875,
				BEEnabled: true, BECores: 12, BEWays: 4, DRAMUtil: 0.31, PowerFracTDP: 0.77, LinkUtil: 1e-7,
			},
			Actions: []ActionCount{{Loop: "core", Action: "grow-cores", Count: 41}, {Loop: "top", Action: "enable-be", Count: 2}},
			SLO: &slo.Status{
				Objective: 0.999, Epochs: 90210, Violations: 17, BudgetSpent: 0.006558641975308642,
				Burn: [slo.NumWindows]float64{14.4, 1, 0.25, 1e-3}, Page: true,
			},
			Health: HealthHealthy,
		},
		{
			ID: "i\"2\\\n", State: StateDone, Epoch: 1 << 53,
			Last:    EpochUpdate{Load: 1e21, Slack: -0.5, EMU: math.Inf(1), TailMs: math.NaN()},
			Actions: []ActionCount{{Loop: "l\"oop", Action: "a\\ct\nion", Count: 1}},
			Health:  HealthQuarantined, Restarts: 5, FaultsInjected: 9,
		},
		{
			ID: "i3", State: StateCrashed,
			Last:   EpochUpdate{Slack: 0.75, EMU: 0.5},
			SLO:    &slo.Status{Objective: 0.99, BudgetSpent: 1.5, Ticket: true},
			Health: HealthDegraded, Restarts: 1,
		},
	}
}

// TestWriteMetricsGolden pins the exposition byte for byte on a fixed
// pool, and on the empty pool (headers and fleet aggregates only).
func TestWriteMetricsGolden(t *testing.T) {
	var got bytes.Buffer
	WriteMetrics(&got, goldenStatuses())
	WriteMetrics(&got, nil)

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition differs from %s (rerun with -update if the change is intended)\ngot:\n%s", path, got.Bytes())
	}
}

// TestWriteMetricsAllocsDoNotGrowWithPool pins the renderer's allocation
// count independent of pool size: one output buffer, nothing per series.
// The pool carries registry-style ids; a label that needs escaping costs
// one string.
func TestWriteMetricsAllocsDoNotGrowWithPool(t *testing.T) {
	pool := func(n int) []Status {
		sts := make([]Status, n)
		for i := range sts {
			sts[i] = goldenStatuses()[0]
			sts[i].ID = "i" + strconv.Itoa(i+1)
		}
		return sts
	}
	small, large := pool(3), pool(300)
	a := testing.AllocsPerRun(20, func() { WriteMetrics(io.Discard, small) })
	b := testing.AllocsPerRun(20, func() { WriteMetrics(io.Discard, large) })
	if a != b || a > 2 {
		t.Fatalf("WriteMetrics allocates %.0f objects for 3 instances and %.0f for 300, want the same small count", a, b)
	}
}
