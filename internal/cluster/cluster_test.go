package cluster

import (
	"sync"
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

var (
	setupOnce sync.Once
	testCfg   Config
)

func baseConfig(t *testing.T) Config {
	t.Helper()
	setupOnce.Do(func() {
		hwc := hw.DefaultConfig()
		testCfg = Config{
			Leaves: 4,
			HW:     hwc,
			LC:     machine.CalibrateLC(hwc, machine.SpecOf(workload.Websearch())),
			Brain:  machine.CalibrateBE(hwc, workload.Brain()),
			SView:  machine.CalibrateBE(hwc, workload.Streetview()),
			Seed:   1,
			Warmup: 2 * time.Minute,
		}
	})
	return testCfg
}

// flatTrace holds one load for d: two points, since a trace steps.
func flatTrace(load float64, d time.Duration) trace.Trace {
	return trace.Trace{{Load: load}, {At: d, Load: load}}
}

func shortTrace() trace.Trace { return flatTrace(0.4, 8*time.Minute) }

func TestBaselineClusterMeetsSLO(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = false
	res := Run(cfg, shortTrace())
	s := res.Summarize()
	if s.Violations != 0 {
		t.Fatalf("baseline cluster violations = %d", s.Violations)
	}
	// Baseline EMU equals load.
	if s.MeanEMU < 0.35 || s.MeanEMU > 0.45 {
		t.Fatalf("baseline EMU = %v, want ~0.4", s.MeanEMU)
	}
}

func TestHeraclesClusterRaisesEMUWithoutViolations(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = true
	res := Run(cfg, shortTrace())
	s := res.Summarize()
	if s.Violations != 0 {
		t.Fatalf("heracles cluster violations = %d (max window %.0f%%)", s.Violations, 100*s.MaxRootFrac)
	}
	if s.MeanEMU < 0.55 {
		t.Fatalf("heracles EMU = %v, want well above the 0.4 baseline", s.MeanEMU)
	}
}

func TestClusterEpochAccounting(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = false
	tr := flatTrace(0.3, 3*time.Minute)
	res := Run(cfg, tr)
	if len(res.Epochs) != 180 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	for _, e := range res.Epochs {
		if e.Load != 0.3 {
			t.Fatalf("epoch load = %v", e.Load)
		}
		if e.RootMean <= 0 {
			t.Fatal("root latency missing")
		}
	}
}

func TestRootLatencyGrowsWithFanout(t *testing.T) {
	// Mean-of-max over more leaves is slower than over fewer (tail at
	// scale, Dean & Barroso): the 8-leaf root must be at least as slow as
	// the 2-leaf root.
	cfg := baseConfig(t)
	small, big := cfg, cfg
	small.Leaves, big.Leaves = 2, 8
	tr := flatTrace(0.5, time.Minute)
	a := Run(small, tr)
	b := Run(big, tr)
	la := a.Epochs[len(a.Epochs)-1].RootMean
	lb := b.Epochs[len(b.Epochs)-1].RootMean
	if lb < la {
		t.Fatalf("fan-out 8 latency %v < fan-out 2 latency %v", lb, la)
	}
}

func TestSummaryWarmupSkipped(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = false
	cfg.Warmup = 2 * time.Minute
	tr := flatTrace(0.4, 4*time.Minute)
	res := Run(cfg, tr)
	s := res.Summarize()
	if s.MeanEMU == 0 {
		t.Fatal("summary empty after warmup skip")
	}
	// A run shorter than the warmup yields an empty summary.
	short := Run(cfg, flatTrace(0.4, time.Minute))
	if got := short.Summarize(); got.MeanEMU != 0 {
		t.Fatalf("short run summary = %+v", got)
	}
}

func TestDynamicLeafTargetsHarvestRootSlack(t *testing.T) {
	// §5.3 (future work implemented here): "a centralized controller that
	// dynamically sets the per-leaf tail latency targets based on slack
	// at the root". Starting from a conservative uniform leaf target, the
	// root-level controller should loosen targets to harvest the root's
	// slack — more EMU than the conservative static target, still with no
	// violations of the cluster SLO.
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.LeafTargetFrac = 0.6 // deliberately conservative
	tr := shortTrace()
	static := Run(cfg, tr).Summarize()
	cfg.DynamicLeafTargets = true
	dynamic := Run(cfg, tr).Summarize()
	if dynamic.Violations != 0 {
		t.Fatalf("dynamic targets violated the SLO %d times (max window %.0f%%)",
			dynamic.Violations, 100*dynamic.MaxRootFrac)
	}
	if dynamic.MeanEMU < static.MeanEMU {
		t.Fatalf("dynamic targets failed to harvest slack: EMU %.3f vs static %.3f",
			dynamic.MeanEMU, static.MeanEMU)
	}
}

func TestDynamicLeafTargetsProtectTightRoot(t *testing.T) {
	// The flip side: when the uniform target already runs the root close
	// to its SLO, the centralized controller tightens leaf targets and
	// buys back margin (lower worst window than static).
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.LeafTargetFrac = 0.9 // deliberately aggressive
	tr := shortTrace()
	static := Run(cfg, tr).Summarize()
	cfg.DynamicLeafTargets = true
	dynamic := Run(cfg, tr).Summarize()
	if dynamic.Violations > static.Violations {
		t.Fatalf("dynamic targets violated more than static: %d vs %d",
			dynamic.Violations, static.Violations)
	}
	if dynamic.MaxRootFrac > static.MaxRootFrac+0.02 {
		t.Fatalf("dynamic targets did not protect the root: worst %.3f vs static %.3f",
			dynamic.MaxRootFrac, static.MaxRootFrac)
	}
}
