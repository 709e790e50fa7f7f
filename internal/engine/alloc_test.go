package engine_test

import (
	"testing"
	"time"

	"heracles/internal/engine"
)

// TestStepDoesNotAllocate pins the engine's zero-allocation stepping
// property: every steady-state Step — scenario evaluation, scheduler
// tick, machine and controller fan-out, root sampling — runs entirely on
// the engine's scratch state. The one per-node buffer that grows with the
// epoch count is the poll ring of 16-byte tail samples, and it stops at
// the depth the node's controller declared — 15 samples, reached in epoch
// 9 — not at the 600 (epoch 505) an undeclared machine doubles up to; the
// long warmup is for the scheduler and the scenario. Mirrors the
// machine-level pin in internal/machine/alloc_test.go, one layer up.
//
// The restored case steps an engine rebuilt from a checkpoint: the root
// sampler's per-leaf scratch is not in the checkpoint, so Restore hands
// back an engine without it and the first Step after it builds it again
// (AllocsPerRun's own warm-up call is that Step).
func TestStepDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("650-epoch warmup")
	}
	configs := []struct {
		name    string
		cfg     engine.Config
		restore bool
	}{
		{"plain", clusterConfig(1, nil), false},
		{"with-sched", clusterConfig(1, testJobs(8)), false},
		{"restored", clusterConfig(1, nil), true},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			sc := testScenario(100 * time.Hour)
			eng := engine.New(tc.cfg)
			defer func() { eng.Close() }()
			eng.InstallScenario(sc)
			for i := 0; i < 650; i++ {
				eng.Step()
			}
			if tc.restore {
				restored, err := engine.Restore(tc.cfg, eng.Snapshot(), &sc)
				if err != nil {
					t.Fatal(err)
				}
				eng.Close()
				eng = restored
			}
			if avg := testing.AllocsPerRun(200, func() {
				eng.Step()
			}); avg != 0 {
				t.Fatalf("steady-state Step allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}
