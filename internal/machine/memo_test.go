package machine_test

import (
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/machine"
	"heracles/internal/scenario"
)

// TestSharedRecordsSolveOncePerEpoch pins what the stage memo buys on the
// baseline arm of a cluster run (BenchmarkMicro/EngineStep/baseline):
// eight LC-only leaves of one engine, on one load that moves every epoch,
// make one solve per stage per epoch between them once warm, and their
// records answer the other leaves. With private records each leaf solves
// every stage every epoch.
func TestSharedRecordsSolveOncePerEpoch(t *testing.T) {
	lab := experiment.DefaultLab()
	eng := engine.New(engine.Config{Nodes: 8, HW: lab.Cfg, LC: lab.LC("websearch"), RootSamples: 1})
	eng.InstallScenario(scenario.Scenario{Name: "ramp", Duration: time.Hour,
		Load: scenario.Ramp{From: 0.3, To: 0.7, End: time.Hour}})
	counts := func() (sum [3]machine.StageCalls) {
		for i := 0; i < eng.Nodes(); i++ {
			f, c, l := eng.Machine(i).ReuseCounts()
			for s, calls := range [3]machine.StageCalls{f, c, l} {
				sum[s].Solved += calls.Solved
				sum[s].Reused += calls.Reused
			}
		}
		return sum
	}
	for range 10 {
		eng.Step()
	}
	before := counts()
	const epochs = 100
	for range epochs {
		eng.Step()
	}
	after := counts()
	for s, stage := range []string{"frequency", "cache", "latency"} {
		solved := after[s].Solved - before[s].Solved
		reused := after[s].Reused - before[s].Reused
		if solved > epochs || reused < 7*epochs {
			t.Errorf("%s stage, %d epochs of 8 leaves: %d solved, %d reused; want at most one solve per epoch",
				stage, epochs, solved, reused)
		}
	}
}
