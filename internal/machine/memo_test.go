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
// make one solve per stage per epoch between them once warm, and the
// first leaf's epoch record answers the other seven whole. With private
// records each leaf solves every stage every epoch. The lone arm is one machine on its own, whose
// memo is a group of one: its two sockets hand the frequency and cache
// stages equal arguments every epoch, and the second socket is answered
// from the first one's record.
func TestSharedRecordsSolveOncePerEpoch(t *testing.T) {
	const epochs = 100
	lab := experiment.DefaultLab()
	t.Run("engine", func(t *testing.T) {
		eng := engine.New(engine.Config{Nodes: 8, HW: lab.Cfg, LC: lab.LC("websearch"), RootSamples: 1})
		eng.InstallScenario(scenario.Scenario{Name: "ramp", Duration: time.Hour,
			Load: scenario.Ramp{From: 0.3, To: 0.7, End: time.Hour}})
		counts := func() (solved [3]uint64, siblings uint64) {
			for i := 0; i < eng.Nodes(); i++ {
				m := eng.Machine(i)
				f, c, l := m.ReuseCounts()
				for s, calls := range [3]machine.StageCalls{f, c, l} {
					solved[s] += calls.Solved
				}
				siblings += m.SiblingHits()
			}
			return solved, siblings
		}
		for range 10 {
			eng.Step()
		}
		solved0, siblings0 := counts()
		for range epochs {
			eng.Step()
		}
		solved1, siblings1 := counts()
		if n := siblings1 - siblings0; n < 7*epochs {
			t.Errorf("%d epochs of 8 leaves: a sibling's record answered %d leaf epochs, want %d", epochs, n, 7*epochs)
		}
		for s, stage := range []string{"frequency", "cache", "latency"} {
			if n := solved1[s] - solved0[s]; n > epochs {
				t.Errorf("%s stage, %d epochs of 8 leaves: %d solved; want at most one solve per epoch", stage, epochs, n)
			}
		}
	})
	t.Run("lone", func(t *testing.T) {
		m := machine.New(lab.Cfg)
		m.SetLC(lab.LC("websearch"))
		load := func(e int) float64 { return 0.3 + 0.002*float64(e) }
		for e := range 10 {
			m.SetLoad(load(e))
			m.Step()
		}
		f0, c0, _ := m.ReuseCounts()
		for e := range epochs {
			m.SetLoad(load(10 + e))
			m.Step()
		}
		f1, c1, _ := m.ReuseCounts()
		// Each epoch: one frequency solve answers the other socket; one
		// cache solve, whose LC-alone reference is the solve itself,
		// answers the other socket's solve and reference.
		if solved, reused := f1.Solved-f0.Solved, f1.Reused-f0.Reused; solved != epochs || reused != epochs {
			t.Errorf("frequency stage, %d epochs: %d solved, %d reused; want %d and %d", epochs, solved, reused, epochs, epochs)
		}
		if solved, reused := c1.Solved-c0.Solved, c1.Reused-c0.Reused; solved != epochs || reused != 3*epochs {
			t.Errorf("cache stage, %d epochs: %d solved, %d reused; want %d and %d", epochs, solved, reused, epochs, 3*epochs)
		}
	})
}
