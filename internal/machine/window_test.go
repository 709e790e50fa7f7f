package machine

import (
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// referenceTail is TailLatency as the 600-slot ring of full Telemetry
// records computed it: the mean tail over the recorded epochs newer than
// now-window, newest first, looking no further back than the ring's depth.
func referenceTail(hist []Telemetry, now, window time.Duration) (time.Duration, bool) {
	if len(hist) > windowDepth {
		hist = hist[len(hist)-windowDepth:]
	}
	if len(hist) == 0 {
		return 0, false
	}
	cutoff := now - window
	var sum float64
	var n int
	for j := len(hist) - 1; j >= 0 && hist[j].Time > cutoff; j-- {
		sum += hist[j].TailLatency.Seconds()
		n++
	}
	if n == 0 {
		return hist[len(hist)-1].TailLatency, true
	}
	return time.Duration(sum / float64(n) * float64(time.Second)), true
}

// TestTailLatencyMatchesFullHistory is the ring-equivalence property: for
// random windows up to (and past) the ring's depth, the two-scalar poll
// ring answers TailLatency bit-identically to a reference computed from
// every Telemetry the machine returned — before the ring wraps, after it
// wraps, after ResetStats, and on a machine restored from a snapshot.
func TestTailLatencyMatchesFullHistory(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.Partition(8)
	rng := sim.NewRNG(14)

	var hist []Telemetry
	run := func(m *Machine, epochs int) {
		for i := 0; i < epochs; i++ {
			m.SetLoad(0.1 + 0.8*rng.Float64()) // a different tail every epoch
			hist = append(hist, m.Step())
		}
	}
	check := func(m *Machine, phase string) {
		t.Helper()
		windows := []time.Duration{0, m.Epoch(), 15 * time.Second, windowDepth * m.Epoch()}
		for i := 0; i < 64; i++ {
			windows = append(windows, time.Duration(rng.Intn(windowDepth+100))*m.Epoch()+time.Duration(rng.Intn(1000))*time.Millisecond)
		}
		for _, w := range windows {
			got, gotOK := m.TailLatency(w)
			want, wantOK := referenceTail(hist, m.Clock().Now(), w)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: TailLatency(%v) = %v, %t; full history gives %v, %t", phase, w, got, gotOK, want, wantOK)
			}
		}
	}
	restore := func(m *Machine) *Machine {
		t.Helper()
		r, err := RestoreMachine(m.Snapshot(),
			func(name string) *workload.LC { return lcs[name] },
			func(name string) *workload.BE { return bes[name] })
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		return r
	}

	check(m, "no epoch yet")
	run(m, 1)
	check(m, "one epoch")
	run(m, 298)
	check(m, "before wrap")
	check(restore(m), "restored before wrap")
	run(m, 2*windowDepth+37)
	check(m, "after wrap")

	r := restore(m)
	check(r, "restored after wrap")
	run(r, 250) // the restored ring wraps at its own head
	check(r, "restored, then stepped")

	m.ResetStats()
	hist = nil
	check(m, "after ResetStats")
	run(m, 20)
	check(m, "refilled after ResetStats")
	check(restore(m), "restored after ResetStats")
}
