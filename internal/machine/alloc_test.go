package machine

import (
	"testing"

	"heracles/internal/hw"
	"heracles/internal/workload"
)

// TestStepSteadyStateAllocFree pins the property the artefact pipeline's
// throughput depends on: once the poll ring has filled, Machine.Step
// performs zero heap allocations per epoch. The ring is the one buffer
// that grows with the epoch count, by doubling up to its depth; nobody
// declares for these machines, so that is 600 epochs (last growth in
// epoch 505) — under a controller it ends at the declared 15.
func TestStepSteadyStateAllocFree(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.SetLoad(0.5)
	m.Partition(12)
	// Prime scratch buffers and fill the history ring.
	for i := 0; i < 620; i++ {
		m.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { m.Step() }); avg != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects per epoch, want 0", avg)
	}

	// Alternating between two allocations every epoch makes the epoch
	// record (which answers the plain steps above) and every reused stage
	// miss and store a new key each time; the records reuse the buffers
	// the first few misses grew. The uneven split makes the two sockets
	// differ, so every record is in play.
	flip := 0
	churn := func() {
		flip ^= 1
		m.Partition(7 + 4*flip)
		m.PartitionWays(2 + 6*flip)
		m.Step()
	}
	for i := 0; i < 20; i++ {
		churn()
	}
	if avg := testing.AllocsPerRun(200, churn); avg != 0 {
		t.Fatalf("Step under reuse churn allocates %.1f objects per epoch, want 0", avg)
	}
}

// TestStepAllocFreeAfterActuation verifies the controller's actuators
// (repartitioning cores/ways, DVFS and HTB changes) do not re-introduce
// steady-state allocations.
func TestStepAllocFreeAfterActuation(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["streetview"], workload.PlaceDedicated)
	m.SetLoad(0.6)
	for i := 0; i < 620; i++ {
		m.Step()
	}
	if avg := testing.AllocsPerRun(100, func() {
		m.SetBECores(8)
		m.SetBEWays(4)
		m.SetBEFreqCap(2.0)
		m.SetBETxCeil(0.5)
		m.Step()
	}); avg != 0 {
		t.Fatalf("Step with actuation allocates %.1f objects per epoch, want 0", avg)
	}
}

// TestTelemetryRingWraps exercises the ring past its capacity — the depth
// its reader declared, or 600 epochs when nobody has — and checks the
// windowed controller poll still sees the newest epochs.
func TestTelemetryRingWraps(t *testing.T) {
	lcs, _ := calibrated(t)
	for _, tc := range ringCases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(hw.DefaultConfig(), WithEpoch(tc.epoch))
			m.SetLC(lcs["websearch"])
			m.SetLoad(0.3)
			if tc.declared > 0 {
				m.KeepTailHistory(tc.declared)
			}
			for i := 0; i < tc.depth+100; i++ {
				m.Step()
			}
			rec := m.Snapshot().Window
			if len(rec) != tc.depth {
				t.Fatalf("ring holds %d epochs, want %d", len(rec), tc.depth)
			}
			for i := 1; i < len(rec); i++ {
				if rec[i].Time <= rec[i-1].Time {
					t.Fatalf("ring order broken: %v then %v", rec[i-1].Time, rec[i].Time)
				}
			}
			if rec[len(rec)-1].Time != m.Clock().Now() {
				t.Fatalf("newest ring entry at %v, clock at %v", rec[len(rec)-1].Time, m.Clock().Now())
			}
			tail, ok := m.TailLatency(tc.declared)
			if !ok || tail <= 0 {
				t.Fatalf("windowed tail after wrap = %v, %v", tail, ok)
			}
			m.ResetStats()
			if len(m.Snapshot().Window) != 0 {
				t.Fatal("reset did not clear wrapped ring")
			}
			// Refill after reset reuses the ring slots.
			m.Step()
			if len(m.Snapshot().Window) != 1 {
				t.Fatal("ring refill after reset broken")
			}
		})
	}
}
