package machine

import (
	"math"
	"testing"

	"heracles/internal/hw"
	"heracles/internal/workload"
)

// TestBETaskAccruesCPUSeconds pins the scheduler's progress currency: a
// dedicated BE task accrues busy core-seconds equal to cores x time while
// enabled, and nothing while parked.
func TestBETaskAccruesCPUSeconds(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.SetLoad(0.3)
	be := m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.Partition(4)

	for range 10 {
		m.Step()
	}
	want := 4.0 * 10
	if math.Abs(be.CPUSec-want) > 1e-9 {
		t.Fatalf("CPUSec after 10s on 4 cores = %v, want %v", be.CPUSec, want)
	}

	// Parked tasks accrue nothing.
	m.DisableBE()
	for range 5 {
		m.Step()
	}
	if math.Abs(be.CPUSec-want) > 1e-9 {
		t.Fatalf("CPUSec grew while parked: %v", be.CPUSec)
	}

	// Re-enabled tasks resume from where they stopped.
	m.EnableBE()
	for range 5 {
		m.Step()
	}
	want += 4.0 * 5
	if math.Abs(be.CPUSec-want) > 1e-9 {
		t.Fatalf("CPUSec after unpark = %v, want %v", be.CPUSec, want)
	}
}

// TestBECPUSecDisposition pins the completed-vs-evicted split on
// telemetry: CompleteBE banks the accrued time as goodput, RemoveBE as
// lost work.
func TestBECPUSecDisposition(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.SetLoad(0.3)
	good := m.AddBE(bes["brain"], workload.PlaceDedicated)
	lost := m.AddBE(bes["streetview"], workload.PlaceDedicated)
	m.Partition(4) // two cores each

	for range 8 {
		m.Step()
	}
	goodCPU, lostCPU := good.CPUSec, lost.CPUSec
	if goodCPU <= 0 || lostCPU <= 0 {
		t.Fatalf("no accrual: %v / %v", goodCPU, lostCPU)
	}

	m.CompleteBE(good)
	m.RemoveBE(lost)
	tel := m.Step()
	if math.Abs(tel.BEGoodCPUSec-goodCPU) > 1e-9 {
		t.Fatalf("BEGoodCPUSec = %v, want %v", tel.BEGoodCPUSec, goodCPU)
	}
	if math.Abs(tel.BELostCPUSec-lostCPU) > 1e-9 {
		t.Fatalf("BELostCPUSec = %v, want %v", tel.BELostCPUSec, lostCPU)
	}

	// Detaching an already-removed task must not double-count.
	m.RemoveBE(lost)
	tel = m.Step()
	if math.Abs(tel.BELostCPUSec-lostCPU) > 1e-9 {
		t.Fatalf("double-counted eviction: %v", tel.BELostCPUSec)
	}
}
