package machine

import (
	"testing"

	"heracles/internal/hw"
	"heracles/internal/workload"
)

func TestSetDegradeInflatesServiceTime(t *testing.T) {
	cfg := hw.DefaultConfig()
	wl := CalibrateLC(cfg, SpecOf(workload.Websearch()))

	run := func(factor float64) float64 {
		m := New(cfg)
		m.SetLC(wl)
		m.SetLoad(0.4)
		m.SetDegrade(factor)
		var tail float64
		for i := 0; i < 8; i++ {
			tail = m.Step().TailLatency.Seconds()
		}
		return tail
	}

	healthy := run(1)
	slow := run(1.5)
	slower := run(2.0)
	if slow <= healthy {
		t.Fatalf("degrade 1.5x did not slow the LC task: %v vs %v", slow, healthy)
	}
	if slower <= slow {
		t.Fatalf("degrade not monotone: %v (2.0x) vs %v (1.5x)", slower, slow)
	}
	// Factors at or below 1 clear the degradation.
	m := New(cfg)
	m.SetDegrade(1.7)
	m.SetDegrade(0.5)
	if m.degrade != 0 {
		t.Fatalf("degrade not cleared: %v", m.degrade)
	}
}

func TestRemoveBEReturnsCoresToLC(t *testing.T) {
	cfg := hw.DefaultConfig()
	lc := CalibrateLC(cfg, SpecOf(workload.Websearch()))
	brain := CalibrateBE(cfg, workload.Brain())
	sview := CalibrateBE(cfg, workload.Streetview())

	m := New(cfg)
	m.SetLC(lc)
	a := m.AddBE(brain, workload.PlaceDedicated)
	b := m.AddBE(sview, workload.PlaceDedicated)
	m.Partition(8)
	if got := m.BECoreCount(); got != 8 {
		t.Fatalf("BE cores = %d, want 8", got)
	}

	aCores := len(a.Cores)
	m.RemoveBE(a)
	if len(m.BEs()) != 1 || m.BEs()[0] != b {
		t.Fatalf("RemoveBE left %d tasks", len(m.BEs()))
	}
	if got := m.BECoreCount(); got != 8-aCores {
		t.Fatalf("BE cores after removal = %d, want %d", got, 8-aCores)
	}
	// Redistribute: the survivor gets the remaining grant, LC the rest.
	m.Partition(m.BECoreCount())
	total := cfg.TotalCores()
	if got := len(m.LC().Cores) + len(b.Cores); got != total {
		t.Fatalf("cores leaked: LC %d + BE %d != %d", len(m.LC().Cores), len(b.Cores), total)
	}

	// Removing a task that is not installed is a no-op.
	m.RemoveBE(a)
	if len(m.BEs()) != 1 {
		t.Fatal("double remove corrupted the task list")
	}
}
