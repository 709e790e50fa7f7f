package machine

import (
	"slices"
	"sync"
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/workload"
)

// Calibration is relatively expensive; share calibrated workloads across
// tests in this package.
var (
	calOnce sync.Once
	calLC   map[string]*workload.LC
	calBE   map[string]*workload.BE
)

func calibrated(t *testing.T) (map[string]*workload.LC, map[string]*workload.BE) {
	t.Helper()
	calOnce.Do(func() {
		cfg := hw.DefaultConfig()
		calLC = map[string]*workload.LC{}
		calBE = map[string]*workload.BE{}
		for _, s := range workload.LCSpecs() {
			calLC[s.Name] = CalibrateLC(cfg, s)
		}
		for _, s := range workload.BESpecs() {
			calBE[s.Name] = CalibrateBE(cfg, s)
		}
	})
	return calLC, calBE
}

func TestCalibrationInvariants(t *testing.T) {
	lcs, _ := calibrated(t)
	for name, wl := range lcs {
		if wl.SLO <= 0 {
			t.Fatalf("%s: SLO %v", name, wl.SLO)
		}
		if wl.PeakQPS <= 0 {
			t.Fatalf("%s: peak %v", name, wl.PeakQPS)
		}
		cfg := hw.DefaultConfig()
		if wl.GuaranteedGHz < cfg.MinGHz || wl.GuaranteedGHz > cfg.MaxTurboGHz {
			t.Fatalf("%s: guaranteed %v", name, wl.GuaranteedGHz)
		}
	}
}

func TestCalibrationMatchesPaperScales(t *testing.T) {
	lcs, _ := calibrated(t)
	// §3.1: websearch/ml_cluster SLOs are tens of milliseconds; memkeyval
	// is a few hundred microseconds with peak throughput in the hundreds
	// of thousands of QPS.
	ws := lcs["websearch"]
	if ws.SLO < 10*time.Millisecond || ws.SLO > 100*time.Millisecond {
		t.Fatalf("websearch SLO %v", ws.SLO)
	}
	mk := lcs["memkeyval"]
	if mk.SLO < 100*time.Microsecond || mk.SLO > time.Millisecond {
		t.Fatalf("memkeyval SLO %v", mk.SLO)
	}
	if mk.PeakQPS < 1e5 {
		t.Fatalf("memkeyval peak %v, want hundreds of thousands", mk.PeakQPS)
	}
}

func TestPeakLoadMeetsSLO(t *testing.T) {
	lcs, _ := calibrated(t)
	for name, wl := range lcs {
		m := New(hw.DefaultConfig())
		m.SetLC(wl)
		m.SetLoad(1.0)
		var tel Telemetry
		for i := 0; i < 8; i++ {
			tel = m.Step()
		}
		if tel.TailLatency > time.Duration(float64(wl.SLO)*1.1) {
			t.Fatalf("%s violates SLO at calibrated peak: %v > %v", name, tel.TailLatency, wl.SLO)
		}
	}
}

func TestBaselineLatencyMonotoneInLoad(t *testing.T) {
	lcs, _ := calibrated(t)
	wl := lcs["websearch"]
	prev := time.Duration(0)
	for _, load := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m := New(hw.DefaultConfig())
		m.SetLC(wl)
		m.SetLoad(load)
		var tel Telemetry
		for i := 0; i < 10; i++ {
			tel = m.Step()
		}
		if tel.TailLatency < prev-time.Millisecond {
			t.Fatalf("latency not monotone at load %v: %v < %v", load, tel.TailLatency, prev)
		}
		prev = tel.TailLatency
	}
}

func TestWebsearchDRAMFraction(t *testing.T) {
	// §3.1: websearch uses ~40% of DRAM bandwidth at 100% load.
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.SetLoad(1.0)
	var tel Telemetry
	for i := 0; i < 8; i++ {
		tel = m.Step()
	}
	if tel.DRAMUtil < 0.30 || tel.DRAMUtil > 0.55 {
		t.Fatalf("websearch DRAM at peak = %.0f%%, want ~40%%", 100*tel.DRAMUtil)
	}
}

func TestMemkeyvalNetworkLimitedAtPeak(t *testing.T) {
	// §3.1: memkeyval is network bandwidth limited at peak load.
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["memkeyval"])
	m.SetLoad(1.0)
	var tel Telemetry
	for i := 0; i < 8; i++ {
		tel = m.Step()
	}
	if tel.LinkUtil < 0.85 {
		t.Fatalf("memkeyval link at peak = %.0f%%, want near saturation", 100*tel.LinkUtil)
	}
	if tel.DRAMUtil > 0.3 {
		t.Fatalf("memkeyval DRAM at peak = %.0f%%, want ~20%%", 100*tel.DRAMUtil)
	}
}

func TestPartitionBalancesSockets(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.Partition(10)
	be := m.BEs()[0]
	if len(be.Cores) != 10 {
		t.Fatalf("BE core count = %d", len(be.Cores))
	}
	s0, s1 := coresOnSocket(m.cfg.CoresPerSocket, be.Cores, 0), coresOnSocket(m.cfg.CoresPerSocket, be.Cores, 1)
	if s0 != 5 || s1 != 5 {
		t.Fatalf("BE cores per socket = %d/%d, want balanced", s0, s1)
	}
	// LC and BE never overlap.
	lcSet := map[int]bool{}
	for _, c := range m.LC().Cores {
		lcSet[c] = true
	}
	for _, c := range be.Cores {
		if lcSet[c] {
			t.Fatalf("core %d owned by both LC and BE", c)
		}
	}
	if len(m.LC().Cores)+len(be.Cores) != m.cfg.TotalCores() {
		t.Fatal("cores lost in partition")
	}
}

func TestPinLCInterleavesSockets(t *testing.T) {
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.PinLC(6)
	s0 := coresOnSocket(m.cfg.CoresPerSocket, m.LC().Cores, 0)
	s1 := coresOnSocket(m.cfg.CoresPerSocket, m.LC().Cores, 1)
	if s0 != 3 || s1 != 3 {
		t.Fatalf("pinned LC cores per socket = %d/%d", s0, s1)
	}
}

// TestPinLCThenPartitionSplitsBECores: PinLC hands every dedicated BE
// task the cores it leaves, and Partition rewrites each task's list in
// place, so the tasks must not share one list — if they do, the last
// task's cores overwrite the others'.
func TestPinLCThenPartitionSplitsBECores(t *testing.T) {
	lcs, bes := calibrated(t)
	build := func() *Machine {
		m := New(hw.DefaultConfig())
		m.SetLC(lcs["websearch"])
		m.AddBE(bes["brain"], workload.PlaceDedicated)
		m.AddBE(bes["streetview"], workload.PlaceDedicated)
		return m
	}
	pinned, fresh := build(), build()
	pinned.PinLC(20)
	pinned.Partition(8)
	fresh.Partition(8)
	for i, be := range pinned.BEs() {
		if want := fresh.BEs()[i].Cores; !slices.Equal(be.Cores, want) {
			t.Errorf("BE task %d after PinLC then Partition holds cores %v, want %v", i, be.Cores, want)
		}
	}
}

func TestPartitionWays(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.PartitionWays(4)
	if m.LC().Ways != 16 || m.BEs()[0].Ways != 4 {
		t.Fatalf("ways split = %d/%d", m.LC().Ways, m.BEs()[0].Ways)
	}
	m.PartitionWays(0)
	if m.LC().Ways != 0 {
		t.Fatal("zero BE ways should restore full sharing")
	}
	// Never allow BE to take every way.
	m.PartitionWays(99)
	if m.BEs()[0].Ways >= m.cfg.LLCWays {
		t.Fatalf("BE took all ways: %d", m.BEs()[0].Ways)
	}
}

func TestColocationRaisesEMU(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.SetLoad(0.3)
	m.Partition(12)
	m.PartitionWays(2)
	var tel Telemetry
	for i := 0; i < 10; i++ {
		tel = m.Step()
	}
	if tel.EMU < 0.4 {
		t.Fatalf("EMU with 12 BE cores = %v, want well above the 0.3 load", tel.EMU)
	}
	if tel.BERateNorm <= 0 || tel.BERateNorm > 1 {
		t.Fatalf("BE normalised rate = %v", tel.BERateNorm)
	}
}

func TestDisableBEStopsWork(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.SetLoad(0.3)
	m.Partition(12)
	m.Step()
	m.DisableBE()
	tel := m.Step()
	if tel.BERateNorm != 0 {
		t.Fatalf("disabled BE still produced %v", tel.BERateNorm)
	}
	if m.BEEnabled() {
		t.Fatal("BEEnabled after disable")
	}
	m.EnableBE()
	if !m.BEEnabled() {
		t.Fatal("enable failed")
	}
}

func TestTailLatencyWindowAverages(t *testing.T) {
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.SetLoad(0.5)
	if _, ok := m.TailLatency(15 * time.Second); ok {
		t.Fatal("tail latency available before any epoch")
	}
	for i := 0; i < 5; i++ {
		m.Step()
	}
	tail, ok := m.TailLatency(15 * time.Second)
	if !ok || tail <= 0 {
		t.Fatalf("tail = %v ok=%v", tail, ok)
	}
}

func TestSLOScale(t *testing.T) {
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	base := m.SLO()
	m.SetSLOScale(0.8)
	if got := m.SLO(); got != time.Duration(float64(base)*0.8) {
		t.Fatalf("scaled SLO = %v", got)
	}
}

func TestFreqCapActuators(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["cpu_pwr"], workload.PlaceDedicated)
	m.Partition(8)
	if m.BEFreqCap() != 0 {
		t.Fatal("initial cap should be 0 (uncapped)")
	}
	m.LowerBEFreq()
	want := m.cfg.MaxTurboGHz - 0.1
	if got := m.BEFreqCap(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("cap after first lower = %v, want %v", got, want)
	}
	m.RaiseBEFreq()
	if m.BEFreqCap() != 0 {
		t.Fatalf("cap after raise to top = %v, want uncapped", m.BEFreqCap())
	}
	// Lowering far never goes below MinGHz.
	for i := 0; i < 100; i++ {
		m.LowerBEFreq()
	}
	if m.BEFreqCap() < m.cfg.MinGHz {
		t.Fatalf("cap below MinGHz: %v", m.BEFreqCap())
	}
}

func TestFreqCapRaisesLCFrequencyUnderPowerVirus(t *testing.T) {
	lcs, bes := calibrated(t)
	run := func(cap float64) float64 {
		m := New(hw.DefaultConfig())
		m.SetLC(lcs["websearch"])
		m.AddBE(bes["cpu_pwr"], workload.PlaceDedicated)
		m.SetLoad(0.3)
		m.Partition(24)
		if cap > 0 {
			m.SetBEFreqCap(cap)
		}
		var tel Telemetry
		for i := 0; i < 6; i++ {
			tel = m.Step()
		}
		return tel.LCFreqGHz
	}
	uncapped := run(0)
	capped := run(1.4)
	if capped <= uncapped {
		t.Fatalf("capping the power virus should raise LC frequency: %v -> %v", uncapped, capped)
	}
}

func TestHTBCeilProtectsLCNetwork(t *testing.T) {
	lcs, bes := calibrated(t)
	run := func(ceil float64) Telemetry {
		m := New(hw.DefaultConfig())
		m.SetLC(lcs["memkeyval"])
		m.AddBE(bes["iperf"], workload.PlaceDedicated)
		m.SetLoad(0.6)
		m.Partition(1)
		if ceil > 0 {
			m.SetBENetCeil(ceil)
		}
		var tel Telemetry
		for i := 0; i < 6; i++ {
			tel = m.Step()
		}
		return tel
	}
	open := run(0)
	shaped := run(0.2)
	if shaped.TailLatency >= open.TailLatency {
		t.Fatalf("HTB ceil did not protect the LC tail: %v vs %v", shaped.TailLatency, open.TailLatency)
	}
	if shaped.BETxGBs > 0.2+1e-9 {
		t.Fatalf("BE exceeded ceil: %v", shaped.BETxGBs)
	}
}

func TestPerCoreDRAMCountersSumToTotal(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["streetview"], workload.PlaceDedicated)
	m.SetLoad(0.5)
	m.Partition(10)
	tel := m.Step()
	var sum float64
	for _, v := range tel.PerCoreDRAMGBs {
		sum += v
	}
	diff := sum - tel.DRAMTotalGBs
	if diff < -0.5 || diff > 0.5 {
		t.Fatalf("per-core counters sum %v vs total %v", sum, tel.DRAMTotalGBs)
	}
}

func TestDeterminism(t *testing.T) {
	lcs, bes := calibrated(t)
	run := func() Telemetry {
		m := New(hw.DefaultConfig())
		m.SetLC(lcs["ml_cluster"])
		m.AddBE(bes["brain"], workload.PlaceDedicated)
		m.SetLoad(0.45)
		m.Partition(14)
		var tel Telemetry
		for i := 0; i < 12; i++ {
			tel = m.Step()
		}
		return tel
	}
	a, b := run(), run()
	if a.TailLatency != b.TailLatency || a.EMU != b.EMU || a.DRAMTotalGBs != b.DRAMTotalGBs {
		t.Fatal("machine resolution is not deterministic")
	}
}

func TestOSSharedColocationViolates(t *testing.T) {
	// The §3.3 result that motivates Heracles: OS-only isolation cannot
	// colocate brain with any LC workload.
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	lc := m.SetLC(lcs["websearch"])
	lc.OSShared = true
	m.AddBE(bes["brain"], workload.PlaceOSShared)
	m.SetLoad(0.5)
	var tel Telemetry
	for i := 0; i < 8; i++ {
		tel = m.Step()
	}
	if tel.TailLatency <= lcs["websearch"].SLO {
		t.Fatalf("OS-shared brain colocation should violate the SLO, tail=%v", tel.TailLatency)
	}
}

func TestHTSiblingInterferenceAtHighLoad(t *testing.T) {
	lcs, _ := calibrated(t)
	spin := CalibrateBE(hw.DefaultConfig(), workload.Spinloop())
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(spin, workload.PlaceHTSibling)
	m.SetLoad(0.95)
	var tel Telemetry
	for i := 0; i < 8; i++ {
		tel = m.Step()
	}
	if tel.TailLatency <= lcs["websearch"].SLO {
		t.Fatalf("hyperthread antagonist at 95%% load should violate, tail=%v vs SLO %v",
			tel.TailLatency, lcs["websearch"].SLO)
	}
}

func TestRunForAndClock(t *testing.T) {
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.SetLoad(0.2)
	for range 5 {
		m.Step()
	}
	if m.Clock().Now() != 5*time.Second {
		t.Fatalf("clock = %v", m.Clock().Now())
	}
	if n := len(m.Snapshot().Window); n != 5 {
		t.Fatalf("recent epochs = %d", n)
	}
	m.ResetStats()
	if len(m.Snapshot().Window) != 0 {
		t.Fatal("reset did not clear history")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid hw config")
		}
	}()
	New(hw.Config{})
}
