package core

import (
	"testing"
	"time"
)

// fakeEnv is a scriptable controller environment for unit-testing the
// control algorithms in isolation from the machine model.
type fakeEnv struct {
	tail       time.Duration
	tailOK     bool
	load       float64
	slo        time.Duration
	guaranteed float64

	beEnabled bool
	beRate    float64

	beCores, maxBECores int
	beWays, totalWays   int

	dramTotal, beDRAM, dramPeak float64
	maxSocketFrac               float64

	powerFrac, lcFreq float64
	freqCap           float64

	lcTx, link float64
	txCeil     float64

	lowered, raised int
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		tail: 20 * time.Millisecond, tailOK: true,
		load: 0.4, slo: 50 * time.Millisecond, guaranteed: 2.4,
		maxBECores: 35, totalWays: 20,
		dramTotal: 30, beDRAM: 10, dramPeak: 120,
		powerFrac: 0.7, lcFreq: 2.7,
		lcTx: 0.1, link: 1.25,
	}
}

func (f *fakeEnv) TailLatency(time.Duration) (time.Duration, bool) { return f.tail, f.tailOK }
func (f *fakeEnv) Load() float64                                   { return f.load }
func (f *fakeEnv) SLO() time.Duration                              { return f.slo }
func (f *fakeEnv) GuaranteedGHz() float64                          { return f.guaranteed }
func (f *fakeEnv) EnableBE()                                       { f.beEnabled = true }
func (f *fakeEnv) DisableBE()                                      { f.beEnabled = false }
func (f *fakeEnv) BEEnabled() bool                                 { return f.beEnabled }
func (f *fakeEnv) BERate() float64                                 { return f.beRate }
func (f *fakeEnv) BECoreCount() int                                { return f.beCores }
func (f *fakeEnv) SetBECores(n int)                                { f.beCores = n }
func (f *fakeEnv) MaxBECores() int                                 { return f.maxBECores }
func (f *fakeEnv) BEWayCount() int                                 { return f.beWays }
func (f *fakeEnv) SetBEWays(n int)                                 { f.beWays = n }
func (f *fakeEnv) TotalWays() int                                  { return f.totalWays }
func (f *fakeEnv) DRAMTotalGBs() float64                           { return f.dramTotal }
func (f *fakeEnv) DRAMMaxSocketFrac() float64 {
	if f.maxSocketFrac > 0 {
		return f.maxSocketFrac
	}
	return f.dramTotal / f.dramPeak
}
func (f *fakeEnv) BEDRAMCounterGBs() float64   { return f.beDRAM }
func (f *fakeEnv) DRAMPeakGBs() float64        { return f.dramPeak }
func (f *fakeEnv) MaxSocketPowerFrac() float64 { return f.powerFrac }
func (f *fakeEnv) LCFreqGHz() float64          { return f.lcFreq }
func (f *fakeEnv) LowerBEFreq()                { f.lowered++ }
func (f *fakeEnv) RaiseBEFreq()                { f.raised++ }
func (f *fakeEnv) LCTxGBs() float64            { return f.lcTx }
func (f *fakeEnv) LinkGBs() float64            { return f.link }
func (f *fakeEnv) SetBETxCeil(g float64)       { f.txCeil = g }

var _ Env = (*fakeEnv)(nil)

func newTestController(f *fakeEnv) *Controller {
	return New(f, nil, DefaultConfig())
}

func TestTopLevelEnablesBEAtLowLoad(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	var events []Event
	c.OnEvent(func(e Event) { events = append(events, e) })
	c.Step(0)
	if !f.beEnabled {
		t.Fatal("BE not enabled at low load with ample slack")
	}
	if f.beCores != 1 {
		t.Fatalf("initial BE cores = %d, want 1", f.beCores)
	}
	// Enabled with 10% of 20 ways = 2; the core loop, which also runs on
	// this step, may already have tried the first cache-growth step.
	if f.beWays != 2 && f.beWays != 3 {
		t.Fatalf("initial BE ways = %d, want 2 (or 3 after first growth)", f.beWays)
	}
	if c.state != GrowLLC {
		t.Fatalf("initial state = %v, want GROW_LLC", c.state)
	}
	// The enable event records the paper's initial allocation.
	var enable *Event
	for i := range events {
		if events[i].Action == "enable-be" {
			enable = &events[i]
			break
		}
	}
	if enable == nil || enable.Detail != "cores=1 ways=2" {
		t.Fatalf("enable event = %+v", enable)
	}
}

func TestTopLevelDisablesBEOnSLOViolation(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.tail = 60 * time.Millisecond // above the 50ms SLO
	c.Step(15 * time.Second)
	if f.beEnabled {
		t.Fatal("BE still enabled after SLO violation")
	}
	if f.beCores != 0 || f.beWays != 0 {
		t.Fatalf("resources not returned: cores=%d ways=%d", f.beCores, f.beWays)
	}
}

func TestTopLevelCooldownAfterViolation(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.tail = 60 * time.Millisecond
	c.Step(15 * time.Second) // violation -> cooldown for 5 minutes
	f.tail = 20 * time.Millisecond
	c.Step(30 * time.Second)
	if f.beEnabled {
		t.Fatal("BE re-enabled during cooldown")
	}
	// After the cooldown expires BE execution resumes.
	c.Step(15*time.Second + 5*time.Minute + time.Second)
	if !f.beEnabled {
		t.Fatal("BE not re-enabled after cooldown")
	}
}

func TestTopLevelDisablesBEAtHighLoad(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.load = 0.9
	c.Step(15 * time.Second)
	if f.beEnabled {
		t.Fatal("BE enabled above the 85% load threshold")
	}
}

func TestTopLevelLoadHysteresis(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.load = 0.9
	c.Step(15 * time.Second) // disabled
	f.load = 0.82            // inside [0.80, 0.85): hysteresis, stay off
	c.Step(30 * time.Second)
	if f.beEnabled {
		t.Fatal("BE re-enabled inside the hysteresis band")
	}
	f.load = 0.78 // below 0.80: enable again
	c.Step(45 * time.Second)
	if !f.beEnabled {
		t.Fatal("BE not re-enabled below the 80% threshold")
	}
}

func TestTopLevelPanicShrinksBECores(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.beCores = 20
	f.tail = 49 * time.Millisecond // slack 2% < 5%
	c.Step(15 * time.Second)
	if f.beCores != 2 {
		t.Fatalf("BE cores after panic = %d, want 2 (be_cores.Remove(size-2))", f.beCores)
	}
}

func TestTopLevelDisallowsGrowthOnThinSlack(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.tail = 46 * time.Millisecond // slack 8%: no growth, no panic
	f.beCores = 10
	c.Step(15 * time.Second)
	if f.beCores != 10 {
		t.Fatalf("cores changed on thin slack: %d", f.beCores)
	}
	before := f.beCores
	c.Step(16 * time.Second) // core loop runs; growth must be disallowed
	if f.beCores > before {
		t.Fatal("BE grew despite slack < 10%")
	}
}

func TestCoreLoopRemovesCoresOnDRAMSaturation(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.beCores = 10
	f.beDRAM = 40
	f.dramTotal = 115 // above 0.9 * 120 = 108
	c.Step(2 * time.Second)
	// overage = 7, per-core = 4 -> remove ceil(7/4) = 2 cores.
	if f.beCores != 8 {
		t.Fatalf("BE cores after saturation = %d, want 8", f.beCores)
	}
}

func TestCoreLoopGrowsCoresWithSlack(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0) // enables BE (1 core) and grows ways 2->3, pending check
	// The unchanged bandwidth makes the pending check roll back (the
	// derivative is not negative) and switch to GROW_CORES.
	c.Step(2 * time.Second)
	if c.state != GrowCores {
		t.Fatalf("state = %v, want GROW_CORES", c.state)
	}
	f.beDRAM = 5
	f.dramTotal = 20
	cores := f.beCores
	c.Step(4 * time.Second)
	if f.beCores != cores+1 {
		t.Fatalf("cores = %d, want %d", f.beCores, cores+1)
	}
}

func TestCoreLoopCacheRollbackOnBWIncrease(t *testing.T) {
	f := newFakeEnv()
	f.beRate = 1.0
	c := newTestController(f)
	c.Step(0) // enables BE, grows ways 2->3, pending check
	if f.beWays != 3 {
		t.Fatalf("ways = %d, want 3", f.beWays)
	}
	f.dramTotal = 40 // bandwidth went UP after growing the cache
	c.Step(2 * time.Second)
	if f.beWays != 2 {
		t.Fatalf("ways after rollback = %d, want 2", f.beWays)
	}
	if c.state != GrowCores {
		t.Fatalf("state after rollback = %v", c.state)
	}
}

func TestCoreLoopCacheKeptWhenBWFallsAndBEBenefits(t *testing.T) {
	f := newFakeEnv()
	f.beRate = 1.0
	c := newTestController(f)
	c.Step(0)               // grows ways 2 -> 3, pending check
	f.dramTotal = 25        // bandwidth fell after the cache growth
	f.beRate = 1.2          // and the BE task benefited
	c.Step(2 * time.Second) // check passes; descent continues to ways 4
	if f.beWays < 3 {
		t.Fatalf("beneficial cache growth rolled back: ways=%d", f.beWays)
	}
	if c.state != GrowLLC {
		t.Fatalf("state = %v, want GROW_LLC to continue", c.state)
	}
}

func TestPowerLoopShiftsPowerToLC(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.powerFrac = 0.95
	f.lcFreq = 2.2 // below guaranteed 2.4
	c.Step(2 * time.Second)
	if f.lowered == 0 {
		t.Fatal("power loop did not lower BE frequency")
	}
}

func TestPowerLoopRestoresBEFrequency(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.powerFrac = 0.7
	f.lcFreq = 2.7
	c.Step(2 * time.Second)
	if f.raised == 0 {
		t.Fatal("power loop did not raise BE frequency with headroom")
	}
}

func TestPowerLoopAvoidsActiveIdleConfusion(t *testing.T) {
	// Both conditions must hold to lower frequency: power high AND
	// frequency low (§4.3). Low frequency alone (active-idle) must not
	// trigger it.
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	f.lowered, f.raised = 0, 0
	f.powerFrac = 0.5
	f.lcFreq = 1.5
	c.Step(2 * time.Second)
	if f.lowered != 0 {
		t.Fatal("lowered BE frequency without power pressure")
	}
	if f.raised != 0 {
		t.Fatal("raised BE frequency while LC below guaranteed")
	}
}

func TestNetworkLoopSetsHTBCeil(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	c.Step(time.Second)
	// ceil = link - lc - max(0.05*link, 0.10*lc)
	want := 1.25 - 0.1 - 0.0625
	if f.txCeil < want-1e-9 || f.txCeil > want+1e-9 {
		t.Fatalf("ceil = %v, want %v", f.txCeil, want)
	}
}

func TestNetworkLoopLCHeadroomDominates(t *testing.T) {
	f := newFakeEnv()
	f.lcTx = 1.0 // 10% of LC bandwidth > 5% of link
	c := newTestController(f)
	c.Step(0)
	c.Step(time.Second)
	want := 1.25 - 1.0 - 0.1
	if f.txCeil < want-1e-9 || f.txCeil > want+1e-9 {
		t.Fatalf("ceil = %v, want %v", f.txCeil, want)
	}
}

func TestNetworkLoopFloorsAtSmallPositive(t *testing.T) {
	f := newFakeEnv()
	f.lcTx = 1.3 // LC demand exceeds the link
	c := newTestController(f)
	c.Step(0)
	c.Step(time.Second)
	if f.txCeil <= 0 || f.txCeil > 0.01 {
		t.Fatalf("ceil = %v, want tiny positive", f.txCeil)
	}
}

func TestControllerNoActionWithoutTelemetry(t *testing.T) {
	f := newFakeEnv()
	f.tailOK = false
	c := newTestController(f)
	c.Step(0)
	if f.beEnabled {
		t.Fatal("controller acted without telemetry")
	}
}

func TestGrowthHeldNearDRAMLimit(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	c.Step(0)
	// Force GROW_CORES.
	f.beDRAM = 80
	f.dramTotal = 95
	c.Step(2 * time.Second)
	// Total bandwidth close enough to the limit that adding 1.5x one
	// core's bandwidth would crowd it.
	f.beCores = 10
	f.beDRAM = 60
	f.dramTotal = 100 // 100 + 1.5*6 = 109 > 108
	cores := f.beCores
	c.Step(10 * time.Second)
	if f.beCores > cores {
		t.Fatal("grew cores into the DRAM saturation margin")
	}
}

func TestEventsRecorded(t *testing.T) {
	f := newFakeEnv()
	c := newTestController(f)
	var seen []Event
	c.OnEvent(func(e Event) { seen = append(seen, e) })
	c.Step(0)
	if len(seen) == 0 {
		t.Fatal("no events recorded")
	}
	if seen[0].Loop != "top" || seen[0].Action != "enable-be" {
		t.Fatalf("first event = %+v", seen[0])
	}
}

func TestGrowStateString(t *testing.T) {
	if GrowLLC.String() != "GROW_LLC" || GrowCores.String() != "GROW_CORES" {
		t.Fatal("state names")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.PollInterval != 15*time.Second {
		t.Fatal("top-level poll must be 15s (Algorithm 1)")
	}
	if c.CorePollInterval != 2*time.Second || c.PowerPollInterval != 2*time.Second {
		t.Fatal("subcontroller cycles must be 2s (Algorithms 2-3)")
	}
	if c.NetPollInterval != time.Second {
		t.Fatal("network cycle must be 1s (Algorithm 4)")
	}
	if c.LoadDisable != 0.85 || c.LoadEnable != 0.80 {
		t.Fatal("load hysteresis thresholds")
	}
	if c.SlackGrow != 0.10 || c.SlackPanic != 0.05 {
		t.Fatal("slack thresholds")
	}
	if c.Cooldown != 5*time.Minute {
		t.Fatal("cooldown")
	}
	if c.DRAMLimitFrac != 0.90 || c.PowerLimit != 0.90 {
		t.Fatal("saturation limits")
	}
	if c.NetLinkHeadroom != 0.05 || c.NetLCHeadroom != 0.10 {
		t.Fatal("network headroom")
	}
}
