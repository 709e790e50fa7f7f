package hw

import (
	"math"
	"testing"
	"testing/quick"

	"heracles/internal/sim"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.CoresPerSocket = -1 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.MinGHz = 0 },
		func(c *Config) { c.MaxTurboGHz = c.NominalGHz - 1 },
		func(c *Config) { c.TurboBinGHz = -0.1 },
		func(c *Config) { c.LLCMB = 0 },
		func(c *Config) { c.LLCWays = 0 },
		func(c *Config) { c.DRAMGBs = 0 },
		func(c *Config) { c.TDPWatts = c.IdleWatts },
		func(c *Config) { c.CoreDynWatts = 0 },
		func(c *Config) { c.FreqExponent = 0.5 },
		func(c *Config) { c.LinkGbps = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestTotals(t *testing.T) {
	c := DefaultConfig()
	if c.TotalCores() != 36 {
		t.Fatalf("cores = %d", c.TotalCores())
	}
	if c.TotalDRAMGBs() != 120 {
		t.Fatalf("dram = %v", c.TotalDRAMGBs())
	}
	if c.TotalTDPWatts() != 290 {
		t.Fatalf("tdp = %v", c.TotalTDPWatts())
	}
	if c.LinkGBs() != 1.25 {
		t.Fatalf("link = %v", c.LinkGBs())
	}
	if math.Abs(c.WayMB()-2.25) > 1e-12 {
		t.Fatalf("wayMB = %v", c.WayMB())
	}
}

func TestTurboLimitTable(t *testing.T) {
	c := DefaultConfig()
	if got := c.TurboLimitGHz(1); got != c.MaxTurboGHz {
		t.Fatalf("single-core turbo = %v", got)
	}
	if got := c.TurboLimitGHz(2); math.Abs(got-(c.MaxTurboGHz-c.TurboBinGHz)) > 1e-12 {
		t.Fatalf("2-core turbo = %v", got)
	}
	// Never below nominal.
	if got := c.TurboLimitGHz(1000); got != c.NominalGHz {
		t.Fatalf("all-core turbo floor = %v", got)
	}
}

func TestCorePowerScalesWithFrequency(t *testing.T) {
	c := DefaultConfig()
	atNominal := c.CorePowerWatts(c.NominalGHz, 1)
	if math.Abs(atNominal-c.CoreDynWatts) > 1e-12 {
		t.Fatalf("power at nominal = %v, want %v", atNominal, c.CoreDynWatts)
	}
	higher := c.CorePowerWatts(c.NominalGHz*1.2, 1)
	want := c.CoreDynWatts * math.Pow(1.2, c.FreqExponent)
	if math.Abs(higher-want) > 1e-9 {
		t.Fatalf("power at 1.2x = %v, want %v", higher, want)
	}
	if c.CorePowerWatts(0, 1) != 0 || c.CorePowerWatts(1, 0) != 0 {
		t.Fatal("idle power should be zero")
	}
}

func TestResolveFrequenciesIdleSocket(t *testing.T) {
	c := DefaultConfig()
	res := c.ResolveFrequencies(make([]CoreLoad, c.CoresPerSocket))
	if res.PowerWatts != c.IdleWatts {
		t.Fatalf("idle power = %v", res.PowerWatts)
	}
	for _, f := range res.FreqGHz {
		if f != 0 {
			t.Fatal("idle cores should report zero frequency")
		}
	}
}

func TestResolveFrequenciesSingleCoreTurbo(t *testing.T) {
	c := DefaultConfig()
	loads := make([]CoreLoad, c.CoresPerSocket)
	loads[0].Activity = 1
	res := c.ResolveFrequencies(loads)
	if res.FreqGHz[0] < c.MaxTurboGHz-0.11 {
		t.Fatalf("single active core at %v, want near max turbo %v", res.FreqGHz[0], c.MaxTurboGHz)
	}
}

func TestResolveFrequenciesRespectsTDP(t *testing.T) {
	c := DefaultConfig()
	loads := make([]CoreLoad, c.CoresPerSocket)
	for i := range loads {
		loads[i].Activity = 1.35 // power virus everywhere
	}
	res := c.ResolveFrequencies(loads)
	if res.PowerWatts > c.TDPWatts*1.001 {
		t.Fatalf("power %v exceeds TDP %v", res.PowerWatts, c.TDPWatts)
	}
	if res.FreeGHz >= c.NominalGHz {
		t.Fatalf("power virus should force below nominal, got %v", res.FreeGHz)
	}
}

func TestResolveFrequenciesHonorsCaps(t *testing.T) {
	c := DefaultConfig()
	loads := make([]CoreLoad, c.CoresPerSocket)
	for i := range loads {
		loads[i].Activity = 1
	}
	loads[3].CapGHz = 1.5
	res := c.ResolveFrequencies(loads)
	if res.FreqGHz[3] > 1.5+1e-9 {
		t.Fatalf("cap ignored: %v", res.FreqGHz[3])
	}
	// Capping one core frees budget: the others should run at least as
	// fast as the capped one.
	if res.FreqGHz[0] < res.FreqGHz[3] {
		t.Fatalf("uncapped %v < capped %v", res.FreqGHz[0], res.FreqGHz[3])
	}
}

func TestCappingBECoresShiftsPowerBudget(t *testing.T) {
	c := DefaultConfig()
	uncapped := make([]CoreLoad, c.CoresPerSocket)
	capped := make([]CoreLoad, c.CoresPerSocket)
	for i := range uncapped {
		uncapped[i].Activity = 1.35
		capped[i].Activity = 1.35
		if i >= 2 { // 16 "BE" cores capped low
			capped[i].CapGHz = 1.4
		}
	}
	fUncapped := c.ResolveFrequencies(uncapped).FreqGHz[0]
	fCapped := c.ResolveFrequencies(capped).FreqGHz[0]
	if fCapped <= fUncapped {
		t.Fatalf("capping BE cores should raise LC frequency: %v -> %v", fUncapped, fCapped)
	}
}

func TestResolveFrequenciesQuantised(t *testing.T) {
	c := DefaultConfig()
	loads := make([]CoreLoad, c.CoresPerSocket)
	for i := range loads {
		loads[i].Activity = 1
	}
	res := c.ResolveFrequencies(loads)
	steps := res.FreeGHz * 10
	if math.Abs(steps-math.Round(steps)) > 1e-9 {
		t.Fatalf("frequency %v not on a 100MHz step", res.FreeGHz)
	}
}

func TestResolveFrequenciesPowerNeverExceedsTDPProperty(t *testing.T) {
	c := DefaultConfig()
	if err := quick.Check(func(acts []uint8) bool {
		loads := make([]CoreLoad, c.CoresPerSocket)
		for i := range loads {
			if i < len(acts) {
				loads[i].Activity = float64(acts[i]%150) / 100
			}
		}
		res := c.ResolveFrequencies(loads)
		// Allow the floor case: at MinGHz the chip may exceed TDP by
		// design (thermal throttling is outside the model).
		if res.FreeGHz > c.MinGHz {
			return res.PowerWatts <= c.TDPWatts*1.001
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTurboUsesEffectiveActiveCores(t *testing.T) {
	c := DefaultConfig()
	// 18 barely-active cores should still turbo near the few-core bins.
	light := make([]CoreLoad, c.CoresPerSocket)
	for i := range light {
		light[i].Activity = 0.05
	}
	res := c.ResolveFrequencies(light)
	if res.FreeGHz < 3.4 {
		t.Fatalf("lightly loaded socket at %v, want near single-core turbo", res.FreeGHz)
	}
}

// TestResolveFrequenciesPowerMemoExact pins the bisection's one-entry
// f^e memo against the definitional per-core sum: the reported socket
// power must equal IdleWatts plus CorePowerWatts over the resolved
// per-core frequencies, bit for bit — reusing a cached Pow result must
// never perturb a single term of the accumulation.
func TestResolveFrequenciesPowerMemoExact(t *testing.T) {
	c := DefaultConfig()
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		cores := make([]CoreLoad, c.CoresPerSocket)
		for i := range cores {
			switch rng.Intn(4) {
			case 0: // idle
			case 1: // uncapped LC-style core
				cores[i] = CoreLoad{Activity: 0.2 + 0.8*rng.Float64()}
			case 2: // capped BE core sharing one of two cap values
				cores[i] = CoreLoad{Activity: rng.Float64(), CapGHz: []float64{1.4, 2.1}[rng.Intn(2)]}
			case 3: // per-core cap, alternating with the blocks above
				cores[i] = CoreLoad{Activity: rng.Float64(), CapGHz: c.MinGHz + rng.Float64()*2}
			}
		}
		res := c.ResolveFrequencies(cores)
		want := c.IdleWatts
		for i, cl := range cores {
			if cl.Activity <= 0 {
				continue
			}
			want += c.CorePowerWatts(res.FreqGHz[i], cl.Activity)
		}
		if res.PowerWatts != want {
			t.Fatalf("trial %d: PowerWatts = %v, per-core sum = %v (diff %g)",
				trial, res.PowerWatts, want, res.PowerWatts-want)
		}
	}
}
