package hw

import (
	"math"
	"testing"

	"heracles/internal/sim"
)

// freqBranch names the path a frequency resolution took.
type freqBranch int

const (
	branchIdle      freqBranch = iota // no active core
	branchTurboFits                   // turbo limit within TDP: no search
	branchFloorOver                   // even MinGHz exceeds TDP: clamp
	branchBisect                      // power-limited: bisection
	nBranches
)

// resolveFrequencies40 is the reference ResolveFrequenciesInto is held to:
// the same resolution with the bisection always run to its full 40
// halvings before the result is floored to a 100 MHz step. It also
// reports the branch taken.
func resolveFrequencies40(c Config, cores []CoreLoad) (SocketFreq, freqBranch) {
	n := 0
	var effActive float64
	for _, cl := range cores {
		if cl.Activity > 0 {
			n++
			effActive += math.Min(cl.Activity, 1)
		}
	}
	out := SocketFreq{FreqGHz: make([]float64, len(cores))}
	if n == 0 {
		out.PowerWatts = c.IdleWatts
		out.FreeGHz = c.TurboLimitGHz(1)
		return out, branchIdle
	}
	nTurbo := int(math.Ceil(effActive))
	if nTurbo < 1 {
		nTurbo = 1
	}
	if nTurbo > n {
		nTurbo = n
	}
	turbo := c.TurboLimitGHz(nTurbo)

	coreFreq := func(free float64, cl CoreLoad) float64 {
		f := free
		if cl.CapGHz > 0 && cl.CapGHz < f {
			f = cl.CapGHz
		}
		if f > turbo {
			f = turbo
		}
		if f < c.MinGHz {
			f = c.MinGHz
		}
		return f
	}
	power := func(free float64) float64 {
		p := c.IdleWatts
		for _, cl := range cores {
			if cl.Activity > 0 {
				p += c.CoreDynWatts * cl.Activity * math.Pow(coreFreq(free, cl)/c.NominalGHz, c.FreqExponent)
			}
		}
		return p
	}

	lo, hi := c.MinGHz, turbo
	free, branch := hi, branchTurboFits
	if power(hi) > c.TDPWatts {
		if power(lo) > c.TDPWatts {
			free, branch = lo, branchFloorOver
		} else {
			for i := 0; i < 40; i++ {
				mid := (lo + hi) / 2
				if power(mid) > c.TDPWatts {
					hi = mid
				} else {
					lo = mid
				}
			}
			free, branch = lo, branchBisect
		}
	}

	free = math.Floor(free*10) / 10
	if free < c.MinGHz {
		free = c.MinGHz
	}
	for i, cl := range cores {
		if cl.Activity > 0 {
			out.FreqGHz[i] = coreFreq(free, cl)
		}
	}
	out.PowerWatts = power(free)
	out.FreeGHz = free
	return out, branch
}

// requireSameResolution fails unless the production solver and the
// 40-step reference agree on every output bit for the socket.
func requireSameResolution(t *testing.T, c Config, cores []CoreLoad) (SocketFreq, freqBranch) {
	t.Helper()
	got := c.ResolveFrequencies(cores)
	want, branch := resolveFrequencies40(c, cores)
	if math.Float64bits(got.FreeGHz) != math.Float64bits(want.FreeGHz) ||
		math.Float64bits(got.PowerWatts) != math.Float64bits(want.PowerWatts) {
		t.Fatalf("free %v GHz / %v W, 40-step reference %v GHz / %v W\ncores: %+v",
			got.FreeGHz, got.PowerWatts, want.FreeGHz, want.PowerWatts, cores)
	}
	for i := range want.FreqGHz {
		if math.Float64bits(got.FreqGHz[i]) != math.Float64bits(want.FreqGHz[i]) {
			t.Fatalf("core %d at %v GHz, 40-step reference %v GHz\ncores: %+v",
				i, got.FreqGHz[i], want.FreqGHz[i], cores)
		}
	}
	return got, branch
}

// TestResolveFrequenciesMatchesFortyStepBisection holds the decided-early
// bisection to the fixed 40-step one, bit for bit, over seeded random
// sockets on both hardware generations: idle cores, power viruses
// (activity above 1), and caps below MinGHz, above turbo, alternating
// per core and drawn per core.
func TestResolveFrequenciesMatchesFortyStepBisection(t *testing.T) {
	const perConfig = 20000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"compact", CompactConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfg
			rng := sim.NewRNG(18)
			var seen [nBranches]int
			for trial := 0; trial < perConfig; trial++ {
				cores := make([]CoreLoad, c.CoresPerSocket)
				idleShare := []float64{0, 0, 0.1, 0.5, 0.95}[rng.Intn(5)]
				maxActivity := []float64{0.3, 1, 1.5, 2, 3, 12}[rng.Intn(6)]
				capMode := rng.Intn(6)
				for i := range cores {
					if rng.Float64() < idleShare {
						if rng.Intn(4) == 0 {
							cores[i].CapGHz = 1.8 // a cap on an idle core is ignored
						}
						continue
					}
					cores[i].Activity = maxActivity * rng.Float64()
					switch capMode {
					case 0: // uncapped
					case 1: // below the DVFS floor
						cores[i].CapGHz = c.MinGHz * (0.3 + 0.7*rng.Float64())
					case 2: // above any turbo bin
						cores[i].CapGHz = c.MaxTurboGHz + rng.Float64()
					case 3: // LC and BE cores interleaved
						if i%2 == 0 {
							cores[i].CapGHz = 1.6
						}
					case 4: // an uncapped block and a capped block on a 100 MHz step
						if i >= len(cores)/2 {
							cores[i].CapGHz = c.MinGHz + 0.1*float64(rng.Intn(15))
						}
					case 5: // every core its own cap, some negative (= uncapped)
						cores[i].CapGHz = -0.5 + 4*rng.Float64()
					}
				}
				_, branch := requireSameResolution(t, c, cores)
				seen[branch]++
			}
			t.Logf("idle %d, turbo fits %d, floor exceeds TDP %d, bisected %d",
				seen[branchIdle], seen[branchTurboFits], seen[branchFloorOver], seen[branchBisect])
			if seen[branchBisect] < perConfig/4 {
				t.Errorf("only %d of %d sockets reached the bisection", seen[branchBisect], perConfig)
			}
			for b, n := range seen {
				if n < 20 {
					t.Errorf("branch %d taken by %d sockets; the generator must reach every branch", b, n)
				}
			}
		})
	}
}

// TestResolveFrequenciesNearStepBoundary puts the bisection's root within
// 1e-9 GHz of a 100 MHz step, on either side of it — where lo and hi
// share a step last, after some thirty halvings — and on the step itself.
// TDP is set to the socket's own power at the chosen root, so the root is
// where the search converges.
func TestResolveFrequenciesNearStepBoundary(t *testing.T) {
	for _, base := range []Config{DefaultConfig(), CompactConfig()} {
		for _, step := range []struct{ at, below float64 }{{1.3, 1.2}, {1.5, 1.4}, {2.0, 1.9}, {2.2, 2.1}} {
			for _, tc := range []struct {
				offset float64
				want   float64 // FreeGHz; 0 = whatever the reference says
			}{
				{+1e-9, step.at},
				{-1e-9, step.below},
				{0, 0},
			} {
				root := step.at + tc.offset
				cores := make([]CoreLoad, base.CoresPerSocket)
				c := base
				c.TDPWatts = c.IdleWatts
				for i := range cores {
					cores[i].Activity = 0.6 + 0.02*float64(i)
					if i%4 == 3 {
						cores[i].CapGHz = 1.2 // capped block below the root
					}
					f := root
					if cores[i].CapGHz > 0 {
						f = cores[i].CapGHz
					}
					c.TDPWatts += c.CorePowerWatts(f, cores[i].Activity)
				}
				got, branch := requireSameResolution(t, c, cores)
				if branch != branchBisect {
					t.Fatalf("root %v: branch %d, want the bisection", root, branch)
				}
				if tc.want != 0 && got.FreeGHz != tc.want {
					t.Errorf("root %.10f GHz: free frequency %v, want %v", root, got.FreeGHz, tc.want)
				}
			}
		}
	}
}

// TestResolveFrequenciesUnsearchedBranches covers the two power-limited
// outcomes that never bisect.
func TestResolveFrequenciesUnsearchedBranches(t *testing.T) {
	c := DefaultConfig()
	virus := make([]CoreLoad, c.CoresPerSocket)
	for i := range virus {
		virus[i].Activity = 6 // 18 such cores exceed TDP even at MinGHz
	}
	got, branch := requireSameResolution(t, c, virus)
	if branch != branchFloorOver || got.FreeGHz != c.MinGHz || got.PowerWatts <= c.TDPWatts {
		t.Errorf("power virus: branch %d, %v GHz, %v W; want the floor clamp at %v GHz above TDP",
			branch, got.FreeGHz, got.PowerWatts, c.MinGHz)
	}

	pair := make([]CoreLoad, c.CoresPerSocket)
	pair[0].Activity, pair[5].Activity = 1, 1
	got, branch = requireSameResolution(t, c, pair)
	wantFree := math.Floor(c.TurboLimitGHz(2)*10) / 10
	if branch != branchTurboFits || got.FreeGHz != wantFree {
		t.Errorf("two busy cores: branch %d, %v GHz; want the turbo limit floored to a step, %v GHz",
			branch, got.FreeGHz, wantFree)
	}
}
