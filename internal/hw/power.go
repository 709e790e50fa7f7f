package hw

import "math"

// TurboLimitGHz returns the maximum frequency the chip sustains with
// nActive physical cores active, before considering the power budget. This
// models the turbo-bin table: single-core turbo at MaxTurboGHz, dropping by
// TurboBinGHz per additional active core, never below the nominal
// frequency.
func (c Config) TurboLimitGHz(nActive int) float64 {
	if nActive <= 1 {
		return c.MaxTurboGHz
	}
	f := c.MaxTurboGHz - c.TurboBinGHz*float64(nActive-1)
	if f < c.NominalGHz {
		return c.NominalGHz
	}
	return f
}

// CorePowerWatts returns the dynamic power of one core running at freq GHz
// with the given activity factor. Activity 1.0 corresponds to a typical
// compute-bound workload; a power virus exceeds 1.0 and memory-bound code
// sits below it. Power scales as f^FreqExponent, which folds in the voltage
// scaling that accompanies frequency changes.
func (c Config) CorePowerWatts(freqGHz, activity float64) float64 {
	if freqGHz <= 0 || activity <= 0 {
		return 0
	}
	return c.CoreDynWatts * activity * math.Pow(freqGHz/c.NominalGHz, c.FreqExponent)
}

// CoreLoad describes one active physical core for frequency resolution.
type CoreLoad struct {
	Activity float64 // power activity factor (0 = idle core, skip)
	CapGHz   float64 // per-core DVFS cap; 0 or negative means uncapped
}

// SameLoad reports whether a and b are identical bit for bit (so NaN
// matches itself and +0 differs from -0). ResolveFrequenciesInto reads
// nothing besides the Config and its loads, so core for core identical
// loads on one Config resolve to identical results.
func SameLoad(a, b CoreLoad) bool {
	return math.Float64bits(a.Activity) == math.Float64bits(b.Activity) &&
		math.Float64bits(a.CapGHz) == math.Float64bits(b.CapGHz)
}

// SocketFreq is the result of resolving a socket's frequencies.
type SocketFreq struct {
	FreqGHz    []float64 // per entry in the CoreLoad slice, 0 for idle cores
	PowerWatts float64   // total socket power including idle power
	FreeGHz    float64   // frequency granted to uncapped cores
}

// ResolveFrequencies computes the operating frequency of every active core
// on one socket. Cores with a DVFS cap run at min(cap, turbo limit); the
// remaining cores share the power headroom equally at the highest uniform
// frequency that keeps socket power at or below TDP (found by bisection).
// This mirrors how RAPL plus per-core DVFS behave on the modelled parts:
// lowering the frequency of best-effort cores shifts power budget to the
// latency-critical cores (paper §4.1, power isolation).
func (c Config) ResolveFrequencies(cores []CoreLoad) SocketFreq {
	return c.ResolveFrequenciesInto(make([]float64, len(cores)), cores)
}

// ResolveFrequenciesInto is ResolveFrequencies writing the per-core
// frequencies into freqs (which must have capacity for len(cores) entries)
// so steady-state callers allocate nothing. The result aliases freqs.
func (c Config) ResolveFrequenciesInto(freqs []float64, cores []CoreLoad) SocketFreq {
	n := 0
	// The turbo bin count tracks *effective* active cores: a core that is
	// busy 10% of the time contributes 0.1, so lightly loaded chips run
	// near single-core turbo (this is what makes unloaded latency fast and
	// gives the baseline latency curves their gradual rise with load).
	var effActive float64
	for _, cl := range cores {
		if cl.Activity > 0 {
			n++
			a := cl.Activity
			if a > 1 {
				a = 1
			}
			effActive += a
		}
	}
	freqs = freqs[:len(cores)]
	for i := range freqs {
		freqs[i] = 0
	}
	out := SocketFreq{FreqGHz: freqs}
	if n == 0 {
		out.PowerWatts = c.IdleWatts
		out.FreeGHz = c.TurboLimitGHz(1)
		return out
	}
	nTurbo := int(math.Ceil(effActive))
	if nTurbo < 1 {
		nTurbo = 1
	}
	if nTurbo > n {
		nTurbo = n
	}
	turbo := c.TurboLimitGHz(nTurbo)

	power := func(free float64) float64 {
		p := c.IdleWatts
		// One-entry f^e memo: cores resolve to a handful of distinct
		// frequencies (the uncapped block shares free, each capped block
		// its cap), and math.Pow dominates the whole epoch step without
		// it. Reusing the identical Pow result keeps every term — and the
		// accumulation order — bit-identical to recomputing.
		lastF := math.Inf(-1)
		var lastPow float64
		for _, cl := range cores {
			if cl.Activity <= 0 {
				continue
			}
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
			if f != lastF {
				lastF = f
				lastPow = math.Pow(f/c.NominalGHz, c.FreqExponent)
			}
			p += c.CoreDynWatts * cl.Activity * lastPow
		}
		return p
	}

	lo, hi := c.MinGHz, turbo
	free := hi
	if power(hi) > c.TDPWatts {
		if power(lo) > c.TDPWatts {
			// Even the floor exceeds TDP; the chip would throttle
			// below the modelled minimum. Clamp to the floor.
			free = lo
		} else {
			// Everything below reads lo only through Floor(lo*10), the
			// 100 MHz step it falls in. Each halving keeps the later lo
			// values inside [lo, hi] and x -> Floor(x*10) is monotone, so
			// once both ends share a step the remaining halvings (40 in
			// all) cannot change a bit of the result: stop there.
			for i := 0; i < 40 && math.Floor(lo*10) != math.Floor(hi*10); i++ {
				mid := (lo + hi) / 2
				if power(mid) > c.TDPWatts {
					hi = mid
				} else {
					lo = mid
				}
			}
			free = lo
		}
	}

	// Quantise to 100 MHz steps like real DVFS (paper §4.1: "frequency
	// steps are in 100MHz"). Round down so power stays within budget.
	free = math.Floor(free*10) / 10
	if free < c.MinGHz {
		free = c.MinGHz
	}

	for i, cl := range cores {
		if cl.Activity <= 0 {
			continue
		}
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
		out.FreqGHz[i] = f
	}
	out.PowerWatts = power(free)
	out.FreeGHz = free
	return out
}
