package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based
// on the splitmix64 mixing function. It is not cryptographically secure; it
// exists so that simulations are reproducible across platforms without
// depending on math/rand's global state.
type RNG struct {
	state uint64
	// spare holds a cached normal variate from the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + stddev*u*m
}

// LogNormal returns a log-normally distributed sample such that the result
// has the given mean and the underlying normal has standard deviation sigma.
// This parameterisation (mean of the distribution, not of the log) is the
// one used by the workload service-time models.
func (r *RNG) LogNormal(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	// If X = exp(N(mu, sigma)) then E[X] = exp(mu + sigma^2/2).
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(r.Norm(mu, sigma))
}

// deriveState mixes (seed, index) into a generator state. Two rounds of
// the splitmix64 finaliser decorrelate nearby pairs before they become a
// state.
func deriveState(seed, index uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveRNG returns an independent generator for item index of the
// simulation seeded with seed. Unlike Split, the derived stream depends
// only on (seed, index) — never on how many values other items consumed —
// so concurrent load points or cluster epochs draw identical samples
// whether they run on one worker or many.
func DeriveRNG(seed, index uint64) *RNG {
	return NewRNG(deriveState(seed, index))
}

// Reseed resets r in place to the exact stream DeriveRNG(seed, index)
// would return, without allocating. Hot loops that derive a fresh stream
// every epoch keep one RNG value and reseed it instead.
func (r *RNG) Reseed(seed, index uint64) {
	r.state = deriveState(seed, index)
	r.spare = 0
	r.hasSpare = false
}
