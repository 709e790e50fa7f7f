package engine_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/lat"
	"heracles/internal/sim"
)

// refRootMean and sampleLeaf are the root estimator as it stood before
// RootSampler: every sample recomputes each leaf's sigma and evaluates
// p50*exp(x) for every leaf. They are the reference RootSampler.Mean must
// match bit for bit, in its result and in what it consumes from the
// generator.
func refRootMean(leafStats []lat.EpochStats, samples int, rng *sim.RNG) time.Duration {
	var sum float64
	for s := 0; s < samples; s++ {
		var worst float64
		for _, ls := range leafStats {
			v := sampleLeaf(ls, rng)
			if v > worst {
				worst = v
			}
		}
		sum += worst
	}
	return time.Duration(sum / float64(samples) * float64(time.Second))
}

func sampleLeaf(ls lat.EpochStats, rng *sim.RNG) float64 {
	p50 := ls.P50.Seconds()
	p99 := ls.P99.Seconds()
	if p50 <= 0 {
		return 0
	}
	if p99 < p50 {
		p99 = p50
	}
	sigma := 0.0
	if p99 > p50 {
		sigma = math.Log(p99/p50) / 2.326
	}
	return p50 * math.Exp(rng.Norm(0, sigma))
}

func leaf(p50, p99 time.Duration) lat.EpochStats {
	return lat.EpochStats{P50: p50, P99: p99}
}

func repeatLeaf(ls lat.EpochStats, n int) []lat.EpochStats {
	out := make([]lat.EpochStats, n)
	for i := range out {
		out[i] = ls
	}
	return out
}

// checkRootMean runs the reference and one shared sampler on the same
// stream and requires the same Duration and the same generator state
// afterwards (the next Uint64 and, because Box-Muller caches its second
// variate, the next Norm).
func checkRootMean(t *testing.T, rs *engine.RootSampler, name string, leaves []lat.EpochStats, samples int, seed uint64) {
	t.Helper()
	refRNG, gotRNG := sim.DeriveRNG(seed, 1), sim.DeriveRNG(seed, 1)
	want := refRootMean(leaves, samples, refRNG)
	got := rs.Mean(leaves, samples, gotRNG)
	fail := func(format string, args ...any) {
		t.Helper()
		if len(leaves) <= 40 {
			t.Logf("leaves: %v", leaves)
		}
		t.Fatalf("%s (seed %d, %d samples): %s", name, seed, samples, fmt.Sprintf(format, args...))
	}
	if got != want {
		fail("Mean = %d ns, reference %d ns", got, want)
	}
	if g, w := gotRNG.Norm(0, 1), refRNG.Norm(0, 1); g != w {
		fail("next Norm %v, reference %v — a different number of draws", g, w)
	}
	if g, w := gotRNG.Uint64(), refRNG.Uint64(); g != w {
		fail("next Uint64 %#x, reference %#x — a different number of draws", g, w)
	}
}

// TestRootSamplerMatchesReference is the differential pin behind the
// log-space maximum: the two ways it could silently stop being
// bit-identical are a changed draw order or count (a draw for a dark leaf,
// a skipped sigma-0 draw) and a leaf that can hold the maximum not being
// evaluated with the exact expression (ties and near-ties).
func TestRootSamplerMatchesReference(t *testing.T) {
	const ms = time.Millisecond
	maxDur := time.Duration(math.MaxInt64)
	// Five weeks: up here most medians 1 ns apart are different float64
	// seconds with the same float64 logarithm, so the keys cannot order
	// them and the exact values must.
	const big = 3_000_000 * time.Second
	nsRun := func(first, step time.Duration) []lat.EpochStats {
		out := make([]lat.EpochStats, 32)
		for i := range out {
			out[i] = leaf(first+step*time.Duration(i), 0)
		}
		return out
	}
	table := []struct {
		name   string
		leaves []lat.EpochStats
	}{
		{"no leaves", nil},
		{"all dark", repeatLeaf(lat.EpochStats{}, 5)},
		{"negative median is dark", []lat.EpochStats{leaf(-ms, 4*ms), leaf(3*ms, 9*ms)}},
		{"one dark among live", []lat.EpochStats{leaf(5*ms, 20*ms), {}, leaf(6*ms, 18*ms), leaf(4*ms, 30*ms)}},
		{"dark first and last", []lat.EpochStats{{}, leaf(5*ms, 20*ms), leaf(6*ms, 18*ms), {}}},
		{"p99 below p50 clamps to sigma 0", []lat.EpochStats{leaf(8*ms, 2*ms), leaf(5*ms, 20*ms)}},
		{"p99 equals p50 still draws", []lat.EpochStats{leaf(8*ms, 8*ms), leaf(5*ms, 20*ms), leaf(7*ms, 7*ms)}},
		{"every leaf sigma 0", []lat.EpochStats{leaf(8*ms, 8*ms), leaf(9*ms, 9*ms), leaf(7*ms, 1*ms)}},
		{"single leaf", []lat.EpochStats{leaf(5*ms, 20*ms)}},
		{"single leaf sigma 0", []lat.EpochStats{leaf(5*ms, 5*ms)}},
		{"identical leaves", repeatLeaf(leaf(5*ms, 20*ms), 8)},
		{"identical leaves sigma 0", repeatLeaf(leaf(5*ms, 5*ms), 8)},
		{"1 ns apart", []lat.EpochStats{leaf(5*ms, 20*ms), leaf(5*ms+1, 20*ms), leaf(5*ms+2, 20*ms+1)}},
		{"1 ns apart sigma 0 outside the margin", []lat.EpochStats{leaf(5*ms, 5*ms), leaf(5*ms+1, 5*ms+1), leaf(5*ms-1, 0)}},
		{"1 ns apart sigma 0 inside the margin", []lat.EpochStats{leaf(10*time.Second, 0), leaf(10*time.Second+1, 0), leaf(10*time.Second-1, 0)}},
		{"1 ns apart sigma 0 keys tie ascending", nsRun(big, 1)},
		{"1 ns apart sigma 0 keys tie descending", nsRun(big+31, -1)},
		{"more leaves than any fixed scratch", func() []lat.EpochStats {
			out := make([]lat.EpochStats, 1500)
			for i := range out {
				out[i] = leaf(time.Duration(3+i%5)*ms, time.Duration(9+i%11)*ms)
				if i%97 == 0 {
					out[i] = lat.EpochStats{}
				}
			}
			return out
		}()},
		// The widest lognormal a Duration pair can express (sigma 18.8).
		// math.Exp itself cannot overflow — Box-Muller's |z| <= 12.01 keeps
		// |x| under 226 — but the mean leaves the int64 nanosecond range,
		// and that conversion has to go wrong the same way on both sides.
		{"widest ratio overflows the Duration", []lat.EpochStats{leaf(1, maxDur), leaf(5*ms, 20*ms)}},
		{"widest ratio everywhere", repeatLeaf(leaf(1, maxDur), 6)},
		{"longest median", []lat.EpochStats{leaf(maxDur, maxDur), leaf(maxDur-1, maxDur)}},
	}
	// One sampler for everything, so every case also inherits scratch of
	// another size and with another case's parameters in it.
	var rs engine.RootSampler
	for _, tc := range table {
		for _, samples := range []int{1, 2, 7, 200} {
			for seed := uint64(1); seed <= 5; seed++ {
				checkRootMean(t, &rs, tc.name, tc.leaves, samples, seed)
			}
		}
	}

	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	gen := sim.NewRNG(16)
	for c := 0; c < cases; c++ {
		leaves := randomLeaves(gen)
		samples := 1 + gen.Intn(64)
		checkRootMean(t, &rs, "random leaf set", leaves, samples, uint64(c))
	}
}

// randomLeaves draws a leaf set that mixes ordinary leaves with the edge
// cases of the table: dark leaves, clamped and zero-width tails, copies of
// the previous leaf and leaves 1 ns off it, very wide tails.
func randomLeaves(gen *sim.RNG) []lat.EpochStats {
	out := make([]lat.EpochStats, 1+gen.Intn(40))
	for i := range out {
		// Medians log-uniform over 1 ns .. ~3 h.
		p50 := time.Duration(math.Exp(gen.Float64() * 30))
		var p99 time.Duration
		switch gen.Intn(8) {
		case 0:
			p99 = p50 / 2
		case 1:
			p99 = p50
		case 2:
			p99 = time.Duration(float64(p50) * math.Exp(gen.Float64()*13))
		default:
			p99 = time.Duration(float64(p50) * (1 + 4*gen.Float64()))
		}
		out[i] = leaf(p50, p99)
		switch k := gen.Intn(10); {
		case k == 0:
			out[i] = lat.EpochStats{}
		case k == 1 && i > 0:
			out[i] = out[i-1]
		case k == 2 && i > 0:
			out[i] = out[i-1]
			out[i].P50++
		}
	}
	return out
}
