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

// refRootMean and sampleLeaf are the root estimator as it stood before the
// quadrature: the mean over samples of the slowest leaf's lognormal draw.
// They are the Monte Carlo reference RootSampler.Mean must sit inside; the
// second result is the standard error of the first. Both are in seconds.
func refRootMean(leafStats []lat.EpochStats, samples int, rng *sim.RNG) (mean, stderr float64) {
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		var worst float64
		for _, ls := range leafStats {
			v := sampleLeaf(ls, rng)
			if v > worst {
				worst = v
			}
		}
		sum += worst
		sumSq += worst * worst
	}
	n := float64(samples)
	mean = sum / n
	return mean, math.Sqrt(math.Max(sumSq/n-mean*mean, 0) / n)
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

// fineRootMean is the same expectation by brute force, sharing nothing
// with RootSampler.Mean but the model: no leaf is dropped, the tails are
// cut at 9 sigma instead of 7, every panel is a sixteenth of the width
// Mean's rule would pick and carries five Gauss-Legendre nodes, and 1 - G
// comes from sum n log Phi through Expm1 (n counting identical leaves). It
// costs distinct leaves x 80 x (hi - lo)/h evaluations, so it is for leaf
// sets whose grid Mean does not have to stretch. Seconds.
func fineRootMean(leafStats []lat.EpochStats) float64 {
	type leafParam struct{ mu, sigma float64 }
	var (
		count    = map[leafParam]float64{}
		live     float64
		floor    float64
		lo, hi   = math.Inf(-1), math.Inf(-1)
		minSigma = math.Inf(1)
	)
	for _, ls := range leafStats {
		p50, p99 := ls.P50.Seconds(), ls.P99.Seconds()
		if p50 <= 0 {
			continue
		}
		if p99 <= p50 {
			floor = math.Max(floor, p50)
			continue
		}
		p := leafParam{math.Log(p50), math.Log(p99/p50) / 2.326}
		count[p]++
		live++
		lo = math.Max(lo, p.mu-9*p.sigma)
		hi = math.Max(hi, p.mu+p.sigma*(p.sigma+9))
		minSigma = math.Min(minSigma, p.sigma)
	}
	if floor > 0 {
		lo = math.Max(lo, math.Log(floor))
	}
	if live == 0 || hi <= lo {
		return math.Max(floor, math.Exp(lo))
	}
	excess := func(u float64) float64 {
		var logG float64
		for p, n := range count {
			if z := (u - p.mu) / p.sigma; z > 0 {
				logG += n * math.Log1p(-0.5*math.Erfc(z/math.Sqrt2))
			} else {
				logG += n * math.Log(0.5*math.Erfc(-z/math.Sqrt2))
			}
		}
		return -math.Expm1(logG) * math.Exp(u)
	}
	h := minSigma / math.Max(2, 1.5*math.Sqrt(math.Log(live))) / 16
	panels := math.Ceil((hi - lo) / h)
	h = (hi - lo) / panels
	nodes := [5]float64{-0.9061798459386640, -0.5384693101056831, 0, 0.5384693101056831, 0.9061798459386640}
	weights := [5]float64{0.2369268850561891, 0.4786286704993665, 0.5688888888888889, 0.4786286704993665, 0.2369268850561891}
	var sum float64
	for p := 0.0; p < panels; p++ {
		mid := lo + (p+0.5)*h
		for i, x := range nodes {
			sum += weights[i] * excess(mid+x*h/2)
		}
	}
	return math.Exp(lo) + sum*h/2
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

// lognormalLeaf is the leaf with the given median whose ln latency has the
// given standard deviation.
func lognormalLeaf(p50 time.Duration, sigma float64) lat.EpochStats {
	return leaf(p50, time.Duration(float64(p50)*math.Exp(2.326*sigma)))
}

type rootCase struct {
	name   string
	leaves []lat.EpochStats
}

// rootLeafTable is PR 16's table of leaf sets: the shapes that broke, or
// could have broken, an implementation of the root mean.
func rootLeafTable() []rootCase {
	const ms = time.Millisecond
	maxDur := time.Duration(math.MaxInt64)
	// Five weeks: up here most medians 1 ns apart are different float64
	// seconds with the same float64 logarithm.
	const big = 3_000_000 * time.Second
	nsRun := func(first, step time.Duration) []lat.EpochStats {
		out := make([]lat.EpochStats, 32)
		for i := range out {
			out[i] = leaf(first+step*time.Duration(i), 0)
		}
		return out
	}
	return []rootCase{
		{"no leaves", nil},
		{"all dark", repeatLeaf(lat.EpochStats{}, 5)},
		{"negative median is dark", []lat.EpochStats{leaf(-ms, 4*ms), leaf(3*ms, 9*ms)}},
		{"one dark among live", []lat.EpochStats{leaf(5*ms, 20*ms), {}, leaf(6*ms, 18*ms), leaf(4*ms, 30*ms)}},
		{"dark first and last", []lat.EpochStats{{}, leaf(5*ms, 20*ms), leaf(6*ms, 18*ms), {}}},
		{"p99 below p50 clamps to sigma 0", []lat.EpochStats{leaf(8*ms, 2*ms), leaf(5*ms, 20*ms)}},
		{"sigma 0 among live", []lat.EpochStats{leaf(8*ms, 8*ms), leaf(5*ms, 20*ms), leaf(7*ms, 7*ms)}},
		{"sigma 0 below every live leaf's reach", []lat.EpochStats{leaf(ms, ms), leaf(5*ms, 6*ms), leaf(6*ms, 7*ms)}},
		{"every leaf sigma 0", []lat.EpochStats{leaf(8*ms, 8*ms), leaf(9*ms, 9*ms), leaf(7*ms, 1*ms)}},
		{"single leaf", []lat.EpochStats{leaf(5*ms, 20*ms)}},
		{"single leaf sigma 0", []lat.EpochStats{leaf(5*ms, 5*ms)}},
		{"identical leaves", repeatLeaf(leaf(5*ms, 20*ms), 8)},
		{"identical leaves sigma 0", repeatLeaf(leaf(5*ms, 5*ms), 8)},
		{"1 ns apart", []lat.EpochStats{leaf(5*ms, 20*ms), leaf(5*ms+1, 20*ms), leaf(5*ms+2, 20*ms+1)}},
		{"1 ns apart sigma 0", []lat.EpochStats{leaf(5*ms, 5*ms), leaf(5*ms+1, 5*ms+1), leaf(5*ms-1, 0)}},
		{"1 ns apart sigma 0 at ten seconds", []lat.EpochStats{leaf(10*time.Second, 0), leaf(10*time.Second+1, 0), leaf(10*time.Second-1, 0)}},
		{"1 ns apart sigma 0 logs tie ascending", nsRun(big, 1)},
		{"1 ns apart sigma 0 logs tie descending", nsRun(big+31, -1)},
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
		// The widest lognormal a Duration pair can express (sigma 18.8): its
		// mean, 1 ns x e^177, is far outside the Duration range.
		{"widest ratio overflows the Duration", []lat.EpochStats{leaf(1, maxDur), leaf(5*ms, 20*ms)}},
		{"widest ratio everywhere", repeatLeaf(leaf(1, maxDur), 6)},
		{"longest median", []lat.EpochStats{leaf(maxDur, maxDur), leaf(maxDur-1, maxDur)}},
	}
}

// checkAgainstFine requires Mean within the stated 1e-6 of the fine
// integration (plus the nanosecond the Duration conversion drops), or
// saturated where the fine value is beyond the Duration range.
func checkAgainstFine(t *testing.T, rs *engine.RootSampler, tc rootCase) {
	t.Helper()
	got := rs.Mean(tc.leaves)
	fine := fineRootMean(tc.leaves) * float64(time.Second)
	if fine >= math.MaxInt64 {
		if got != math.MaxInt64 {
			t.Errorf("%s: Mean = %d ns, want saturation (fine integration %.3g ns)", tc.name, got, fine)
		}
		return
	}
	if diff := math.Abs(float64(got) - fine); diff > 1e-6*fine+1 {
		t.Errorf("%s: Mean = %d ns, fine integration %.3f ns: off by %.2e of it", tc.name, got, fine, diff/fine)
	}
}

// TestRootSamplerMatchesReference holds the quadrature inside the old
// sampler's 99.9 % confidence interval (3.29 standard errors at 10^5
// samples, fewer for the 1500-leaf row) and within the stated bound of the
// fine integration, on every row of the leaf table. The rows whose mean is
// beyond the Duration range have no interval to sit in — the sampler's
// draws stop at 12 sigma, its mean is whatever its largest draw was — and
// are held to saturation alone. The 1e-9 of slack is the reference's own
// float64 sum at medians of weeks.
func TestRootSamplerMatchesReference(t *testing.T) {
	// One sampler for everything, so every case also inherits scratch of
	// another size and with another case's parameters in it.
	var rs engine.RootSampler
	for i, tc := range rootLeafTable() {
		checkAgainstFine(t, &rs, tc)
		got := rs.Mean(tc.leaves)
		if got == math.MaxInt64 {
			continue
		}
		samples := 100_000
		if testing.Short() {
			samples = 10_000
		}
		if n := len(tc.leaves); n*samples > 5_000_000 {
			samples = 5_000_000 / n
		}
		mean, stderr := refRootMean(tc.leaves, samples, sim.DeriveRNG(22, uint64(i)))
		if diff := math.Abs(got.Seconds() - mean); diff > 3.29*stderr+1e-9*mean+2e-9 {
			t.Errorf("%s: Mean = %v, %d-sample reference %.9f s ± %.2e: %.1f standard errors away",
				tc.name, got, samples, mean, stderr, diff/stderr)
		}
	}
}

// TestRootMeanWithinStatedBound is the error bound of RootSampler.Mean's
// doc comment: within 1e-6 of the fine integration wherever the grid is
// not stretched — like leaves from 1 to 1500 of them and from the
// narrowest to the widest tail a Duration pair can express, unlike leaves,
// and floors that cut the integrand at every height.
func TestRootMeanWithinStatedBound(t *testing.T) {
	const ms = time.Millisecond
	var (
		rs    engine.RootSampler
		cases []rootCase
	)
	counts := []int{1, 2, 3, 8, 64, 1500}
	if testing.Short() {
		counts = []int{1, 2, 3, 8, 64}
	}
	for _, n := range counts {
		for _, sigma := range []float64{0.05, 0.3, 0.6, 1, 2, 5, 8, 18} {
			p50 := 5 * ms
			if sigma > 2 {
				p50 = 1 // leave the tail room inside the Duration range
			}
			cases = append(cases, rootCase{fmt.Sprintf("%d like leaves, sigma %v", n, sigma),
				repeatLeaf(lognormalLeaf(p50, sigma), n)})
		}
		gen := sim.NewRNG(uint64(n))
		for _, sigma := range []float64{0.3, 0.6} {
			unlike := make([]lat.EpochStats, n)
			for i := range unlike {
				unlike[i] = lognormalLeaf(time.Duration((5+2*gen.Float64())*float64(ms)), sigma*(0.8+0.4*gen.Float64()))
			}
			cases = append(cases, rootCase{fmt.Sprintf("%d unlike leaves, sigma about %v", n, sigma), unlike})
		}
	}
	// A floor from far below the live leaves (it does not bind) to far
	// above them (it is the whole answer).
	for _, floor := range []time.Duration{ms, 3 * ms, 5 * ms, 8 * ms, 12 * ms, 20 * ms, 40 * ms, 200 * ms} {
		cases = append(cases, rootCase{fmt.Sprintf("floor at %v under 8 leaves", floor),
			append(repeatLeaf(leaf(5*ms, 20*ms), 7), leaf(6*ms, 15*ms), leaf(floor, floor))})
	}
	for _, tc := range cases {
		checkAgainstFine(t, &rs, tc)
	}
}

// TestRootMeanIsAPureFunctionOfTheLeafSet: non-negative, the same for any
// leaf order and any scratch left behind, and free of allocation — for
// every kind of Duration pair, including the ones whose grid is stretched
// and carries no accuracy claim.
func TestRootMeanIsAPureFunctionOfTheLeafSet(t *testing.T) {
	cases := 5000
	if testing.Short() {
		cases = 500
	}
	var rs, fresh engine.RootSampler
	gen := sim.NewRNG(16)
	for c := 0; c < cases; c++ {
		leaves := randomLeaves(gen)
		got := rs.Mean(leaves)
		if got < 0 {
			t.Fatalf("case %d: Mean = %v\nleaves: %v", c, got, leaves)
		}
		for i := len(leaves) - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			leaves[i], leaves[j] = leaves[j], leaves[i]
		}
		fresh = engine.RootSampler{}
		if again := fresh.Mean(leaves); again != got {
			t.Fatalf("case %d: Mean = %v, %v after a shuffle on a fresh sampler\nleaves: %v", c, got, again, leaves)
		}
	}

	spread := rootLeafTable()[3].leaves
	if allocs := testing.AllocsPerRun(100, func() { rs.Mean(spread) }); allocs != 0 {
		t.Fatalf("a warmed sampler allocates %v times per Mean", allocs)
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

// BenchmarkRootMean1500 is the cost bound at a size no cluster here
// reaches: 1500 distinct leaves through the quadrature, beside 200 samples
// of the old loop over the same leaves.
func BenchmarkRootMean1500(b *testing.B) {
	gen := sim.NewRNG(1500)
	leaves := make([]lat.EpochStats, 1500)
	for i := range leaves {
		leaves[i] = lognormalLeaf(time.Duration((5+2*gen.Float64())*float64(time.Millisecond)), 0.3+0.4*gen.Float64())
	}
	b.Run("quadrature", func(b *testing.B) {
		var rs engine.RootSampler
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs.Mean(leaves)
		}
	})
	b.Run("sampler200", func(b *testing.B) {
		rng := sim.NewRNG(1)
		for i := 0; i < b.N; i++ {
			refRootMean(leaves, 200, rng)
		}
	})
}
