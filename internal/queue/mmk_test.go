package queue

import (
	"math"
	"testing"
	"testing/quick"
)

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: C(1, rho) = rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); math.Abs(got-rho) > 1e-9 {
			t.Fatalf("C(1,%v) = %v, want %v", rho, got, rho)
		}
	}
	// Classic table value: k=2, a=1 -> C = 1/3.
	if got := ErlangC(2, 1); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("C(2,1) = %v, want 1/3", got)
	}
}

func TestErlangCEdges(t *testing.T) {
	if got := ErlangC(4, 0); got != 0 {
		t.Fatalf("C(4,0)=%v", got)
	}
	if got := ErlangC(4, 4); got != 1 {
		t.Fatalf("C at saturation = %v, want 1", got)
	}
	if got := ErlangC(0, 1); got != 1 {
		t.Fatalf("C with no servers = %v", got)
	}
}

func TestErlangCMonotoneInLoad(t *testing.T) {
	prev := -1.0
	for a := 0.1; a < 8; a += 0.1 {
		c := ErlangC(8, a)
		if c < prev {
			t.Fatalf("ErlangC not monotone at a=%v", a)
		}
		prev = c
	}
}

func TestErlangCBoundedProperty(t *testing.T) {
	if err := quick.Check(func(k uint8, a float64) bool {
		kk := int(k%64) + 1
		aa := math.Abs(math.Mod(a, float64(kk)))
		c := ErlangC(kk, aa)
		return c >= 0 && c <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanWaitMM1(t *testing.T) {
	// M/M/1: Wq = rho*S/(1-rho).
	rho, s := 0.5, 2.0
	want := rho * s / (1 - rho)
	if got := MeanWait(ErlangC(1, rho), 1, rho, s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Wq = %v, want %v", got, want)
	}
}

func TestMeanWaitSaturation(t *testing.T) {
	if !math.IsInf(MeanWait(1, 4, 1.0, 1), 1) {
		t.Fatal("wait at saturation should be +Inf")
	}
	if got := MeanWait(0, 4, 0, 1); got != 0 {
		t.Fatalf("wait at zero load = %v", got)
	}
}

func TestWaitQuantileZeroWhenNoWaiting(t *testing.T) {
	// With tiny load, P(wait) < 1% and the 99th percentile wait is 0.
	if got := WaitQuantile(ErlangC(16, 0.05*16), 16, 0.05, 1, 0.99); got != 0 {
		t.Fatalf("wait q99 at 5%% load = %v, want 0", got)
	}
}

func TestWaitQuantileMonotoneInRho(t *testing.T) {
	prev := -1.0
	for rho := 0.5; rho < 0.99; rho += 0.01 {
		w := WaitQuantile(ErlangC(4, rho*4), 4, rho, 1, 0.99)
		if w < prev {
			t.Fatalf("wait quantile not monotone at rho=%v", rho)
		}
		prev = w
	}
}

func TestWaitQuantileMonotoneInQ(t *testing.T) {
	prev := -1.0
	for q := 0.5; q < 0.999; q += 0.01 {
		w := WaitQuantile(ErlangC(4, 0.9*4), 4, 0.9, 1, q)
		if w < prev {
			t.Fatalf("wait quantile not monotone at q=%v", q)
		}
		prev = w
	}
}

func TestWaitQuantileSaturation(t *testing.T) {
	if !math.IsInf(WaitQuantile(1, 4, 1, 1, 0.99), 1) {
		t.Fatal("q at saturation should be +Inf")
	}
}

func TestMGkWaitScale(t *testing.T) {
	if got := MGkWaitScale(1, 1); got != 1 {
		t.Fatalf("M/M scale = %v", got)
	}
	if got := MGkWaitScale(1, 0); got != 0.5 {
		t.Fatalf("deterministic service scale = %v", got)
	}
	if got := MGkWaitScale(-1, -1); got != 0 {
		t.Fatalf("negative CVs should clamp: %v", got)
	}
}

func TestLogNormalCS2(t *testing.T) {
	if got := LogNormalCS2(0); got != 0 {
		t.Fatalf("CS2(0) = %v", got)
	}
	want := math.Exp(0.25) - 1
	if got := LogNormalCS2(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CS2(0.5) = %v, want %v", got, want)
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.99, 2.326348},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := NormQuantile(c.q); math.Abs(got-c.want) > 1e-4 {
			t.Fatalf("NormQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("edges should be infinite")
	}
}

func TestLogNormalQuantileMedianAndMean(t *testing.T) {
	mean, sigma := 4.0, 0.7
	med := LogNormalQuantile(mean, sigma, 0.5)
	want := mean * math.Exp(-sigma*sigma/2)
	if math.Abs(med-want) > 1e-9 {
		t.Fatalf("median = %v, want %v", med, want)
	}
	if LogNormalQuantile(0, sigma, 0.5) != 0 {
		t.Fatal("zero mean should give zero")
	}
}

func TestSaturationInflationShape(t *testing.T) {
	if got := SaturationInflation(0, 0.12, 4); got != 1 {
		t.Fatalf("g(0) = %v", got)
	}
	low := SaturationInflation(0.5, 0.12, 4)
	high := SaturationInflation(0.95, 0.12, 4)
	if low > 1.05 {
		t.Fatalf("g(0.5) = %v, want near 1", low)
	}
	if high < 2 {
		t.Fatalf("g(0.95) = %v, want >2", high)
	}
	// Clamped beyond 0.995 so it stays finite.
	if g := SaturationInflation(5, 0.12, 4); math.IsInf(g, 0) || g < high {
		t.Fatalf("clamped g = %v", g)
	}
}

func TestSaturationInflationMonotone(t *testing.T) {
	prev := 0.0
	for rho := 0.0; rho <= 1.2; rho += 0.01 {
		g := SaturationInflation(rho, 0.1, 4)
		if g < prev {
			t.Fatalf("inflation not monotone at rho=%v", rho)
		}
		prev = g
	}
}
