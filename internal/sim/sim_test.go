package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now=%v, want 5s", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	NewClock(0).Advance(-time.Second)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp mean %.3f, want ~2.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(3, 2)
		sum += v
		sumsq += (v - 3) * (v - 3)
	}
	mean, sd := sum/n, math.Sqrt(sumsq/n)
	if math.Abs(mean-3) > 0.03 {
		t.Fatalf("Norm mean %.3f, want ~3", mean)
	}
	if math.Abs(sd-2) > 0.03 {
		t.Fatalf("Norm stddev %.3f, want ~2", sd)
	}
}

func TestRNGLogNormalMean(t *testing.T) {
	r := NewRNG(17)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormal(5, 0.6)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("LogNormal mean %.3f, want ~5", mean)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			if r.LogNormal(1, 0.5) <= 0 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveRNGStreamsIndependentAndStable(t *testing.T) {
	// Same (seed, index) -> identical stream.
	a, b := DeriveRNG(7, 3), DeriveRNG(7, 3)
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("derived stream not reproducible")
		}
	}
	// Adjacent indices and adjacent seeds diverge immediately.
	if DeriveRNG(7, 3).Uint64() == DeriveRNG(7, 4).Uint64() {
		t.Fatal("adjacent indices share a stream")
	}
	if DeriveRNG(7, 3).Uint64() == DeriveRNG(8, 3).Uint64() {
		t.Fatal("adjacent seeds share a stream")
	}
}
