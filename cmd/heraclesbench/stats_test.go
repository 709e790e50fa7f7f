//go:build linux

package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}, {0.25, 3.25},
	} {
		if got := quantile(sorted, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an odd count = %v, want the middle value 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want the mean of the middle two, 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number")
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

// The spread the contract bounds is computed with Python's
// statistics.quantiles(values, n=4); the reference values below come
// from it.
func TestExclusiveQuartilesMatchPython(t *testing.T) {
	q1, q3 := exclusiveQuartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = exclusiveQuartiles([]float64{10.2, 9.9, 10.0})
	if !near(q1, 9.9) || !near(q3, 10.2) {
		t.Errorf("quartiles of three values = %v, %v, want 9.9, 10.2", q1, q3)
	}
	if got := spread([]float64{10.2, 9.9, 10.0}); !near(got, 0.03) {
		t.Errorf("spread = %v, want (10.2-9.9)/10.0", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []roundStats{
		{OpP50Ms: 0.20, HeavyOpMs: 50}, {OpP50Ms: 0.90, HeavyOpMs: 49}, {OpP50Ms: 0.21, HeavyOpMs: 51},
		{OpP50Ms: 0.19, HeavyOpMs: 300}, {OpP50Ms: 0.22, HeavyOpMs: 48},
	}
	if got := medianOfRounds(rounds, func(r roundStats) float64 { return r.OpP50Ms }); got != 0.21 {
		t.Errorf("op_p50_ms over rounds = %v, want 0.21: one disturbed round must not move the run's value", got)
	}
	if got := medianOfRounds(rounds, func(r roundStats) float64 { return r.HeavyOpMs }); got != 50 {
		t.Errorf("heavy_op_ms over rounds = %v, want 50", got)
	}
}

func TestSampleFloorIsAnError(t *testing.T) {
	if err := checkFloor("api-steady op", 999, 1000); err == nil {
		t.Error("a run one sample below its floor must be an error, not a number")
	}
	if err := checkFloor("api-steady op", 1000, 1000); err != nil {
		t.Errorf("a run at its floor is valid: %v", err)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupportedPercentile(c.n); !near(got, c.want) {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
