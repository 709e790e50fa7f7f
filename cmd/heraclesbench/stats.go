//go:build linux

package main

import (
	"fmt"
	"math"
	"sort"
)

// The benchmark's arithmetic lives here and not in internal/stats (whose
// Quantile is the same estimator): a change to the repository must not
// be able to move the yardstick it is measured with.

// quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice by linear interpolation between the two closest ranks — the
// estimator Python's statistics.quantiles(method="inclusive") and most
// spreadsheets use. An empty slice yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of vals and returns its middle value (the mean of
// the two middle values for an even count).
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	return quantile(s, 0.5)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// exclusiveQuartiles returns the first and third quartile the way
// Python's statistics.quantiles(values, n=4) does by default (the
// "exclusive" method): position p*(n+1) on the 1-indexed sorted data.
// It is what the benchmark contract computes spreads with, so the
// self-check uses the same estimator. It needs at least two values.
func exclusiveQuartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the contract bounds.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := exclusiveQuartiles(vals)
	return (q3 - q1) / median(vals)
}

// highestSupportedPercentile is the highest of the usual tail
// percentiles that still has at least ten samples beyond it; with fewer
// than a hundred samples only the median is supported.
func highestSupportedPercentile(n int) float64 {
	best := 0.5
	// p = 1 - 1/k leaves n/k samples beyond it.
	for _, k := range []int{10, 20, 100, 1000, 10000} {
		if n >= 10*k {
			best = 1 - 1/float64(k)
		}
	}
	return best
}

// checkFloor turns a run that collected too few samples into an error:
// a percentile of a starved sample is not a number worth comparing.
func checkFloor(what string, n, floor int) error {
	if n < floor {
		return fmt.Errorf("%s: %d samples, below the floor of %d", what, n, floor)
	}
	return nil
}

// roundStats is what one measured round contributes: one value per
// end-to-end latency/throughput metric (host-normalised, see hostSlow),
// and beside them the wall-clock medians and the host probe, so a
// disturbed host is visible next to the numbers it would have moved. A
// run's metric is the median of its rounds' values.
type roundStats struct {
	OpP50Ms      float64 `json:"op_p50_ms"`
	OpP95Ms      float64 `json:"op_p95_ms"`
	OpsPerS      float64 `json:"ops_per_s"`
	HeavyOpMs    float64 `json:"heavy_op_ms"`
	OpN          int     `json:"op_n"`
	HeavyN       int     `json:"heavy_n"`
	RawOpP50Ms   float64 `json:"raw_op_p50_ms"`
	RawHeavyOpMs float64 `json:"raw_heavy_op_ms"`
	ProbeMs      float64 `json:"host_probe_ms"`
	Traced       bool    `json:"traced,omitempty"`
}

// medianOfRounds reduces per-round values to the run's value.
func medianOfRounds(rounds []roundStats, pick func(roundStats) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = pick(r)
	}
	return median(vals)
}
