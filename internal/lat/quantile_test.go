package lat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileEmpty(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of empty input should be NaN")
	}
}

func TestQuantileSingle(t *testing.T) {
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile([]float64{7}, q); got != 7 {
			t.Fatalf("q=%v: got %v", q, got)
		}
	}
}

func TestQuantileExactRanks(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(v, c.q); got != c.want {
			t.Fatalf("q=%v: got %v want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{0, 10}
	if got := quantile(v, 0.5); got != 5 {
		t.Fatalf("got %v want 5", got)
	}
}

func TestQuantileClampsRange(t *testing.T) {
	v := []float64{1, 2, 3}
	if got := quantile(v, -1); got != 1 {
		t.Fatalf("q<0: got %v", got)
	}
	if got := quantile(v, 2); got != 3 {
		t.Fatalf("q>1: got %v", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	v := []float64{3, 1, 2}
	quantile(v, 0.5)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Fatalf("input mutated: %v", v)
	}
}

func TestQuantileOrderingProperty(t *testing.T) {
	if err := quick.Check(func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa, qb := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return quantile(vals, qa) <= quantile(vals, qb)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		q := quantile(vals, 0.5)
		return q >= sorted[0] && q <= sorted[len(sorted)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}
