package lat

import (
	"math"
	"testing"
	"time"
)

func params(mean time.Duration, sigma float64) ServiceParams {
	return ServiceParams{Mean: mean, Sigma: sigma}
}

func TestAnalyticLowLoadNearService(t *testing.T) {
	var e Analytic
	es := e.Epoch(params(10*time.Millisecond, 0.4), 10, 36, time.Second)
	// At trivial load, p50 should be near the service median and p99 near
	// the lognormal service p99 — no queueing.
	if es.P50 > 11*time.Millisecond || es.P50 < 8*time.Millisecond {
		t.Fatalf("p50 = %v", es.P50)
	}
	if es.P99 < es.P95 || es.P95 < es.P50 {
		t.Fatal("quantiles out of order")
	}
	if es.Utilisation > 0.01 {
		t.Fatalf("util = %v", es.Utilisation)
	}
}

func TestAnalyticMonotoneInLoad(t *testing.T) {
	var e Analytic
	prev := time.Duration(0)
	for _, lambda := range []float64{100, 1000, 2000, 3000, 3400, 3550} {
		es := e.Epoch(params(10*time.Millisecond, 0.4), lambda, 36, time.Second)
		if es.P99 < prev {
			t.Fatalf("p99 not monotone at lambda=%v: %v < %v", lambda, es.P99, prev)
		}
		prev = es.P99
	}
}

func TestAnalyticOverloadCapsServed(t *testing.T) {
	var e Analytic
	es := e.Epoch(params(10*time.Millisecond, 0.4), 10000, 36, time.Second)
	if es.ServedQPS > 3600 {
		t.Fatalf("served %v exceeds capacity", es.ServedQPS)
	}
	if es.P99 < 100*time.Millisecond {
		t.Fatalf("overloaded p99 = %v, want large", es.P99)
	}
	if es.Utilisation != 1 {
		t.Fatalf("overload util = %v", es.Utilisation)
	}
}

func TestAnalyticNetTimeAdds(t *testing.T) {
	var e Analytic
	base := e.Epoch(params(time.Millisecond, 0.3), 100, 8, time.Second)
	withNet := e.Epoch(ServiceParams{Mean: time.Millisecond, Sigma: 0.3, NetTime: time.Millisecond}, 100, 8, time.Second)
	diff := withNet.P99 - base.P99
	if diff < 900*time.Microsecond || diff > 1100*time.Microsecond {
		t.Fatalf("net time contribution = %v, want ~1ms", diff)
	}
}

func TestAnalyticTailAddHitsTailOnly(t *testing.T) {
	var e Analytic
	p := ServiceParams{Mean: time.Millisecond, Sigma: 0.3, TailAdd: 10 * time.Millisecond, TailProb: 0.02}
	es := e.Epoch(p, 100, 8, time.Second)
	base := e.Epoch(params(time.Millisecond, 0.3), 100, 8, time.Second)
	if es.P99-base.P99 < 9*time.Millisecond {
		t.Fatalf("p99 should absorb the full tail add: diff=%v", es.P99-base.P99)
	}
	if es.P50-base.P50 > 2*time.Millisecond {
		t.Fatalf("p50 should barely move: diff=%v", es.P50-base.P50)
	}
}

func TestAnalyticZeroService(t *testing.T) {
	var e Analytic
	es := e.Epoch(params(0, 0.3), 100, 8, time.Second)
	if es.P99 != 0 {
		t.Fatalf("zero service p99 = %v", es.P99)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	es := EpochStats{P50: 10 * time.Millisecond, P95: 20 * time.Millisecond, P99: 40 * time.Millisecond}
	if es.Quantile(0.5) != es.P50 || es.Quantile(0.99) != es.P99 {
		t.Fatal("exact quantiles wrong")
	}
	mid := es.Quantile(0.95)
	if mid < es.P95-time.Microsecond || mid > es.P95+time.Microsecond {
		t.Fatalf("q95 = %v", mid)
	}
	q97 := es.Quantile(0.97)
	if q97 <= es.P95 || q97 >= es.P99 {
		t.Fatalf("q97 = %v outside (p95, p99)", q97)
	}
	if es.Quantile(0.999) != es.P99 {
		t.Fatal("beyond p99 should clamp")
	}
}

func TestDESDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		d := NewDES(7)
		var es EpochStats
		for i := 0; i < 5; i++ {
			es = d.Epoch(params(2*time.Millisecond, 0.4), 2000, 8, time.Second)
		}
		return es.P99
	}
	if run() != run() {
		t.Fatal("DES not deterministic for fixed seed")
	}
}

func TestDESBacklogPersistsAcrossEpochs(t *testing.T) {
	d := NewDES(3)
	// Overload for a few epochs, then drop to light load: the backlog
	// should keep latencies elevated in the first light epoch.
	for i := 0; i < 5; i++ {
		d.Epoch(params(10*time.Millisecond, 0.3), 2000, 8, time.Second)
	}
	after := d.Epoch(params(10*time.Millisecond, 0.3), 10, 8, time.Second)
	if after.P50 < 50*time.Millisecond {
		t.Fatalf("backlog ignored: p50=%v after overload", after.P50)
	}
}

func TestDESThinningBoundsEvents(t *testing.T) {
	d := NewDES(9)
	d.MaxEventsPerEpoch = 1000
	es := d.Epoch(params(10*time.Microsecond, 0.4), 1e6, 36, time.Second)
	// Served should still be reported at full scale.
	if es.ServedQPS < 5e5 {
		t.Fatalf("thinned served = %v", es.ServedQPS)
	}
}

func TestDESZeroLambda(t *testing.T) {
	d := NewDES(1)
	es := d.Epoch(params(time.Millisecond, 0.3), 0, 4, time.Second)
	if es.P99 != 0 || es.ServedQPS != 0 {
		t.Fatalf("idle epoch stats = %+v", es)
	}
}

func TestAnalyticUtilisationMatchesRho(t *testing.T) {
	var e Analytic
	s := 10 * time.Millisecond
	es := e.Epoch(params(s, 0.4), 1800, 36, time.Second)
	want := 1800 * s.Seconds() / 36
	if math.Abs(es.Utilisation-want) > 1e-9 {
		t.Fatalf("util = %v, want %v", es.Utilisation, want)
	}
}
