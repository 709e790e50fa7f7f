package workload

import (
	"time"

	"heracles/internal/cache"
)

// LCSpec describes a latency-critical workload before calibration.
// Durations are at nominal frequency with the full LLC and an idle memory
// system; the machine model scales them by contention factors.
type LCSpec struct {
	Name string

	// SLOQuantile is the tail percentile the SLO is defined on
	// (0.99 for websearch and memkeyval, 0.95 for ml_cluster).
	SLOQuantile float64
	// SLOMultiplier sets the SLO as a multiple of the unloaded tail
	// latency; calibration computes SLO = SLOMultiplier * p(q) at 5% load
	// on the reference machine. Figure 4 of the paper implies ~2.5x for
	// websearch/ml_cluster and ~5x for memkeyval (whose unloaded latency
	// is a tiny fraction of its SLO).
	SLOMultiplier float64

	// Service-time decomposition per request.
	CPUTime time.Duration // pure compute at nominal GHz
	MemTime time.Duration // memory stalls with full LLC, idle DRAM
	Sigma   float64       // lognormal sigma of the service-time distribution

	// Cache and memory behaviour.
	AccessesPerReq  float64           // LLC accesses per request
	CacheComponents []cache.Component // working-set decomposition
	RefOutstanding  float64           // concurrency at which ScalesWithLoad footprints are specified

	// Network.
	BytesPerReq float64 // egress bytes per response
	Flows       int     // TCP flows used by the service

	// Power.
	Activity float64 // per-core power activity factor while processing

	// RampPenalty scales the additive tail-latency penalty that appears
	// when the package is power-saturated while the LC cores are mostly
	// idle (active-idle exit plus frequency ramp; paper §3.3 "power
	// interference has significant impact at lower utilization").
	RampPenalty time.Duration

	// OSSharedPenalty is the scheduling-delay tail added when the
	// workload shares cores with a BE task under plain CFS (the "brain"
	// rows of Figure 1).
	OSSharedPenalty time.Duration
}

// LC is a calibrated latency-critical workload instance.
type LC struct {
	Spec LCSpec

	// Calibrated on the reference machine (see machine.CalibrateLC).
	SLO           time.Duration // tail-latency target
	PeakQPS       float64       // 100% load; max QPS meeting the SLO alone
	GuaranteedGHz float64       // frequency when running alone at full load
}

// BaseService returns the mean service time with no contention.
func (s LCSpec) BaseService() time.Duration { return s.CPUTime + s.MemTime }

// Websearch returns the model of the query-serving leaf of a production
// web search service (§3.1): compute-intensive scoring over a DRAM-resident
// index shard, ~40% of DRAM bandwidth at peak, a small but hot
// instruction+data working set, negligible network demand, 99%-ile SLO in
// the tens of milliseconds.
func Websearch() LCSpec {
	return LCSpec{
		Name:          "websearch",
		SLOQuantile:   0.99,
		SLOMultiplier: 2.6,
		CPUTime:       7500 * time.Microsecond,
		MemTime:       2500 * time.Microsecond,
		Sigma:         0.45,
		// ~672K LLC accesses/request; with the component mix below the
		// full-LLC miss ratio is ~1/3, giving ~14 MB of DRAM traffic per
		// request and ~40% of the machine's bandwidth at peak load.
		AccessesPerReq: 672e3,
		CacheComponents: []cache.Component{
			{Name: "hot", AccessFrac: 0.67, FootprintMB: 8, HitMax: 0.99, Theta: 0.6},
			{Name: "index", AccessFrac: 0.33, FootprintMB: 512, HitMax: 0.30, Theta: 1.0},
		},
		RefOutstanding:  32,
		BytesPerReq:     6 * 1024,
		Flows:           64,
		Activity:        1.0,
		RampPenalty:     22 * time.Millisecond,
		OSSharedPenalty: 90 * time.Millisecond,
	}
}

// MLCluster returns the model of the real-time text clustering service
// (§3.1): slightly less compute-intensive than websearch, more DRAM
// bandwidth (~60% at peak) with super-linear growth versus load because
// each outstanding request adds a small cache footprint, 95%-ile SLO in
// the tens of milliseconds, no network demand to speak of.
func MLCluster() LCSpec {
	return LCSpec{
		Name:           "ml_cluster",
		SLOQuantile:    0.95,
		SLOMultiplier:  2.3,
		CPUTime:        4200 * time.Microsecond,
		MemTime:        1800 * time.Microsecond,
		Sigma:          0.40,
		AccessesPerReq: 440e3,
		CacheComponents: []cache.Component{
			// Per-request working set: small per request, but it scales
			// with the number of outstanding requests, which is what
			// spills to DRAM at load (§3.1) — near peak the aggregate
			// footprint approaches the full LLC and misses grow
			// super-linearly.
			{Name: "per-request", AccessFrac: 0.55, FootprintMB: 29, HitMax: 0.97, Theta: 0.7, ScalesWithLoad: true},
			{Name: "model", AccessFrac: 0.45, FootprintMB: 360, HitMax: 0.32, Theta: 1.0},
		},
		RefOutstanding:  24,
		BytesPerReq:     2 * 1024,
		Flows:           48,
		Activity:        0.85,
		RampPenalty:     4 * time.Millisecond,
		OSSharedPenalty: 35 * time.Millisecond,
	}
}

// Memkeyval returns the model of the in-memory key-value store (§3.1):
// very little processing per request, hundreds of thousands of requests
// per second at peak, 99%-ile SLO of a few hundred microseconds, network
// bandwidth limited at peak, low DRAM bandwidth (~20% at peak), and both a
// static instruction working set and a per-request data working set.
func Memkeyval() LCSpec {
	return LCSpec{
		Name:           "memkeyval",
		SLOQuantile:    0.99,
		SLOMultiplier:  5.0,
		CPUTime:        34 * time.Microsecond,
		MemTime:        6 * time.Microsecond,
		Sigma:          0.55,
		AccessesPerReq: 3500,
		CacheComponents: []cache.Component{
			{Name: "instructions", AccessFrac: 0.45, FootprintMB: 4, HitMax: 0.995, Theta: 0.5},
			{Name: "per-request", AccessFrac: 0.55, FootprintMB: 10, HitMax: 0.80, Theta: 0.9, ScalesWithLoad: true},
		},
		RefOutstanding:  16,
		BytesPerReq:     1350,
		Flows:           64,
		Activity:        1.05,
		RampPenalty:     1200 * time.Microsecond,
		OSSharedPenalty: 2500 * time.Microsecond,
	}
}

var (
	lcCtors = []func() LCSpec{Websearch, MLCluster, Memkeyval}
	lcNamed = byName(lcCtors, func(s LCSpec) string { return s.Name })
)

// LCSpecs returns the three latency-critical workload models in the order
// the paper presents them.
func LCSpecs() []LCSpec { return build(lcCtors) }

// LCByName returns the LC spec with the given name, or false. It builds
// only the spec it returns, a copy the caller owns.
func LCByName(name string) (LCSpec, bool) {
	if f, ok := lcNamed[name]; ok {
		return f(), true
	}
	return LCSpec{}, false
}

// HasLC reports whether LCByName resolves name, building nothing.
func HasLC(name string) bool { return lcNamed[name] != nil }
