package lat

import (
	"container/heap"
	"math"
	"time"

	"heracles/internal/queue"
	"heracles/internal/sim"
)

// ServiceParams captures everything the latency engine needs about one
// control epoch. All contention effects have already been folded in by the
// machine model.
type ServiceParams struct {
	Mean  time.Duration // inflated mean service time
	Sigma float64       // lognormal sigma of the service distribution

	// NetTime is the per-request egress serialisation time including
	// transmit-queueing inflation; it adds to latency but does not occupy
	// a core.
	NetTime time.Duration

	// TailAdd is an additive delay suffered by a fraction TailProb of
	// requests (power-ramp wakeups, CFS scheduling delays in OS-shared
	// mode). It shapes the tail without shifting the median much.
	TailAdd  time.Duration
	TailProb float64
}

// EpochStats summarises the latency behaviour of one epoch.
type EpochStats struct {
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration

	OfferedQPS  float64
	ServedQPS   float64
	Utilisation float64 // core occupancy lambda*S/k, clamped to [0, 1]
}

// Quantile returns the epoch latency at quantile q by interpolating the
// summary points; it is exact at 0.5, 0.95 and 0.99.
func (e EpochStats) Quantile(q float64) time.Duration {
	switch {
	case q <= 0.5:
		return e.P50
	case q <= 0.95:
		f := (q - 0.5) / 0.45
		return e.P50 + time.Duration(f*float64(e.P95-e.P50))
	case q <= 0.99:
		f := (q - 0.95) / 0.04
		return e.P95 + time.Duration(f*float64(e.P99-e.P95))
	default:
		return e.P99
	}
}

// Analytic is the closed-form engine, the one a machine runs. It keeps
// no state: Epoch is a pure function of its arguments, which is what lets
// the machine reuse the last epoch's result when they repeat.
type Analytic struct{}

// OverloadCap bounds reported latency during overload so tables remain
// finite; it corresponds to the paper's ">300%" entries.
const OverloadCap = 100.0

// Epoch returns the latency statistics of one epoch of length dt with
// arrival rate lambda (QPS) and the given number of serving cores.
func (Analytic) Epoch(p ServiceParams, lambda float64, servers int, dt time.Duration) EpochStats {
	s := p.Mean.Seconds()
	if servers < 1 {
		servers = 1
	}
	if s <= 0 {
		return EpochStats{OfferedQPS: lambda}
	}
	k := float64(servers)
	rho := lambda * s / k
	served := lambda
	if rho >= 1 {
		served = k / s * 0.999
	}

	effRho := math.Min(rho, 0.99)
	pw := queue.ErlangC(servers, effRho*k) // one probability of waiting for the mean and every quantile
	scale := queue.MGkWaitScale(1, queue.LogNormalCS2(p.Sigma))
	waitQ := func(q float64) float64 {
		return queue.WaitQuantile(pw, servers, effRho, s, q) * scale
	}
	serviceQ := func(q float64) float64 {
		return queue.LogNormalQuantile(s, p.Sigma, q)
	}
	tailAdd := func(q float64) float64 {
		if p.TailAdd <= 0 || p.TailProb <= 0 {
			return 0
		}
		frac := p.TailProb / (1 - q)
		if frac > 1 {
			frac = 1
		}
		return p.TailAdd.Seconds() * frac
	}
	overload := 1.0
	if rho >= 1 {
		// The backlog grows without bound in sustained overload; report a
		// steeply growing but finite proxy, capped for table rendering.
		overload = 1 + 25*(rho-1) + 10
	}
	net := p.NetTime.Seconds()
	at := func(q float64) time.Duration {
		v := (serviceQ(q) + waitQ(q) + net + tailAdd(q)) * overload
		cap := s * OverloadCap * 20
		if v > cap {
			v = cap
		}
		return time.Duration(v * float64(time.Second))
	}

	meanWait := queue.MeanWait(pw, servers, effRho, s) * scale
	mean := (s + meanWait + net) * overload
	if p.TailProb > 0 {
		mean += p.TailAdd.Seconds() * p.TailProb * overload
	}
	return EpochStats{
		Mean:        time.Duration(mean * float64(time.Second)),
		P50:         at(0.50),
		P95:         at(0.95),
		P99:         at(0.99),
		OfferedQPS:  lambda,
		ServedQPS:   served,
		Utilisation: math.Min(rho, 1),
	}
}

// DES is the discrete-event engine: the independent reference Analytic's
// M/G/k approximation is checked against (docs/FIDELITY.md, row 9). No
// machine can run it. It maintains queue state across epochs so backlogs
// persist through transient overload, exactly like a real server.
type DES struct {
	rng *sim.RNG
	// srv is a min-heap of the times at which each server becomes free.
	srv serverHeap
	// MaxEventsPerEpoch bounds simulation cost; epochs offering more
	// arrivals are thinned proportionally (documented in DESIGN.md).
	MaxEventsPerEpoch int

	now float64
}

// NewDES returns a DES engine seeded deterministically.
func NewDES(seed uint64) *DES {
	return &DES{rng: sim.NewRNG(seed), MaxEventsPerEpoch: 200000}
}

type serverHeap []float64

func (h serverHeap) Len() int           { return len(h) }
func (h serverHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h serverHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *serverHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *serverHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Epoch advances the queue by dt; arguments and result as Analytic.Epoch.
func (d *DES) Epoch(p ServiceParams, lambda float64, servers int, dt time.Duration) EpochStats {
	if servers < 1 {
		servers = 1
	}
	// Resize the server pool, preserving busy-until times where possible.
	for len(d.srv) < servers {
		heap.Push(&d.srv, d.now)
	}
	for len(d.srv) > servers {
		heap.Pop(&d.srv)
	}

	end := d.now + dt.Seconds()
	s := p.Mean.Seconds()
	if lambda <= 0 || s <= 0 {
		d.now = end
		return EpochStats{OfferedQPS: lambda}
	}

	effLambda := lambda
	thin := 1.0
	if max := d.MaxEventsPerEpoch; max > 0 {
		expected := lambda * dt.Seconds()
		if expected > float64(max) {
			thin = float64(max) / expected
			effLambda = lambda * thin
		}
	}

	lats := make([]float64, 0, int(effLambda*dt.Seconds())+16)
	var busy float64
	t := d.now
	for {
		t += d.rng.Exp(1 / effLambda)
		if t >= end {
			break
		}
		free := d.srv[0]
		start := t
		if free > start {
			start = free
		}
		svc := d.rng.LogNormal(s, p.Sigma)
		done := start + svc
		d.srv[0] = done
		heap.Fix(&d.srv, 0)
		busy += svc
		l := done - t + p.NetTime.Seconds()
		if p.TailAdd > 0 && p.TailProb > 0 && d.rng.Float64() < p.TailProb {
			l += d.rng.Exp(p.TailAdd.Seconds())
		}
		lats = append(lats, l)
	}
	d.now = end

	es := EpochStats{
		OfferedQPS:  lambda,
		ServedQPS:   float64(len(lats)) / dt.Seconds() / thin,
		Utilisation: math.Min(busy/(float64(servers)*dt.Seconds())/thin, 1),
	}
	if len(lats) == 0 {
		return es
	}
	es.Mean = time.Duration(meanOf(lats) * float64(time.Second))
	es.P50 = time.Duration(quantile(lats, 0.50) * float64(time.Second))
	es.P95 = time.Duration(quantile(lats, 0.95) * float64(time.Second))
	es.P99 = time.Duration(quantile(lats, 0.99) * float64(time.Second))
	return es
}

func meanOf(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
