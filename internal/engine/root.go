package engine

import (
	"cmp"
	"math"
	"slices"
	"time"

	"heracles/internal/lat"
)

const (
	// z99 is the standard normal's 99th-percentile quantile: a lognormal with
	// median p50 and 99th percentile p99 has sigma = ln(p99/p50)/z99.
	z99          = 2.326
	rootTail     = 7.0 // tails are cut where the normal tail Q(7) = 1.3e-12 is left
	rootMaxNodes = 200 // grid size bound, whatever the leaves are
)

// rootGroup is the leaves of the current epoch that share one lognormal.
type rootGroup struct {
	mu, sigma float64 // mean and deviation (> 0) of ln latency in seconds
	scale     float64 // 1/(sigma sqrt 2): erfc's argument per unit of ln latency
	n         int     // leaves with exactly these parameters
}

// RootSampler computes the mean latency of a fan-out root that waits for
// the slowest of its leaves. The zero value is ready; its scratch is
// rebuilt from each call's arguments (a warmed one allocates nothing) and
// is not simulation state: it is never checkpointed.
type RootSampler struct {
	groups []rootGroup
}

// Mean returns E[max X_i] over the leaves that answer (P50 > 0: a dark
// leaf reports empty stats), X_i lognormal through its p50 and p99; a leaf
// with p99 <= p50 is the constant p50, a floor under the maximum. It is a
// pure function of the multiset of (P50, P99) pairs — no random numbers,
// no dependence on leaf order — and saturates beyond the Duration range.
//
// It integrates (1 - prod Phi((u-mu_i)/sigma_i)) e^u over u = ln latency on
// a uniform grid of at most rootMaxNodes steps, tails cut at 7 sigma
// (DESIGN.md §5, "Root latency by quadrature"). Error: the cuts cost under
// (2N+1) 1.3e-12 of the result and the grid under 1e-6 of it
// (TestRootMeanWithinStatedBound), unless the N leaves kept span more than
// rootMaxNodes steps of h = min sigma / max(2, 1.5 sqrt(ln N)); the step is
// then stretched and the bound is the integrand's variation, 2h of the result.
func (r *RootSampler) Mean(leafStats []lat.EpochStats) time.Duration {
	groups := r.groups[:0]
	floor, lo := 0.0, math.Inf(-1)
	for _, ls := range leafStats {
		p50, p99 := ls.P50.Seconds(), ls.P99.Seconds()
		if p50 <= 0 {
			continue
		}
		sigma := math.Log(p99/p50) / z99
		if !(sigma > 0) { // p99 <= p50, or no p99 at all (NaN, -Inf)
			floor = max(floor, p50)
			continue
		}
		g := rootGroup{mu: math.Log(p50), sigma: sigma, scale: 1 / (sigma * math.Sqrt2), n: 1}
		groups = append(groups, g)
		lo = max(lo, g.mu-rootTail*sigma)
	}
	// Below lo = max(ln floor, max(mu - 7 sigma)) the floor holds the maximum
	// or no leaf has answered yet: the integrand is e^u, e^lo in all.
	mean := math.Exp(lo) // 0 when nothing answered
	floored := floor > 0 && math.Log(floor) >= lo
	if floored {
		mean, lo = floor, math.Log(floor)
	}

	// Keep the leaves that reach lo (the others have under Q(7) of their own
	// mean above it), identical ones merged; hi is the furthest reach.
	slices.SortFunc(groups, func(a, b rootGroup) int {
		return cmp.Or(cmp.Compare(a.mu, b.mu), cmp.Compare(a.sigma, b.sigma))
	})
	kept := groups[:0]
	hi, minSigma, n := lo, math.Inf(1), 0.0
	for _, g := range groups {
		reach := g.mu + g.sigma*(g.sigma+rootTail)
		if reach <= lo {
			continue
		}
		if k := len(kept) - 1; k >= 0 && kept[k].mu == g.mu && kept[k].sigma == g.sigma {
			kept[k].n++
		} else {
			kept = append(kept, g)
		}
		hi, minSigma, n = max(hi, reach), min(minSigma, g.sigma), n+1
	}
	r.groups = kept

	if n > 0 {
		h := minSigma / max(2, 1.5*math.Sqrt(math.Log(n)))
		nodes := min(math.Ceil((hi-lo)/h), rootMaxNodes)
		h = max(h, (hi-lo)/nodes)
		var sum float64
		if floored { // the integrand is cut off at lo: three-point Gauss-Legendre panels
			for j := 0.0; j < nodes; j++ {
				mid, d := lo+(j+0.5)*h, h/2*0.7745966692414834 // sqrt(3/5)
				sum += 5*r.excess(mid-d) + 8*r.excess(mid) + 5*r.excess(mid+d)
			}
			mean += sum * h / 18
		} else { // trapezoid on lo+jh; its nodes below lo sum to e^lo/(e^h-1)
			for j := 0.0; j <= nodes; j++ {
				sum += r.excess(lo + j*h)
			}
			mean = (mean/math.Expm1(h) + sum) * h
		}
	}
	if ns := mean*float64(time.Second) + 0.5; ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// excess is the integrand (1-G(u)) e^u. 1-G is built from the groups'
// upper tails q as c <- c + q(1-c), every term non-negative, so it keeps
// its relative precision where 1 - prod Phi would cancel.
func (r *RootSampler) excess(u float64) float64 {
	c := 0.0
	for _, g := range r.groups {
		q := 0.5 * math.Erfc((u-g.mu)*g.scale)
		if g.n > 1 {
			q = -math.Expm1(float64(g.n) * math.Log1p(-q)) // 1 - (1-q)^n
		}
		if c += q * (1 - c); c == 1 {
			break // every further term is multiplied by 1-c = 0
		}
	}
	return c * math.Exp(u)
}
