package engine

import (
	"math"
	"time"

	"heracles/internal/lat"
	"heracles/internal/sim"
)

// z99 is the standard normal's 99th-percentile quantile: a lognormal with
// median p50 and 99th percentile p99 has sigma = ln(p99/p50)/z99.
const z99 = 2.326

// rootKeyMargin is how far below the largest log-space key a leaf may sit
// and still be evaluated exactly. It has to exceed twice the gap between
// a key and the log of the value the key stands for:
//
//   - lnP50 is math.Log of a Duration in seconds, |ln p50| < 23.1 (1 ns to
//     2^63 ns), correct to an ulp: 3.6e-15;
//   - the draw x = sigma*z has |z| <= 12.01 (Box-Muller over a 2^-52 grid:
//     sqrt(-2 ln 2^-104)) and sigma <= ln(2^63)/z99 = 18.8, so |x| < 226,
//     |lnP50 + x| < 256 and the sum rounds by at most half an ulp: 1.4e-14;
//   - p50*math.Exp(x) stays normal (1e-108 .. 1e109: no overflow, no
//     subnormals) and carries a relative error under 1.5 ulp, 3.4e-16 of
//     its logarithm.
//
// A leaf can therefore hold the largest exact value only if its key is
// within 2*(3.6e-15 + 1.4e-14 + 3.4e-16) < 4e-14 of the largest key. The
// margin is 25 000 times that, and still so narrow that in practice a
// second leaf falls inside it only when leaves tie (identical sigma-0
// leaves, or sigma-0 medians a nanosecond apart); that costs one more Exp.
const rootKeyMargin = 1e-9

// rootLeaf is one live leaf's lognormal parameters for the current epoch
// and its draw for the current sample.
type rootLeaf struct {
	p50   float64 // median latency, seconds
	lnP50 float64
	sigma float64
	x     float64 // this sample's N(0, sigma) draw
	key   float64 // lnP50 + x: the log of this sample's latency
}

// RootSampler estimates the mean latency of a fan-out root that waits for
// the slowest of its leaves. The zero value is ready; it keeps per-leaf
// scratch between calls so that a warmed sampler allocates nothing. The
// scratch is derived from each call's arguments and is not simulation
// state: it is never checkpointed.
type RootSampler struct {
	leaves []rootLeaf
}

// Mean estimates the mean fan-out latency: each request's latency is
// the maximum over per-node samples drawn from the nodes' latency
// distributions (approximated as lognormal matching each node's measured
// p50/p99). A node with no median (P50 <= 0: a dark leaf, which reports
// empty stats) draws nothing and contributes 0 to every maximum, i.e. the
// root waits only for the leaves that answer.
//
// Every sample draws rng.Norm(0, sigma) once per live leaf in leaf order
// and the result is the mean over samples of max(p50*exp(x)). The maximum
// is located in log space — ln p50 + x, one add per leaf — and
// p50*math.Exp(x) is evaluated only for the leaves within rootKeyMargin
// of the largest key, which is all the leaves that can hold the largest
// value; the result and the generator's state afterwards are bit for bit
// those of evaluating every leaf.
func (r *RootSampler) Mean(leafStats []lat.EpochStats, samples int, rng *sim.RNG) time.Duration {
	leaves := r.leaves[:0]
	for _, ls := range leafStats {
		p50 := ls.P50.Seconds()
		p99 := ls.P99.Seconds()
		if p50 <= 0 {
			continue
		}
		sigma := 0.0
		if p99 > p50 {
			sigma = math.Log(p99/p50) / z99
		}
		leaves = append(leaves, rootLeaf{p50: p50, lnP50: math.Log(p50), sigma: sigma})
	}
	r.leaves = leaves

	var sum float64
	for s := 0; s < samples; s++ {
		best := math.Inf(-1)
		for i := range leaves {
			l := &leaves[i]
			l.x = rng.Norm(0, l.sigma)
			l.key = l.lnP50 + l.x
			if l.key > best {
				best = l.key
			}
		}
		var worst float64
		for i := range leaves {
			if l := &leaves[i]; l.key >= best-rootKeyMargin {
				if v := l.p50 * math.Exp(l.x); v > worst {
					worst = v
				}
			}
		}
		sum += worst
	}
	return time.Duration(sum / float64(samples) * float64(time.Second))
}
