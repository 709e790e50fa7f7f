package trace

import (
	"math"
	"time"

	"heracles/internal/sim"
)

// Point is one epoch of a load trace.
type Point struct {
	At   time.Duration
	Load float64 // fraction of peak
}

// Trace is a time-ordered sequence of load points.
type Trace []Point

// At returns the load at time t by stepping (piecewise-constant) through
// the trace. Before the first point it returns the first load; after the
// last, the last.
func (tr Trace) At(t time.Duration) float64 {
	if len(tr) == 0 {
		return 0
	}
	if t <= tr[0].At {
		return tr[0].Load
	}
	lo, hi := 0, len(tr)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tr[mid].At <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return tr[lo].Load
}

// Duration returns the time of the last point.
func (tr Trace) Duration() time.Duration {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].At
}

// DiurnalConfig parameterises the synthetic diurnal trace.
type DiurnalConfig struct {
	Duration time.Duration // total trace length (default 12 h)
	Step     time.Duration // epoch between points (default 1 min)
	MinLoad  float64       // trough load (default 0.20)
	MaxLoad  float64       // crest load (default 0.90)
	Noise    float64       // relative short-term noise (default 0.03)
	Spikes   int           // number of short traffic spikes (default 3)
	Seed     uint64
}

func (c DiurnalConfig) withDefaults() DiurnalConfig {
	if c.Duration == 0 {
		c.Duration = 12 * time.Hour
	}
	if c.Step == 0 {
		c.Step = time.Minute
	}
	if c.MinLoad == 0 {
		c.MinLoad = 0.20
	}
	if c.MaxLoad == 0 {
		c.MaxLoad = 0.85
	}
	if c.Noise == 0 {
		c.Noise = 0.03
	}
	if c.Spikes == 0 {
		c.Spikes = 3
	}
	return c
}

// Diurnal synthesises a half-day diurnal load curve: a smooth rise from
// the overnight trough toward the daily crest and partway back, with
// small noise and a few short spikes, spanning loads between MinLoad and
// MaxLoad like the trace in §5.3 ("the websearch load varies between 20%
// and 90% in this trace").
func Diurnal(cfg DiurnalConfig) Trace {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed + 0x9e3779b9)
	n := int(cfg.Duration/cfg.Step) + 1
	tr := make(Trace, 0, n)

	type spike struct {
		at    float64 // fraction of duration
		width float64
		amp   float64
	}
	spikes := make([]spike, cfg.Spikes)
	for i := range spikes {
		spikes[i] = spike{
			at:    0.1 + 0.8*rng.Float64(),
			width: 0.004 + 0.01*rng.Float64(),
			amp:   0.02 + 0.05*rng.Float64(),
		}
	}

	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		// Half of a daily sine: trough -> crest -> partway down.
		phase := -math.Pi/2 + frac*1.4*math.Pi
		base := cfg.MinLoad + (cfg.MaxLoad-cfg.MinLoad)*(0.5+0.5*math.Sin(phase))
		load := base + rng.Norm(0, cfg.Noise*base)
		for _, s := range spikes {
			d := (frac - s.at) / s.width
			load += s.amp * math.Exp(-d*d)
		}
		if load < 0.02 {
			load = 0.02
		}
		if load > 1 {
			load = 1
		}
		tr = append(tr, Point{At: time.Duration(i) * cfg.Step, Load: load})
	}
	return tr
}
