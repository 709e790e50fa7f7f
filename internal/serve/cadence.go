package serve

import (
	"fmt"
	"time"
)

// Cadence policy of the epoch scheduler (DESIGN.md §13).
const (
	// stretchMax caps how far a healthy, unobserved instance stretches
	// its wakeup: up to stretchMax epochs run in one catch-up batch per
	// slice, so the epoch rate — and therefore telemetry — is unchanged
	// while wakeups get 8x cheaper.
	stretchMax = 8
	// freeRunBatch is how many epochs a free-running (SpeedMax) instance
	// steps per slice before requeueing, so free-runners round-robin the
	// worker pool instead of monopolising one driver.
	freeRunBatch = 64
	// cadenceSlackFloor: an instance whose SLO slack drops below this
	// snaps back to every-epoch ticks — a controller close to violating
	// must not be watched lazily.
	cadenceSlackFloor = 0.1
)

// cadence is an instance's place in its tick schedule (DESIGN.md §13),
// and its only holder: an Instance plans every slice through it, and a
// checkpoint carries it from handOver to start. It never reads the clock;
// callers pass now.
type cadence struct {
	interval time.Duration // wall time per epoch; 0 = free-run
	stretch  int           // the factor the next paced slice grows from (1..stretchMax)
	batch    int           // epochs the next slice steps
	nextAt   time.Time     // the instant the next slice is due
}

// newCadence returns the cadence of speed simulated seconds per
// wall-clock second over epochs of length epoch: one epoch per
// epoch/speed, floored at 100 µs, or free-running for SpeedMax.
func newCadence(speed float64, epoch time.Duration) cadence {
	var c cadence
	if speed > 0 {
		c.interval = max(time.Duration(float64(epoch)/speed), 100*time.Microsecond)
	}
	return c
}

// start plans the first slice of a created or crash-restarted instance
// and returns when it is due. A paced cadence continues the schedule cp
// carries: its batch and stretch, due at its instant clamped into
// [now, now + batch×interval] — a checkpoint held past its due time ticks
// now, one from a clock running ahead (or a slower speed) waits at most
// the slice it carries — and as an offset from now, so the instant keeps
// now's monotonic reading. Without one (cp nil for a crash restart) the
// first tick is one interval out at stretch 1; a free-runner is due now.
func (c *cadence) start(now time.Time, cp *InstanceCheckpoint) time.Time {
	c.stretch, c.batch, c.nextAt = 1, 1, now
	switch {
	case c.interval > 0 && cp != nil && cp.paced():
		c.stretch, c.batch = cp.Stretch, cp.Batch
		wait := time.Unix(0, cp.NextDueUnixNano).Sub(now)
		c.nextAt = now.Add(min(max(wait, 0), time.Duration(c.batch)*c.interval))
	case c.interval > 0:
		c.nextAt = now.Add(c.interval)
	}
	return c.nextAt
}

// next plans the slice after one that stepped and returns when it is
// due. A free-runner requeues now with a fixed batch, so free-runners
// round-robin the pool. A paced stretch doubles per slice up to
// stretchMax, or snaps back to 1 when tight; a slice steps stretch epochs
// in one catch-up batch, so the epoch rate stays exactly 1/interval and
// only the wakeups thin out. A slice due before now (an overloaded pool)
// is due now: the deficit is dropped, like a stalled time.Ticker's.
func (c *cadence) next(now time.Time, tight bool) time.Time {
	if c.interval <= 0 {
		c.batch, c.nextAt = freeRunBatch, now
		return now
	}
	if tight {
		c.stretch = 1
	} else {
		c.stretch = min(2*c.stretch, stretchMax)
	}
	c.batch = c.stretch
	c.nextAt = c.nextAt.Add(time.Duration(c.stretch) * c.interval)
	if c.nextAt.Before(now) {
		c.nextAt = now
	}
	return c.nextAt
}

// slice returns the epochs the next slice steps.
func (c *cadence) slice() int { return c.batch }

// handOver writes the schedule into cp when a paced slice is planned
// (none is while newInstance seeds the restart checkpoint).
func (c *cadence) handOver(cp *InstanceCheckpoint) {
	if c.interval > 0 && !c.nextAt.IsZero() {
		cp.NextDueUnixNano, cp.Batch, cp.Stretch = c.nextAt.UnixNano(), c.batch, c.stretch
	}
}

// paced reports whether the checkpoint carries a tick schedule.
func (cp *InstanceCheckpoint) paced() bool {
	return cp.NextDueUnixNano != 0 || cp.Batch != 0 || cp.Stretch != 0
}

// unpaced returns a copy of cp without its tick schedule.
func (cp *InstanceCheckpoint) unpaced() *InstanceCheckpoint {
	out := *cp
	out.NextDueUnixNano, out.Batch, out.Stretch = 0, 0, 0
	return &out
}

// checkSchedule refuses a restore's tick schedule (cp may be nil) when no
// origin could have written it, or beside a free-running speed. A stale
// or skewed due instant is not an error: start clamps it.
func checkSchedule(cp *InstanceCheckpoint, speed float64) error {
	switch {
	case cp == nil || !cp.paced():
		return nil
	case cp.NextDueUnixNano <= 0:
		return fmt.Errorf("checkpoint next_due_unix_ns %d is not a positive instant beside batch %d, stretch %d", cp.NextDueUnixNano, cp.Batch, cp.Stretch)
	case cp.Batch < 1 || cp.Batch > stretchMax:
		return fmt.Errorf("checkpoint batch %d outside 1..%d", cp.Batch, stretchMax)
	case cp.Stretch < 1 || cp.Stretch > stretchMax:
		return fmt.Errorf("checkpoint stretch %d outside 1..%d", cp.Stretch, stretchMax)
	case speed < 0:
		return fmt.Errorf("checkpoint carries a tick schedule (next_due_unix_ns) but speed %v free-runs: restore it paced, or drop next_due_unix_ns, batch and stretch", speed)
	}
	return nil
}
