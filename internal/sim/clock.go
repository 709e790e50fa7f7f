package sim

import (
	"fmt"
	"time"
)

// Clock is a virtual clock. The zero value starts at time zero.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock positioned at start.
func NewClock(start time.Duration) *Clock {
	return &Clock{now: start}
}

// Now returns the current simulated time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Advance panics if d is negative:
// simulated time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.now += d
}
