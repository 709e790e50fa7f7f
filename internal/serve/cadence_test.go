package serve

import (
	"testing"
	"time"
)

// The cadence against a clock that does not move: every case passes now
// in, and none builds an engine, a lab or a server.

const tick = 50 * time.Millisecond

// TestResumeAtClamp is the hand-over's one piece of arithmetic: the
// origin's due instant, held inside [now, now + batch×interval], with the
// origin's batch and stretch continued.
func TestResumeAtClamp(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		name     string
		due      time.Duration // origin's due instant, relative to now
		batch    int
		interval time.Duration
		want     time.Duration
	}{
		{"held for an hour", -time.Hour, 1, tick, 0},
		{"due right now", 0, 1, tick, 0},
		{"inside the slice", 30 * time.Millisecond, 1, tick, 30 * time.Millisecond},
		{"exactly batch×interval out", 4 * tick, 4, tick, 4 * tick},
		{"a nanosecond beyond", 4*tick + 1, 4, tick, 4 * tick},
		{"peer clock an hour ahead", time.Hour, 8, tick, 8 * tick},
		// A batch of 4 taken at speed 1 and restored at speed 50: the slice
		// spans 80 ms on the new clock however far out the origin had it.
		{"speed override shortens the interval", 3 * time.Second, 4, 20 * time.Millisecond, 80 * time.Millisecond},
	} {
		c := cadence{interval: tc.interval}
		got := c.start(now, &InstanceCheckpoint{NextDueUnixNano: now.Add(tc.due).UnixNano(), Batch: tc.batch, Stretch: 8})
		if d := got.Sub(now); d != tc.want {
			t.Errorf("%s: first slice %v after now, want %v", tc.name, d, tc.want)
		}
		if got == got.Round(0) {
			t.Errorf("%s: %v has no monotonic reading", tc.name, got)
		}
		if c.nextAt != got || c.slice() != tc.batch || c.stretch != 8 {
			t.Errorf("%s: cadence %+v, want the origin's batch %d and stretch 8 due at %v", tc.name, c, tc.batch, got)
		}
	}
}

// TestCadenceStartsFresh: without a schedule to continue — a created
// instance, a checkpoint without one, a crash restart after the cadence
// had stretched — the first tick is one interval out at stretch 1, and a
// free-runner is due now. A free-runner ignores a carried schedule.
func TestCadenceStartsFresh(t *testing.T) {
	now := time.Now()
	stretched := cadence{interval: tick, stretch: 8, batch: 8, nextAt: now.Add(time.Hour)}
	carried := &InstanceCheckpoint{NextDueUnixNano: now.Add(time.Hour).UnixNano(), Batch: 4, Stretch: 8}
	for _, tc := range []struct {
		name string
		c    cadence
		cp   *InstanceCheckpoint
		want time.Duration
	}{
		{"created", newCadence(20, time.Second), nil, tick},
		{"restored without a schedule", newCadence(20, time.Second), &InstanceCheckpoint{}, tick},
		{"crash restart", stretched, nil, tick},
		{"free-running", newCadence(SpeedMax, time.Second), carried, 0},
	} {
		got := tc.c.start(now, tc.cp)
		if got.Sub(now) != tc.want || tc.c.stretch != 1 || tc.c.slice() != 1 {
			t.Errorf("%s: cadence %+v due %v after now, want stretch 1, batch 1, due %v after now", tc.name, tc.c, got.Sub(now), tc.want)
		}
	}
}

// TestCadenceStretchesAndSnapsBack: clean slices double the stretch up to
// stretchMax, each slice stepping stretch epochs stretch intervals after
// the last; a tight slice snaps back to one epoch one interval out.
func TestCadenceStretchesAndSnapsBack(t *testing.T) {
	now := time.Now()
	c := newCadence(20, time.Second)
	due := c.start(now, nil)
	for _, want := range []int{2, 4, 8, 8, 8} {
		next := c.next(now, false)
		if c.stretch != want || c.slice() != want || next.Sub(due) != time.Duration(want)*tick {
			t.Fatalf("clean slice: stretch %d batch %d due %v later, want %d, %d, %v", c.stretch, c.slice(), next.Sub(due), want, want, time.Duration(want)*tick)
		}
		due = next
	}
	if next := c.next(now, true); c.stretch != 1 || c.slice() != 1 || next.Sub(due) != tick {
		t.Fatalf("tight slice: stretch %d batch %d due %v later, want 1, 1, %v", c.stretch, c.slice(), next.Sub(due), tick)
	}
	if c.next(now, false); c.stretch != 2 {
		t.Fatalf("clean slice after a tight one: stretch %d, want 2", c.stretch)
	}
}

// TestCadenceDropsLag: a slice that would be due before now is due now,
// so an overloaded pool does not accumulate catch-up debt, and the stretch
// still grows.
func TestCadenceDropsLag(t *testing.T) {
	now := time.Now()
	c := newCadence(20, time.Second)
	c.start(now, nil)
	late := now.Add(time.Second)
	if got := c.next(late, false); got != late || c.nextAt != late || c.stretch != 2 {
		t.Fatalf("lagging slice due %v after now at stretch %d, want now (%v) at 2", got.Sub(now), c.stretch, late.Sub(now))
	}
	if got := c.next(late, false); got.Sub(late) != 4*tick {
		t.Fatalf("slice after the dropped lag due %v after it, want %v", got.Sub(late), 4*tick)
	}
}

// TestCadenceFreeRuns: a free-runner requeues now, stepping freeRunBatch
// (64) epochs per slice whether or not it is watched, and hands no
// schedule over.
func TestCadenceFreeRuns(t *testing.T) {
	now := time.Now()
	c := newCadence(SpeedMax, time.Second)
	c.start(now, nil)
	for _, tight := range []bool{false, true} {
		later := now.Add(time.Minute)
		if got := c.next(later, tight); got != later || c.slice() != 64 {
			t.Fatalf("free-run slice (tight %t) due %v, batch %d; want now, 64", tight, got.Sub(later), c.slice())
		}
	}
	var cp InstanceCheckpoint
	if c.handOver(&cp); cp.paced() {
		t.Fatalf("free-runner handed over a schedule: %+v", cp)
	}
}

// TestCadenceHandsOverWhatStartContinues: the schedule handOver writes is
// the one start continues on the other side, to the nanosecond; a cadence
// whose first slice is not planned yet hands nothing over; and the
// interval floor is 100 µs.
func TestCadenceHandsOverWhatStartContinues(t *testing.T) {
	now := time.Now()
	var cp InstanceCheckpoint
	origin := newCadence(20, time.Second)
	if origin.handOver(&cp); cp.paced() {
		t.Fatalf("unplanned cadence handed over %+v", cp)
	}
	origin.start(now, nil)
	origin.next(now, false)
	origin.next(now, false)
	origin.handOver(&cp)
	if err := checkSchedule(&cp, 20); err != nil {
		t.Fatalf("handed-over schedule refused: %v", err)
	}
	// Restored three of the slice's four intervals before it is due:
	// inside the clamp.
	moved := newCadence(20, time.Second)
	moved.start(origin.nextAt.Add(-3*tick), &cp)
	if moved.nextAt.UnixNano() != origin.nextAt.UnixNano() || moved.slice() != origin.slice() || moved.stretch != origin.stretch {
		t.Fatalf("continued cadence %+v, origin %+v", moved, origin)
	}
	if err := checkSchedule(&cp, SpeedMax); err == nil {
		t.Fatal("a schedule beside a free-running speed was accepted")
	}
	if free := cp.unpaced(); free.paced() || !cp.paced() || checkSchedule(free, SpeedMax) != nil {
		t.Fatalf("unpaced copy %+v of %+v", free, cp)
	}
	if c := newCadence(1e9, time.Second); c.interval != 100*time.Microsecond {
		t.Fatalf("interval at speed 1e9 is %v, want the 100µs floor", c.interval)
	}
}
