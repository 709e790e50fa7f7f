package machine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// referenceTail is TailLatency computed from every Telemetry the machine
// ever returned: the mean tail over the epochs newer than now-window,
// newest first. It has no depth — a ring sized to its reader's longest
// window must answer every window up to that one exactly as this does.
func referenceTail(hist []Telemetry, now, window time.Duration) (time.Duration, bool) {
	if len(hist) == 0 {
		return 0, false
	}
	cutoff := now - window
	var sum float64
	var n int
	for j := len(hist) - 1; j >= 0 && hist[j].Time > cutoff; j-- {
		sum += hist[j].TailLatency.Seconds()
		n++
	}
	if n == 0 {
		return hist[len(hist)-1].TailLatency, true
	}
	return time.Duration(sum / float64(n) * float64(time.Second)), true
}

// ringCases are the declarations the ring tests run under. declared 0
// leaves the machine undeclared, as a machine without a controller is.
var ringCases = []struct {
	name     string
	epoch    time.Duration
	declared time.Duration
	depth    int
}{
	{"undeclared", time.Second, 0, windowDepth},
	{"default controller", time.Second, 15 * time.Second, 15},
	{"quarter-second epochs", 250 * time.Millisecond, 15 * time.Second, 60},
	{"window not a whole number of epochs", time.Second, 2500 * time.Millisecond, 3},
	{"window shorter than an epoch", time.Second, 100 * time.Millisecond, 1},
}

// TestTailLatencyMatchesFullHistory is the ring-equivalence property: for
// every window up to the one its reader declared, the poll ring answers
// TailLatency bit-identically to a reference computed from every
// Telemetry the machine returned — before the ring wraps, after it wraps,
// after ResetStats, and on a machine restored from a snapshot and declared
// for again.
func TestTailLatencyMatchesFullHistory(t *testing.T) {
	lcs, bes := calibrated(t)
	for _, tc := range ringCases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(hw.DefaultConfig(), WithEpoch(tc.epoch))
			m.SetLC(lcs["websearch"])
			m.AddBE(bes["brain"], workload.PlaceDedicated)
			m.Partition(8)
			if tc.declared > 0 {
				m.KeepTailHistory(tc.declared)
			}
			kept := time.Duration(tc.depth) * tc.epoch
			rng := sim.NewRNG(14)

			var hist []Telemetry
			run := func(m *Machine, epochs int) {
				for i := 0; i < epochs; i++ {
					m.SetLoad(0.1 + 0.8*rng.Float64()) // a different tail every epoch
					hist = append(hist, m.Step())
				}
			}
			check := func(m *Machine, phase string) {
				t.Helper()
				if got, want := len(m.Snapshot().Window), min(len(hist), tc.depth); got != want {
					t.Fatalf("%s: ring holds %d samples, want %d", phase, got, want)
				}
				windows := []time.Duration{0, tc.epoch, tc.declared, kept}
				for i := 0; i < 64; i++ {
					windows = append(windows, time.Duration(rng.Float64()*float64(kept)))
				}
				for _, w := range windows {
					got, gotOK := m.TailLatency(w)
					want, wantOK := referenceTail(hist, m.Clock().Now(), w)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: TailLatency(%v) = %v, %t; full history gives %v, %t", phase, w, got, gotOK, want, wantOK)
					}
				}
			}
			restore := func(m *Machine) *Machine {
				t.Helper()
				r, err := RestoreMachine(m.Snapshot(),
					func(name string) *workload.LC { return lcs[name] },
					func(name string) *workload.BE { return bes[name] })
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if tc.declared > 0 {
					r.KeepTailHistory(tc.declared)
				}
				return r
			}

			check(m, "no epoch yet")
			run(m, 1)
			check(m, "one epoch")
			run(m, tc.depth/2)
			check(m, "before wrap")
			check(restore(m), "restored before wrap")
			run(m, 2*tc.depth+37)
			check(m, "after wrap")

			r := restore(m)
			check(r, "restored after wrap")
			run(r, tc.depth/2+3) // the restored ring wraps at its own head
			check(r, "restored, then stepped")

			m.ResetStats()
			hist = nil
			check(m, "after ResetStats")
			run(m, tc.depth/3+2)
			check(m, "refilled after ResetStats")
			check(restore(m), "restored after ResetStats")
		})
	}
}

// TestTailLatencyBeyondDeclaredWindowPanics: a window the ring cannot
// answer in full is a bug in the reader, reported with both durations —
// on a declared machine past the declaration, on an undeclared one past
// the 600 epochs it keeps.
func TestTailLatencyBeyondDeclaredWindowPanics(t *testing.T) {
	lcs, _ := calibrated(t)
	for _, tc := range ringCases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(hw.DefaultConfig(), WithEpoch(tc.epoch))
			m.SetLC(lcs["websearch"])
			if tc.declared > 0 {
				m.KeepTailHistory(tc.declared)
			}
			kept := time.Duration(tc.depth) * tc.epoch
			m.TailLatency(kept) // the longest window it serves, even with no epoch yet
			ask := kept + time.Nanosecond
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, ask.String()) || !strings.Contains(msg, kept.String()) {
					t.Fatalf("TailLatency(%v) on a ring keeping %v: recovered %q, want a panic naming both", ask, kept, msg)
				}
			}()
			m.TailLatency(ask)
		})
	}
}

// TestKeepTailHistoryResizesInPlace: a declaration may arrive on a ring
// that already holds samples and has wrapped. Shrinking keeps the newest
// samples, growing keeps them all, and either way the ring goes on
// recording in order.
func TestKeepTailHistoryResizesInPlace(t *testing.T) {
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	rng := sim.NewRNG(19)
	var hist []Telemetry
	run := func(epochs int) {
		for i := 0; i < epochs; i++ {
			m.SetLoad(0.1 + 0.8*rng.Float64())
			hist = append(hist, m.Step())
		}
	}
	check := func(phase string, depth int) {
		t.Helper()
		w := m.Snapshot().Window
		want := hist[len(hist)-min(len(hist), depth):]
		if len(w) != len(want) {
			t.Fatalf("%s: ring holds %d samples, want %d", phase, len(w), len(want))
		}
		for i := range w {
			if w[i].Time != want[i].Time || w[i].TailLatency != want[i].TailLatency {
				t.Fatalf("%s: window[%d] = %+v, epoch recorded %v/%v", phase, i, w[i], want[i].Time, want[i].TailLatency)
			}
		}
	}

	run(windowDepth + 137) // wrapped: head is mid-ring
	check("undeclared, wrapped", windowDepth)
	m.KeepTailHistory(15 * time.Second)
	check("shrunk to 15", 15)
	run(22)
	check("shrunk, wrapped again", 15)
	m.KeepTailHistory(40 * time.Second)
	check("grown to 40: nothing older comes back", 15)
	run(10)
	check("growing", 25)
	run(60)
	check("grown, wrapped", 40)
	m.KeepTailHistory(40 * time.Second)
	check("same declaration again", 40)
}

// TestRestoreRefusesDisorderedWindow: TailLatency's backwards scan stops
// at the first sample at or before its cutoff, so a window that does not
// run strictly forward in time — or runs past the snapshot's clock — would
// be misread silently. RestoreMachine names the first offending sample
// instead. A window longer than any reader needs is legal: the reader's
// declaration trims it.
func TestRestoreRefusesDisorderedWindow(t *testing.T) {
	lcs, _ := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.SetLoad(0.4)
	for i := 0; i < windowDepth+50; i++ {
		m.Step()
	}
	restore := func(s Snapshot) (*Machine, error) {
		return RestoreMachine(s, func(name string) *workload.LC { return lcs[name] }, nil)
	}
	good := m.Snapshot()

	for _, tc := range []struct {
		name    string
		corrupt func(s *Snapshot)
		want    string
	}{
		{"two samples swapped", func(s *Snapshot) { s.Window[7], s.Window[8] = s.Window[8], s.Window[7] }, "window[8]"},
		{"a sample repeated", func(s *Snapshot) { s.Window[3].Time = s.Window[2].Time }, "window[3]"},
		{"newest sample after the clock", func(s *Snapshot) { s.Now -= time.Second }, fmt.Sprintf("window[%d]", windowDepth-1)},
	} {
		s := good
		s.Window = append([]TailSample(nil), good.Window...)
		tc.corrupt(&s)
		if _, err := restore(s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one naming %s", tc.name, err, tc.want)
		}
	}

	long := good
	long.Window = nil
	for i := 2000; i > 0; i-- {
		long.Window = append(long.Window, TailSample{Time: good.Now - time.Duration(i-1)*time.Second, TailLatency: time.Duration(i)})
	}
	r, err := restore(long)
	if err != nil {
		t.Fatalf("a 2000-sample window is over-long, not malformed: %v", err)
	}
	r.KeepTailHistory(15 * time.Second)
	if w := r.Snapshot().Window; len(w) != 15 || w[14] != long.Window[1999] || w[0] != long.Window[1985] {
		t.Fatalf("declaration kept %d samples ending %+v, want the newest 15 of the 2000", len(w), w[len(w)-1])
	}
}
