package scenario

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"heracles/internal/trace"
)

// Shape is a composable load shape: the offered load (fraction of peak)
// as a pure function of scenario time. Shapes must be deterministic —
// the simulators may evaluate them concurrently and in any order.
type Shape interface {
	At(t time.Duration) float64
}

// --- Primitive shapes --------------------------------------------------

// Flat is a constant load.
type Flat float64

// At implements Shape.
func (f Flat) At(time.Duration) float64 { return float64(f) }

// Level is one plateau of a Steps shape. It is an alias of trace.Point,
// so a Steps value is a trace and shares its lookup.
type Level = trace.Point

// Steps is a piecewise-constant shape: the load steps to each level at
// its time and holds until the next (the abrupt "load changes" of §5.2).
// Levels must be in ascending time order; before the first level the
// first load applies.
type Steps []Level

// At implements Shape via the trace's piecewise-constant search.
func (s Steps) At(t time.Duration) float64 { return trace.Trace(s).At(t) }

// Ramp interpolates linearly from From to To over [Start, End], holding
// From before and To after. A degenerate window (End <= Start) is an
// instant step to To at Start.
type Ramp struct {
	From, To   float64
	Start, End time.Duration
}

// At implements Shape.
func (r Ramp) At(t time.Duration) float64 {
	switch {
	case t < r.Start:
		return r.From
	case t >= r.End:
		return r.To
	}
	f := float64(t-r.Start) / float64(r.End-r.Start)
	return r.From + (r.To-r.From)*f
}

// FlashCrowd is an additive trapezoid spike: zero outside the incident,
// rising linearly to Amp over Rise, holding for Hold, falling back over
// Fall. Overlay it on a base shape with Sum to model a flash crowd.
type FlashCrowd struct {
	Start            time.Duration // spike onset
	Rise, Hold, Fall time.Duration
	Amp              float64 // added load at the plateau
}

// At implements Shape.
func (f FlashCrowd) At(t time.Duration) float64 {
	dt := t - f.Start
	switch {
	case dt < 0:
		return 0
	case dt < f.Rise:
		if f.Rise <= 0 {
			return f.Amp
		}
		return f.Amp * float64(dt) / float64(f.Rise)
	case dt < f.Rise+f.Hold:
		return f.Amp
	case dt < f.Rise+f.Hold+f.Fall:
		if f.Fall <= 0 {
			return 0
		}
		return f.Amp * (1 - float64(dt-f.Rise-f.Hold)/float64(f.Fall))
	default:
		return 0
	}
}

// Replay wraps a load trace as a shape (piecewise-constant, like
// trace.Trace.At).
func Replay(tr trace.Trace) Shape { return replayShape{tr} }

type replayShape struct{ tr trace.Trace }

func (r replayShape) At(t time.Duration) float64 { return r.tr.At(t) }

// Diurnal synthesises the §5.3 diurnal curve as a shape. The underlying
// trace is generated once, so evaluation is deterministic and cheap.
func Diurnal(cfg trace.DiurnalConfig) Shape { return Replay(trace.Diurnal(cfg)) }

// --- Combinators -------------------------------------------------------

// Sum adds shapes pointwise (overlay a FlashCrowd on a base curve).
func Sum(shapes ...Shape) Shape { return sumShape(shapes) }

type sumShape []Shape

func (s sumShape) At(t time.Duration) float64 {
	var v float64
	for _, sh := range s {
		v += sh.At(t)
	}
	return v
}

// Clamp bounds a shape to [lo, hi].
func Clamp(s Shape, lo, hi float64) Shape { return clampShape{s, lo, hi} }

type clampShape struct {
	s      Shape
	lo, hi float64
}

func (c clampShape) At(t time.Duration) float64 {
	v := c.s.At(t)
	if v < c.lo {
		return c.lo
	}
	if v > c.hi {
		return c.hi
	}
	return v
}

// --- Events ------------------------------------------------------------

// EventKind enumerates the timed actions a scenario can schedule.
type EventKind int

const (
	// EventBEArrive launches a best-effort task (by workload name) on the
	// target leaves. Ignored on baseline (no-colocation) runs.
	EventBEArrive EventKind = iota
	// EventBEDepart removes every BE task with the given workload name
	// from the target leaves.
	EventBEDepart
	// EventLeafDegrade multiplies the target leaves' LC service time by
	// Factor (>= 1), modelling a slow or degraded server.
	EventLeafDegrade
	// EventSLOScale sets the controller-visible SLO scale of the target
	// leaves to Factor (a mid-run latency-target change). When the
	// cluster runs with DynamicLeafTargets, the centralized root
	// controller owns the per-leaf targets: an all-leaves event re-anchors
	// the controller's scale (clamped to its [0.5, 0.9] working band at
	// the next adjustment), while a single-leaf event is transient and
	// lasts at most one adjust period.
	EventSLOScale
	// EventLoadScale sets the scenario-wide offered-load multiplier to
	// Factor (a mid-run load-target change; absolute, not cumulative).
	EventLoadScale
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventBEArrive:
		return "be-arrive"
	case EventBEDepart:
		return "be-depart"
	case EventLeafDegrade:
		return "leaf-degrade"
	case EventSLOScale:
		return "slo-scale"
	case EventLoadScale:
		return "load-scale"
	default:
		return "unknown"
	}
}

// AllLeaves targets every leaf of the cluster.
const AllLeaves = -1

// Event is one timed action. Events fire at the first epoch whose time is
// >= At; events scheduled at or past the scenario end never fire.
type Event struct {
	At       time.Duration
	Kind     EventKind
	Leaf     int     // target leaf index, or AllLeaves
	Workload string  // BE workload name (arrive/depart)
	Factor   float64 // degrade factor / SLO scale / load multiplier
}

// BEArrive schedules a best-effort task launch.
func BEArrive(at time.Duration, leaf int, workload string) Event {
	return Event{At: at, Kind: EventBEArrive, Leaf: leaf, Workload: workload}
}

// BEDepart schedules a best-effort task departure.
func BEDepart(at time.Duration, leaf int, workload string) Event {
	return Event{At: at, Kind: EventBEDepart, Leaf: leaf, Workload: workload}
}

// Degrade schedules a per-leaf service-time degradation (factor >= 1;
// 1 restores full speed).
func Degrade(at time.Duration, leaf int, factor float64) Event {
	return Event{At: at, Kind: EventLeafDegrade, Leaf: leaf, Factor: factor}
}

// SLOScale schedules a controller-visible latency-target change.
func SLOScale(at time.Duration, leaf int, factor float64) Event {
	return Event{At: at, Kind: EventSLOScale, Leaf: leaf, Factor: factor}
}

// LoadScale schedules an offered-load multiplier change.
func LoadScale(at time.Duration, factor float64) Event {
	return Event{At: at, Kind: EventLoadScale, Leaf: AllLeaves, Factor: factor}
}

// --- Scenario ----------------------------------------------------------

// Scenario is a complete declarative experiment: a named load shape plus
// an event schedule over a fixed horizon.
type Scenario struct {
	Name     string
	Duration time.Duration
	Load     Shape
	Events   []Event
}

// FromTrace wraps a bare load trace as a scenario with no events — the
// compatibility path for callers that still plumb traces directly.
func FromTrace(name string, tr trace.Trace) Scenario {
	return Scenario{Name: name, Duration: tr.Duration(), Load: Replay(tr)}
}

// LoadAt evaluates the load shape, clamped to [0, 1].
func (s Scenario) LoadAt(t time.Duration) float64 {
	if s.Load == nil {
		return 0
	}
	v := s.Load.At(t)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Validate reports the first structural problem with the scenario. A
// zero Duration is vacuous but well-defined (no epochs run), preserving
// the behaviour of replaying an empty trace.
func (s Scenario) Validate() error {
	if s.Duration < 0 {
		return errors.New("scenario: Duration must not be negative")
	}
	if s.Load == nil {
		return errors.New("scenario: Load shape missing")
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("scenario: event %d (%v) has negative time", i, ev.Kind)
		}
		switch ev.Kind {
		case EventBEArrive, EventBEDepart:
			if ev.Workload == "" {
				return fmt.Errorf("scenario: event %d (%v) missing workload name", i, ev.Kind)
			}
		case EventLeafDegrade:
			if ev.Factor < 1 {
				return fmt.Errorf("scenario: event %d (leaf-degrade) factor %v < 1", i, ev.Factor)
			}
		case EventSLOScale, EventLoadScale:
			if ev.Factor <= 0 {
				return fmt.Errorf("scenario: event %d (%v) factor %v must be positive", i, ev.Kind, ev.Factor)
			}
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// Cursor returns an event cursor over the schedule, sorted by time with
// the original order preserved among simultaneous events.
func (s Scenario) Cursor() *Cursor {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return &Cursor{events: evs}
}

// Cursor walks an event schedule in time order.
type Cursor struct {
	events []Event
	next   int
}

// Due returns the events that fire at or before now and have not been
// returned yet. The returned slice aliases the cursor's storage; callers
// must consume it before the next call.
func (c *Cursor) Due(now time.Duration) []Event {
	start := c.next
	for c.next < len(c.events) && c.events[c.next].At <= now {
		c.next++
	}
	return c.events[start:c.next]
}

// Delivered returns the number of events already handed out by Due — the
// cursor position a checkpoint records.
func (c *Cursor) Delivered() int { return c.next }

// Skip discards the next n events without delivering them, fast-
// forwarding a fresh cursor to a checkpointed position. Skipping past
// the end of the schedule is clamped.
func (c *Cursor) Skip(n int) {
	c.next += n
	if c.next > len(c.events) {
		c.next = len(c.events)
	}
	if c.next < 0 {
		c.next = 0
	}
}
