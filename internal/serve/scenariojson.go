package serve

import (
	"fmt"
	"time"

	"heracles/internal/scenario"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

// ScenarioSpec is the JSON encoding of a declarative scenario: a composed
// load shape plus a schedule of timed events, evaluated against one live
// instance. Durations travel as seconds so payloads stay unit-explicit.
type ScenarioSpec struct {
	Name      string      `json:"name,omitempty"`
	DurationS float64     `json:"duration_s"`
	Load      *ShapeSpec  `json:"load"`
	Events    []EventSpec `json:"events,omitempty"`
}

// clone returns a copy of s an instance or a checkpoint can own (the
// shape and events are never written in place), nil for nil.
func (s *ScenarioSpec) clone() *ScenarioSpec {
	if s == nil {
		return nil
	}
	c := *s
	return &c
}

// ShapeSpec is the JSON encoding of one load shape. Kind selects the
// shape; the other fields parameterise it:
//
//	flat       — Value
//	steps      — Levels (ascending AtS)
//	ramp       — From, To, StartS, EndS
//	diurnal    — MinLoad, MaxLoad, Seed (period = scenario duration)
//	flashcrowd — StartS, RiseS, HoldS, FallS, Amp (additive; use in a sum)
//	sum        — Terms, added pointwise
//
// An optional Clamp bounds the composed shape; the engine's epoch loop
// additionally clamps offered load to [0, 1].
type ShapeSpec struct {
	Kind string `json:"kind"`

	Value float64 `json:"value,omitempty"` // flat

	Levels []LevelSpec `json:"levels,omitempty"` // steps

	From   float64 `json:"from,omitempty"` // ramp
	To     float64 `json:"to,omitempty"`
	StartS float64 `json:"start_s,omitempty"` // ramp, flashcrowd
	EndS   float64 `json:"end_s,omitempty"`

	MinLoad float64 `json:"min_load,omitempty"` // diurnal
	MaxLoad float64 `json:"max_load,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`

	RiseS float64 `json:"rise_s,omitempty"` // flashcrowd
	HoldS float64 `json:"hold_s,omitempty"`
	FallS float64 `json:"fall_s,omitempty"`
	Amp   float64 `json:"amp,omitempty"`

	Terms []ShapeSpec `json:"terms,omitempty"` // sum

	Clamp *ClampSpec `json:"clamp,omitempty"`
}

// LevelSpec is one plateau of a steps shape.
type LevelSpec struct {
	AtS  float64 `json:"at_s"`
	Load float64 `json:"load"`
}

// ClampSpec bounds a shape to [Lo, Hi].
type ClampSpec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// EventSpec is the JSON encoding of one timed action. Kind names match
// scenario.EventKind strings: "be-arrive", "be-depart", "leaf-degrade",
// "slo-scale", "load-scale". Events always target the instance's single
// machine, so no leaf index travels over the wire.
type EventSpec struct {
	AtS      float64 `json:"at_s"`
	Kind     string  `json:"kind"`
	Workload string  `json:"workload,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// buildShape converts a ShapeSpec into a scenario.Shape. dur is the
// scenario horizon, which parameterises the diurnal generator.
func (sp *ShapeSpec) buildShape(dur time.Duration) (scenario.Shape, error) {
	var shape scenario.Shape
	switch sp.Kind {
	case "flat":
		shape = scenario.Flat(sp.Value)
	case "steps":
		if len(sp.Levels) == 0 {
			return nil, fmt.Errorf("steps shape needs at least one level")
		}
		st := make(scenario.Steps, len(sp.Levels))
		for i, lv := range sp.Levels {
			st[i] = scenario.Level{At: seconds(lv.AtS), Load: lv.Load}
			if i > 0 && st[i].At < st[i-1].At {
				return nil, fmt.Errorf("steps levels must be in ascending time order")
			}
		}
		shape = st
	case "ramp":
		shape = scenario.Ramp{
			From: sp.From, To: sp.To,
			Start: seconds(sp.StartS), End: seconds(sp.EndS),
		}
	case "diurnal":
		shape = scenario.Diurnal(trace.DiurnalConfig{
			Duration: dur, Step: time.Second,
			MinLoad: sp.MinLoad, MaxLoad: sp.MaxLoad, Seed: sp.Seed,
		})
	case "flashcrowd":
		shape = scenario.FlashCrowd{
			Start: seconds(sp.StartS),
			Rise:  seconds(sp.RiseS), Hold: seconds(sp.HoldS), Fall: seconds(sp.FallS),
			Amp: sp.Amp,
		}
	case "sum":
		if len(sp.Terms) == 0 {
			return nil, fmt.Errorf("sum shape needs at least one term")
		}
		terms := make([]scenario.Shape, len(sp.Terms))
		for i := range sp.Terms {
			t, err := sp.Terms[i].buildShape(dur)
			if err != nil {
				return nil, fmt.Errorf("sum term %d: %w", i, err)
			}
			terms[i] = t
		}
		shape = scenario.Sum(terms...)
	default:
		return nil, fmt.Errorf("unknown shape kind %q (want flat, steps, ramp, diurnal, flashcrowd or sum)", sp.Kind)
	}
	if sp.Clamp != nil {
		if sp.Clamp.Hi < sp.Clamp.Lo {
			return nil, fmt.Errorf("clamp hi %v below lo %v", sp.Clamp.Hi, sp.Clamp.Lo)
		}
		shape = scenario.Clamp(shape, sp.Clamp.Lo, sp.Clamp.Hi)
	}
	return shape, nil
}

// eventKindByName maps wire names to scenario event kinds.
func eventKindByName(name string) (scenario.EventKind, bool) {
	for _, k := range []scenario.EventKind{
		scenario.EventBEArrive, scenario.EventBEDepart,
		scenario.EventLeafDegrade, scenario.EventSLOScale,
		scenario.EventLoadScale,
	} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// MaxScenarioDurationS bounds a scenario's duration_s: seven simulated
// days. A diurnal shape holds one trace point per simulated second, so
// the horizon is memory the request's author would otherwise choose.
const MaxScenarioDurationS = 7 * 24 * 3600

// Build converts the spec into a validated scenario. BE workload names in
// arrival/departure events are checked against the workload catalogue up
// front, so a bad request fails at install time rather than mid-run.
func (sp *ScenarioSpec) Build() (scenario.Scenario, error) {
	if !(sp.DurationS > 0) {
		return scenario.Scenario{}, fmt.Errorf("duration_s must be positive")
	}
	if sp.DurationS > MaxScenarioDurationS {
		return scenario.Scenario{}, fmt.Errorf("duration_s %v exceeds the %d s (7-day) bound", sp.DurationS, MaxScenarioDurationS)
	}
	if sp.Load == nil {
		return scenario.Scenario{}, fmt.Errorf("load shape missing")
	}
	dur := seconds(sp.DurationS)
	shape, err := sp.Load.buildShape(dur)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("load: %w", err)
	}
	sc := scenario.Scenario{
		Name:     sp.Name,
		Duration: dur,
		Load:     shape,
	}
	for i, ev := range sp.Events {
		kind, ok := eventKindByName(ev.Kind)
		if !ok {
			return scenario.Scenario{}, fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
		if kind == scenario.EventBEArrive || kind == scenario.EventBEDepart {
			if err := checkBEName(ev.Workload); err != nil {
				return scenario.Scenario{}, fmt.Errorf("event %d: %w", i, err)
			}
		}
		sc.Events = append(sc.Events, scenario.Event{
			At:       seconds(ev.AtS),
			Kind:     kind,
			Leaf:     scenario.AllLeaves,
			Workload: ev.Workload,
			Factor:   ev.Factor,
		})
	}
	if err := sc.Validate(); err != nil {
		return scenario.Scenario{}, err
	}
	return sc, nil
}

// checkBEName verifies a best-effort workload name resolves in the
// catalogue.
func checkBEName(name string) error {
	if _, ok := workload.BEByName(name); !ok {
		return fmt.Errorf("unknown BE workload %q", name)
	}
	return nil
}
