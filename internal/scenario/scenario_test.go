package scenario

import (
	"testing"
	"time"

	"heracles/internal/trace"
)

func TestFlatAndSteps(t *testing.T) {
	if got := Flat(0.4).At(time.Hour); got != 0.4 {
		t.Fatalf("flat = %v", got)
	}
	s := Steps{
		{At: 0, Load: 0.2},
		{At: 10 * time.Minute, Load: 0.6},
		{At: 20 * time.Minute, Load: 0.3},
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0.2},
		{5 * time.Minute, 0.2},
		{10 * time.Minute, 0.6},
		{15 * time.Minute, 0.6},
		{25 * time.Minute, 0.3},
	}
	for _, c := range cases {
		if got := s.At(c.at); got != c.want {
			t.Fatalf("steps at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := (Steps{}).At(0); got != 0 {
		t.Fatalf("empty steps = %v", got)
	}
}

func TestRamp(t *testing.T) {
	r := Ramp{From: 0.2, To: 0.8, Start: time.Minute, End: 2 * time.Minute}
	if got := r.At(0); got != 0.2 {
		t.Fatalf("before ramp = %v", got)
	}
	if got := r.At(3 * time.Minute); got != 0.8 {
		t.Fatalf("after ramp = %v", got)
	}
	mid := r.At(90 * time.Second)
	if mid < 0.49 || mid > 0.51 {
		t.Fatalf("midpoint = %v, want 0.5", mid)
	}
	// A degenerate window is an instant step to To at Start.
	step := Ramp{From: 0.3, To: 0.9, Start: time.Minute, End: time.Minute}
	if got := step.At(59 * time.Second); got != 0.3 {
		t.Fatalf("degenerate ramp before start = %v", got)
	}
	if got := step.At(time.Minute); got != 0.9 {
		t.Fatalf("degenerate ramp at start = %v", got)
	}
}

func TestFlashCrowdTrapezoid(t *testing.T) {
	f := FlashCrowd{
		Start: 10 * time.Minute,
		Rise:  time.Minute, Hold: 2 * time.Minute, Fall: time.Minute,
		Amp: 0.3,
	}
	if got := f.At(9 * time.Minute); got != 0 {
		t.Fatalf("before spike = %v", got)
	}
	if got := f.At(10*time.Minute + 30*time.Second); got < 0.14 || got > 0.16 {
		t.Fatalf("mid-rise = %v, want 0.15", got)
	}
	if got := f.At(12 * time.Minute); got != 0.3 {
		t.Fatalf("plateau = %v", got)
	}
	if got := f.At(13*time.Minute + 30*time.Second); got < 0.14 || got > 0.16 {
		t.Fatalf("mid-fall = %v, want 0.15", got)
	}
	if got := f.At(15 * time.Minute); got != 0 {
		t.Fatalf("after spike = %v", got)
	}
}

func TestCombinators(t *testing.T) {
	base := Sum(Flat(0.5), FlashCrowd{Start: time.Minute, Rise: 0, Hold: time.Minute, Fall: 0, Amp: 0.4})
	if got := base.At(90 * time.Second); got != 0.9 {
		t.Fatalf("sum = %v", got)
	}
	if got := Clamp(Flat(1.7), 0, 1).At(0); got != 1 {
		t.Fatalf("clamp high = %v", got)
	}
	if got := Clamp(Flat(-2), 0, 1).At(0); got != 0 {
		t.Fatalf("clamp low = %v", got)
	}
}

func TestReplayAndTraceRoundTrip(t *testing.T) {
	tr := trace.Trace{{Load: 0.35}, {At: time.Minute, Load: 0.5}, {At: 2 * time.Minute, Load: 0.2}}
	sc := FromTrace("steps", tr)
	if sc.Duration != tr.Duration() {
		t.Fatalf("duration %v != %v", sc.Duration, tr.Duration())
	}
	for _, p := range tr {
		if got := sc.LoadAt(p.At); got != p.Load {
			t.Fatalf("replay at %v = %v, want %v", p.At, got, p.Load)
		}
	}
	if got := sc.LoadAt(90 * time.Second); got != 0.5 {
		t.Fatalf("replay between points = %v, want the earlier point's 0.5", got)
	}
}

func TestLoadAtClamps(t *testing.T) {
	sc := Scenario{Duration: time.Minute, Load: Flat(1.8)}
	if got := sc.LoadAt(0); got != 1 {
		t.Fatalf("overload not clamped: %v", got)
	}
	sc.Load = Flat(-0.3)
	if got := sc.LoadAt(0); got != 0 {
		t.Fatalf("negative not clamped: %v", got)
	}
	if got := (Scenario{Duration: time.Minute}).LoadAt(0); got != 0 {
		t.Fatalf("nil shape = %v", got)
	}
}

func TestValidate(t *testing.T) {
	ok := Scenario{
		Name:     "ok",
		Duration: time.Hour,
		Load:     Flat(0.5),
		Events: []Event{
			BEArrive(time.Minute, AllLeaves, "brain"),
			BEDepart(2*time.Minute, 0, "brain"),
			Degrade(3*time.Minute, 1, 1.5),
			SLOScale(4*time.Minute, AllLeaves, 0.7),
			LoadScale(5*time.Minute, 1.2),
		},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	bad := []Scenario{
		{Duration: -time.Second, Load: Flat(0.5)},
		{Duration: time.Hour},
		{Duration: time.Hour, Load: Flat(0.5), Events: []Event{{At: -time.Second, Kind: EventLoadScale, Factor: 1}}},
		{Duration: time.Hour, Load: Flat(0.5), Events: []Event{BEArrive(0, AllLeaves, "")}},
		{Duration: time.Hour, Load: Flat(0.5), Events: []Event{Degrade(0, 0, 0.5)}},
		{Duration: time.Hour, Load: Flat(0.5), Events: []Event{SLOScale(0, 0, 0)}},
		{Duration: time.Hour, Load: Flat(0.5), Events: []Event{{Kind: EventKind(99)}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Fatalf("bad scenario %d accepted", i)
		}
	}
}

func TestCursorOrderAndDelivery(t *testing.T) {
	sc := Scenario{
		Duration: time.Hour,
		Load:     Flat(0.5),
		Events: []Event{
			LoadScale(10*time.Minute, 1.1),
			BEArrive(time.Minute, AllLeaves, "brain"),
			BEDepart(time.Minute, AllLeaves, "brain"), // same time: original order kept
			Degrade(30*time.Minute, 0, 2),
		},
	}
	cur := sc.Cursor()
	if got := cur.Due(0); len(got) != 0 {
		t.Fatalf("premature delivery: %v", got)
	}
	due := cur.Due(time.Minute)
	if len(due) != 2 || due[0].Kind != EventBEArrive || due[1].Kind != EventBEDepart {
		t.Fatalf("at 1m got %v", due)
	}
	// Already-delivered events never fire again.
	if got := cur.Due(time.Minute); len(got) != 0 {
		t.Fatalf("redelivery: %v", got)
	}
	due = cur.Due(time.Hour)
	if len(due) != 2 || due[0].Kind != EventLoadScale || due[1].Kind != EventLeafDegrade {
		t.Fatalf("tail delivery: %v", due)
	}
	if cur.Delivered() != len(sc.Events) {
		t.Fatalf("delivered = %d of %d", cur.Delivered(), len(sc.Events))
	}
	// The cursor sorts a copy: the scenario's own order is untouched.
	if sc.Events[0].Kind != EventLoadScale {
		t.Fatal("cursor mutated the scenario's event order")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EventBEArrive:    "be-arrive",
		EventBEDepart:    "be-depart",
		EventLeafDegrade: "leaf-degrade",
		EventSLOScale:    "slo-scale",
		EventLoadScale:   "load-scale",
		EventKind(42):    "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestDiurnalShapeDeterministic(t *testing.T) {
	cfg := trace.DiurnalConfig{Duration: time.Hour, Step: time.Minute, Seed: 3}
	a, b := Diurnal(cfg), Diurnal(cfg)
	for _, at := range []time.Duration{0, 10 * time.Minute, 59 * time.Minute} {
		if a.At(at) != b.At(at) {
			t.Fatalf("diurnal shape not deterministic at %v", at)
		}
	}
}
