package heracles_test

import (
	"testing"
	"time"

	"heracles"
)

func TestPublicAPIQuickstart(t *testing.T) {
	lab := heracles.NewLab(heracles.DefaultHardware())
	s := lab.Colocate("websearch", "brain", []float64{0.4},
		heracles.RunOpts{Duration: 6 * time.Minute, Warmup: 2 * time.Minute})
	if len(s.Points) != 1 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].SLOViolation {
		t.Fatal("quickstart scenario violated the SLO")
	}
	if s.Points[0].EMU <= 0.45 {
		t.Fatalf("EMU = %v, want colocation benefit", s.Points[0].EMU)
	}
}

func TestPublicAPIManualControlLoop(t *testing.T) {
	hwCfg := heracles.DefaultHardware()
	lc := heracles.CalibrateLC(hwCfg, heracles.Websearch())
	be := heracles.CalibrateBE(hwCfg, heracles.Streetview())

	m := heracles.NewMachine(hwCfg)
	m.SetLC(lc)
	m.AddBE(be, heracles.PlaceDedicated)
	m.SetLoad(0.3)

	ctl := heracles.NewController(m, nil, heracles.DefaultControllerConfig())
	for i := 0; i < 300; i++ {
		m.Step()
		ctl.Step(m.Clock().Now())
	}
	tel := m.Last()
	if tel.TailLatency > lc.SLO {
		t.Fatalf("tail %v exceeds SLO %v", tel.TailLatency, lc.SLO)
	}
	if tel.EMU < 0.5 {
		t.Fatalf("EMU = %v", tel.EMU)
	}
}

func TestPublicAPITCO(t *testing.T) {
	cs := heracles.AnalyzeTCO(heracles.BarrosoTCO())
	if len(cs) != 2 {
		t.Fatalf("scenarios = %d", len(cs))
	}
	if cs[0].HeraclesGain < 0.1 {
		t.Fatalf("75%%->90%% gain = %v", cs[0].HeraclesGain)
	}
}
