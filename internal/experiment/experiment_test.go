package experiment

import (
	"strings"
	"sync"
	"testing"
	"time"

	"heracles/internal/core"
	"heracles/internal/machine"
	"heracles/internal/workload"
)

var (
	labOnce sync.Once
	testLab *Lab
)

func sharedLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() { testLab = DefaultLab() })
	return testLab
}

func TestLabCachesCalibration(t *testing.T) {
	lab := sharedLab(t)
	a := lab.LC("websearch")
	b := lab.LC("websearch")
	if a != b {
		t.Fatal("calibration not cached")
	}
	if lab.BE("brain") != lab.BE("brain") {
		t.Fatal("BE calibration not cached")
	}
}

func TestLabUnknownWorkloadPanics(t *testing.T) {
	lab := sharedLab(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown workload")
		}
	}()
	lab.LC("nope")
}

func TestMinCoresForSLOMonotoneInLoad(t *testing.T) {
	lab := sharedLab(t)
	prev := 0
	for _, load := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		n := lab.MinCoresForSLO("websearch", load)
		if n < prev {
			t.Fatalf("min cores shrank with load at %v: %d < %d", load, n, prev)
		}
		prev = n
	}
	if prev < 20 {
		t.Fatalf("min cores at 90%% load = %d, want most of the machine", prev)
	}
}

func TestFigure1Shapes(t *testing.T) {
	lab := sharedLab(t)
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	table := lab.Figure1("websearch", loads)
	if len(table.Rows) != len(Fig1RowNames) {
		t.Fatalf("row count = %d", len(table.Rows))
	}

	small, _ := table.Row("LLC (small)")
	for i, v := range small.Values {
		if v > 1.5 {
			t.Fatalf("LLC (small) at load %v = %v: should barely affect websearch", loads[i], v)
		}
	}
	dram, _ := table.Row("DRAM")
	if dram.Values[0] < 2 {
		t.Fatalf("DRAM antagonist at low load = %v, want severe violation", dram.Values[0])
	}
	if dram.Values[4] > 1.2 {
		t.Fatalf("DRAM antagonist at 90%% load = %v, want recovery (LC defends its share)", dram.Values[4])
	}
	brain, _ := table.Row("brain")
	for i, v := range brain.Values {
		if v < 1.0 {
			t.Fatalf("OS-only brain colocation at load %v = %v: must violate (§3.3)", loads[i], v)
		}
	}
	net, _ := table.Row("Network")
	for i, v := range net.Values {
		if v > 1.0 {
			t.Fatalf("network antagonist hurts websearch at load %v (%v); it must not (§3.3)", loads[i], v)
		}
	}
}

func TestFigure1MemkeyvalNetworkCliff(t *testing.T) {
	lab := sharedLab(t)
	loads := []float64{0.1, 0.3, 0.6, 0.9}
	table := lab.Figure1("memkeyval", loads)
	net, _ := table.Row("Network")
	if net.Values[0] > 1 {
		t.Fatalf("memkeyval network at 10%% load = %v, want fine", net.Values[0])
	}
	if net.Values[2] < 2 {
		t.Fatalf("memkeyval network at 60%% load = %v, want overrun by mice flows (§3.3)", net.Values[2])
	}
}

func TestFigure1Rendering(t *testing.T) {
	table := Fig1Table{
		Workload: "test",
		Loads:    []float64{0.5},
		Rows:     []Fig1Row{{Antagonist: "DRAM", Values: []float64{3.5}}},
	}
	out := table.String()
	if !strings.Contains(out, ">300%") {
		t.Fatalf("saturated cell not rendered: %q", out)
	}
	if !strings.Contains(out, "DRAM") {
		t.Fatal("row name missing")
	}
}

func TestFigure3SurfaceMonotoneAndConvex(t *testing.T) {
	lab := sharedLab(t)
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	s := lab.Figure3("websearch", fracs, fracs)
	// Max load never decreases when more cores or cache are granted.
	for i := range s.MaxLoad {
		for j := range s.MaxLoad[i] {
			if i > 0 && s.MaxLoad[i][j] < s.MaxLoad[i-1][j]-0.03 {
				t.Fatalf("more cores lowered max load at (%d,%d)", i, j)
			}
			if j > 0 && s.MaxLoad[i][j] < s.MaxLoad[i][j-1]-0.03 {
				t.Fatalf("more cache lowered max load at (%d,%d)", i, j)
			}
		}
	}
	// Full allocation sustains (nearly) full load.
	if s.MaxLoad[4][4] < 0.9 {
		t.Fatalf("full allocation max load = %v", s.MaxLoad[4][4])
	}
	// The paper's convexity claim (diminishing returns, Figure 3).
	if v := s.ConvexViolations(0.05); v > 3 {
		t.Fatalf("convexity violations = %d", v)
	}
	if !strings.Contains(s.String(), "Max load under SLO") {
		t.Fatal("rendering broken")
	}
}

func TestDRAMModelInterpolation(t *testing.T) {
	lab := sharedLab(t)
	model := lab.DRAMModel("websearch")
	// Bandwidth grows with load.
	low := model.LCDemandGBs(0.1, 36, 20)
	high := model.LCDemandGBs(0.9, 36, 20)
	if high <= low {
		t.Fatalf("model bandwidth not increasing: %v -> %v", low, high)
	}
	// Interpolated points stay between grid neighbours.
	mid := model.LCDemandGBs(0.5, 36, 20)
	if mid < low || mid > high {
		t.Fatalf("interpolation out of range: %v not in [%v, %v]", mid, low, high)
	}
	// Clamping outside the grid.
	if model.LCDemandGBs(-1, 36, 20) < 0 {
		t.Fatal("clamped lookup negative")
	}
	if model.LCDemandGBs(2, 999, 999) <= 0 {
		t.Fatal("clamped lookup should return the max-corner value")
	}
}

func TestColocateNoViolationAndEMUGain(t *testing.T) {
	lab := sharedLab(t)
	loads := []float64{0.3, 0.6}
	opts := RunOpts{Duration: 8 * time.Minute, Warmup: 2 * time.Minute, UseDRAMModel: true}
	s := lab.Colocate("websearch", "brain", loads, opts)
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("violations at %v", v)
	}
	for i, p := range s.Points {
		if p.EMU <= p.Load+0.05 {
			t.Fatalf("no colocation benefit at load %v: EMU %v", loads[i], p.EMU)
		}
	}
	if !strings.Contains(s.String(), "websearch + brain") {
		t.Fatal("series rendering broken")
	}
}

func TestBaselineEMUEqualsLoad(t *testing.T) {
	lab := sharedLab(t)
	loads := []float64{0.25, 0.75}
	s := lab.Baseline("websearch", loads, RunOpts{Duration: 3 * time.Minute, Warmup: time.Minute})
	for i, p := range s.Points {
		if p.EMU < loads[i]-0.03 || p.EMU > loads[i]+0.03 {
			t.Fatalf("baseline EMU at %v = %v", loads[i], p.EMU)
		}
		if p.SLOViolation {
			t.Fatalf("baseline violates at %v", loads[i])
		}
	}
}

func TestGridInts(t *testing.T) {
	g := gridInts(2, 36, 6)
	if g[0] != 2 || g[len(g)-1] != 36 {
		t.Fatalf("grid endpoints: %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing: %v", g)
		}
	}
}

// scaledModel is a DRAM model off by a constant factor.
type scaledModel struct {
	core.DRAMModel
	k float64
}

func (m scaledModel) LCDemandGBs(load float64, cores, ways int) float64 {
	return m.DRAMModel.LCDemandGBs(load, cores, ways) * m.k
}

func TestOutdatedDRAMModelTolerated(t *testing.T) {
	// §5.2: "the websearch binary and shard changed between generating the
	// offline profiling model ... and performing this experiment.
	// Nevertheless, Heracles is resilient to these changes and performs
	// well despite the somewhat outdated model." Perturb the model by
	// ±25% and assert the controller still avoids violations.
	lab := sharedLab(t)
	base := lab.DRAMModel("websearch")
	for _, scale := range []float64{0.75, 1.25} {
		stale := scaledModel{base, scale}
		opts := RunOpts{Duration: 8 * time.Minute, Warmup: 2 * time.Minute}
		cfg := core.DefaultConfig()
		opts.Controller = &cfg
		s := lab.ColocateWithModel("websearch", "streetview", []float64{0.4}, opts, stale)
		if v := s.Violations(); len(v) != 0 {
			t.Fatalf("stale model (x%.2f) caused violations at %v", scale, v)
		}
	}
}

func TestMultipleBETasksShareAllocation(t *testing.T) {
	// Heracles manages one LC workload with *many* BE tasks (§4).
	lab := sharedLab(t)
	m := machine.New(lab.Cfg)
	m.SetLC(lab.LC("websearch"))
	m.AddBE(lab.BE("brain"), workload.PlaceDedicated)
	m.AddBE(lab.BE("streetview"), workload.PlaceDedicated)
	m.SetLoad(0.3)
	ctl := core.New(m, lab.DRAMModel("websearch"), core.DefaultConfig())
	worst := 0.0
	for i := 0; i < 600; i++ {
		tel := m.Step()
		ctl.Step(m.Clock().Now())
		if i > 120 {
			if f := tel.TailLatency.Seconds() / lab.LC("websearch").SLO.Seconds(); f > worst {
				worst = f
			}
		}
	}
	tel := m.Last()
	if worst > 1.0 {
		t.Fatalf("worst tail with two BE tasks = %.0f%% of SLO", 100*worst)
	}
	if tel.EMU < 0.5 {
		t.Fatalf("EMU with two BE tasks = %v", tel.EMU)
	}
	// Both tasks hold disjoint cores.
	brainCores := map[int]bool{}
	for _, c := range m.BEs()[0].Cores {
		brainCores[c] = true
	}
	for _, c := range m.BEs()[1].Cores {
		if brainCores[c] {
			t.Fatalf("BE tasks share core %d", c)
		}
	}
}
