package machine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/workload"
)

// telemetryJSON renders an epoch's telemetry without its timestamp, in
// the exact form stateJSON explains.
func telemetryJSON(t *testing.T, tel Telemetry) []byte {
	t.Helper()
	tel.Time = 0
	b, err := json.Marshal(tel)
	if err != nil {
		t.Fatalf("marshal telemetry: %v", err)
	}
	return b
}

// lcProbe is one LC-only probe: the workload as it stood when the probe
// ran (calibration probes while PeakQPS and SLO are still being found),
// its allocation, and the telemetry of every epoch a fresh machine
// produced for it.
type lcProbe struct {
	wl    workload.LC
	load  float64
	cores int // PinLC argument; 0 = not pinned
	ways  int // LC way count; 0 = all
	want  [][]byte
}

// install sets the probe up on m the way CalibrateLC and the experiment
// grids do.
func (p *lcProbe) install(m *Machine) {
	wl := p.wl
	m.SetLC(&wl)
	if p.cores > 0 {
		m.PinLC(p.cores)
	}
	if p.ways > 0 {
		m.LC().Ways = p.ways
	}
	m.SetLoad(p.load)
}

// calibrateOnFreshMachines is CalibrateLC as it was before its probes
// shared a machine — a new machine per probe — recording every probe.
func calibrateOnFreshMachines(t *testing.T, cfg hw.Config, s workload.LCSpec) (*workload.LC, []lcProbe) {
	wl := &workload.LC{Spec: s}
	var probes []lcProbe
	probe := func(qps float64) Telemetry {
		p := lcProbe{wl: *wl, load: qps / wl.PeakQPS}
		m := New(cfg)
		p.install(m)
		var tel Telemetry
		for i := 0; i < 6; i++ {
			tel = m.Step()
			p.want = append(p.want, telemetryJSON(t, tel))
		}
		probes = append(probes, p)
		return tel
	}

	roughCap := float64(cfg.TotalCores()) / s.BaseService().Seconds()
	wl.PeakQPS = roughCap
	wl.SLO = time.Duration(float64(probe(0.02*roughCap).TailLatency) * s.SLOMultiplier)
	lo, hi := 0.02*roughCap, 1.2*roughCap
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if probe(mid).TailLatency <= wl.SLO {
			lo = mid
		} else {
			hi = mid
		}
	}
	wl.PeakQPS = lo
	wl.GuaranteedGHz = math.Min(probe(lo).LCFreqGHz, cfg.NominalGHz+0.1)
	return wl, probes
}

// TestReinstalledLCMatchesFreshMachine is the ground CalibrateLC, the
// DRAM profile and Figure 3 stand on when they run many LC-only probes on
// one machine: after SetLC, every epoch equals a fresh machine's in every
// Telemetry field but Time. One machine replays all of a calibration's
// probes (in search order, overload included) and then the whole DRAM
// profiling grid, five epochs a cell, against a fresh machine per probe.
func TestReinstalledLCMatchesFreshMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  hw.Config
	}{{"dual-socket", hw.DefaultConfig()}, {"single-socket", hw.CompactConfig()}} {
		for _, spec := range workload.LCSpecs() {
			t.Run(tc.name+"/"+spec.Name, func(t *testing.T) {
				cfg := tc.cfg
				wl, probes := calibrateOnFreshMachines(t, cfg, spec)
				if got := CalibrateLC(cfg, spec); got.SLO != wl.SLO ||
					math.Float64bits(got.PeakQPS) != math.Float64bits(wl.PeakQPS) ||
					math.Float64bits(got.GuaranteedGHz) != math.Float64bits(wl.GuaranteedGHz) {
					t.Fatalf("CalibrateLC = SLO %v, peak %v QPS, %v GHz; a machine per probe gives SLO %v, peak %v QPS, %v GHz",
						got.SLO, got.PeakQPS, got.GuaranteedGHz, wl.SLO, wl.PeakQPS, wl.GuaranteedGHz)
				}
				if len(probes) != 42 {
					t.Fatalf("calibration made %d probes, want 42", len(probes))
				}

				// The grid Lab.profileDRAM walks on this hardware.
				for _, load := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95} {
					for c := 0; c < 6; c++ {
						for w := 0; w < 5; w++ {
							p := lcProbe{wl: *wl, load: load,
								cores: 2 + (cfg.TotalCores()-2)*c/5, ways: 2 + (cfg.LLCWays-2)*w/4}
							if p.ways == cfg.LLCWays {
								p.ways = 0
							}
							m := New(cfg)
							p.install(m)
							for e := 0; e < 5; e++ {
								p.want = append(p.want, telemetryJSON(t, m.Step()))
							}
							probes = append(probes, p)
						}
					}
				}

				reused := New(cfg)
				for i := range probes {
					p := &probes[i]
					p.install(reused)
					for e, want := range p.want {
						if got := telemetryJSON(t, reused.Step()); !bytes.Equal(got, want) {
							t.Fatalf("probe %d (load %v, %d cores, %d ways), epoch %d: re-used machine differs from a fresh one\nre-used: %s\nfresh:   %s",
								i, p.load, p.cores, p.ways, e, got, want)
						}
					}
				}
				freq, llc, _ := reused.ReuseCounts()
				if freq.Reused == 0 || llc.Reused == 0 {
					t.Errorf("stage reuse never answered on the re-used machine (frequency %+v, cache %+v); the comparison must cover it", freq, llc)
				}
			})
		}
	}
}

// TestCalibrationPinned pins what calibration produces, bit for bit, on
// both hardware generations. Every experiment number descends from these
// three values per workload; a change to the probes that moves one in the
// last place would otherwise surface only as a scatter of golden diffs.
func TestCalibrationPinned(t *testing.T) {
	type pin struct {
		slo      time.Duration
		peakQPS  uint64
		guarGHz  uint64
		workload string
	}
	for _, tc := range []struct {
		name string
		cfg  hw.Config
		pins []pin
	}{
		{"dual-socket", hw.DefaultConfig(), []pin{
			{50740159, 0x40a5b18cefcbc1b0, 0x4003333333333333, "websearch"},
			{18924071, 0x40b4595360e6da68, 0x4003333333333333, "ml_cluster"},
			{453085, 0x41293b67b962ec6e, 0x4003333333333333, "memkeyval"},
		}},
		{"single-socket", hw.CompactConfig(), []pin{
			{51237755, 0x409230d7afdb6700, 0x4000cccccccccccd, "websearch"},
			{19092051, 0x40a1f8e145f025aa, 0x4000cccccccccccd, "ml_cluster"},
			{458320, 0x4115008330198776, 0x4000cccccccccccd, "memkeyval"},
		}},
	} {
		for _, p := range tc.pins {
			spec, ok := workload.LCByName(p.workload)
			if !ok {
				t.Fatalf("no LC workload %q", p.workload)
			}
			wl := CalibrateLC(tc.cfg, spec)
			if wl.SLO != p.slo || math.Float64bits(wl.PeakQPS) != p.peakQPS || math.Float64bits(wl.GuaranteedGHz) != p.guarGHz {
				t.Errorf("%s %s: SLO %d ns, PeakQPS %#x (%v), GuaranteedGHz %#x (%v); pinned %d ns, %#x, %#x",
					tc.name, p.workload, int64(wl.SLO), math.Float64bits(wl.PeakQPS), wl.PeakQPS,
					math.Float64bits(wl.GuaranteedGHz), wl.GuaranteedGHz, int64(p.slo), p.peakQPS, p.guarGHz)
			}
		}
	}
}
