package machine

import (
	"fmt"
	"time"

	"heracles/internal/hw"
	"heracles/internal/workload"
)

// CalibrateLC turns an LC spec into a calibrated workload instance on the
// given hardware:
//
//   - SLO: SLOMultiplier times the unloaded tail latency, matching the
//     slack structure Figure 4 of the paper implies (unloaded websearch and
//     ml_cluster run at ~40% slack, memkeyval at ~80%).
//   - PeakQPS: the largest arrival rate whose tail latency still meets the
//     SLO when the workload owns the whole machine ("100% load" in every
//     figure of the paper).
//   - GuaranteedGHz: the frequency the workload sustains alone at peak
//     load, which the power subcontroller defends (Algorithm 3).
//
// Calibration uses the deterministic analytic engine regardless of the
// engine the caller will use for experiments. All 42 probes (one
// unloaded, 40 bisection steps, one at the peak found) run on a single
// machine: each re-installs the workload, which on this LC-only machine
// equals building a fresh one (see SetLC).
func CalibrateLC(cfg hw.Config, spec LCSpecSource) *workload.LC {
	s := spec.LCSpec()
	wl := &workload.LC{Spec: s}

	m := New(cfg)
	probe := func(qps float64, wl *workload.LC) (time.Duration, Telemetry) {
		m.SetLC(wl)
		if wl.PeakQPS > 0 {
			m.SetLoad(qps / wl.PeakQPS)
		}
		var t Telemetry
		// A handful of epochs lets the concurrency estimate settle.
		for i := 0; i < 6; i++ {
			t = m.Step()
		}
		return t.TailLatency, t
	}

	// Unloaded tail latency: probe at a small fraction of the rough
	// capacity k/S.
	k := float64(cfg.TotalCores())
	base := s.BaseService().Seconds()
	roughCap := k / base
	wl.PeakQPS = roughCap // temporary so SetLoad has a denominator
	unloaded, _ := probe(0.02*roughCap, wl)
	wl.SLO = time.Duration(float64(unloaded) * s.SLOMultiplier)

	// Peak QPS: bisect the largest load meeting the SLO.
	lo, hi := 0.02*roughCap, 1.2*roughCap
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		tail, _ := probe(mid, wl)
		if tail <= wl.SLO {
			lo = mid
		} else {
			hi = mid
		}
	}
	wl.PeakQPS = lo

	_, t := probe(lo, wl)
	wl.GuaranteedGHz = t.LCFreqGHz
	// The guaranteed frequency is the all-core sustained operating point;
	// clamp near nominal so transient turbo headroom at calibration time
	// does not become an unsatisfiable guarantee under colocation.
	if max := cfg.NominalGHz + 0.1; wl.GuaranteedGHz > max {
		wl.GuaranteedGHz = max
	}
	return wl
}

// LCSpecSource lets CalibrateLC accept either a bare spec or anything that
// can produce one.
type LCSpecSource interface{ LCSpec() workload.LCSpec }

// LCSpec implements LCSpecSource for workload.LCSpec itself via the
// SpecOf adapter.
type specAdapter struct{ s workload.LCSpec }

func (a specAdapter) LCSpec() workload.LCSpec { return a.s }

// SpecOf adapts a workload.LCSpec to the LCSpecSource interface.
func SpecOf(s workload.LCSpec) LCSpecSource { return specAdapter{s} }

// CalibrateBE measures a BE spec running alone on the machine (all cores,
// full cache, no frequency caps, no HTB ceiling) and returns the
// calibrated instance whose AloneRate normalises EMU accounting.
func CalibrateBE(cfg hw.Config, spec workload.BESpec) *workload.BE {
	wl := &workload.BE{Spec: spec}
	m := New(cfg)
	be := m.AddBE(wl, workload.PlaceDedicated)
	be.Cores = coreRange(0, cfg.TotalCores())
	for i := 0; i < 4; i++ {
		m.Step()
	}
	wl.AloneRate = be.LastRate
	wl.AloneHit = be.LastHit
	if wl.AloneRate <= 0 {
		panic(fmt.Sprintf("machine: BE %q calibrated to zero alone-rate", spec.Name))
	}
	return wl
}
