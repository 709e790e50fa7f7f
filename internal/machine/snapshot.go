package machine

import (
	"fmt"
	"time"

	"heracles/internal/hw"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// Snapshot is the machine's complete serializable state: every field a
// restored machine needs to continue a run bit-identically to one that
// was never interrupted. Workloads travel by name — calibrated LC/BE
// objects are environment, not state, and the restoring side resolves
// them against its own catalogue (the same convention scenario events
// use). Of the telemetry, Last carries the newest epoch in full (the
// controller's per-socket and per-core monitors read it on the next epoch)
// and Window the poll ring oldest-first: as many epochs as the machine's
// reader declared it can ask for (KeepTailHistory — 15 under the default
// controller on 1 s epochs), so the controller's windowed TailLatency polls
// see exactly the history they would have. The latency engine
// (lat.Analytic) keeps no state, so there is none of it to carry.
type Snapshot struct {
	HW    hw.Config     `json:"hw"`
	Epoch time.Duration `json:"epoch_ns"`
	Now   time.Duration `json:"now_ns"`

	LC  *LCSnapshot  `json:"lc,omitempty"`
	BEs []BESnapshot `json:"bes,omitempty"`

	BENetCeilGBs float64 `json:"be_net_ceil_gbs,omitempty"`
	SLOScale     float64 `json:"slo_scale,omitempty"`
	Degrade      float64 `json:"degrade,omitempty"`
	BEGoodCPUSec float64 `json:"be_good_cpu_s,omitempty"`
	BELostCPUSec float64 `json:"be_lost_cpu_s,omitempty"`
	LastService  float64 `json:"last_service_s,omitempty"`

	Last   Telemetry    `json:"last"`
	Window []TailSample `json:"window,omitempty"`
}

// LCSnapshot is the serialized latency-critical task.
type LCSnapshot struct {
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	Cores    []int   `json:"cores"`
	Ways     int     `json:"ways,omitempty"`
	OSShared bool    `json:"os_shared,omitempty"`
}

// BESnapshot is one serialized best-effort task.
type BESnapshot struct {
	Workload   string                 `json:"workload"`
	Placement  workload.PlacementKind `json:"placement"`
	Enabled    bool                   `json:"enabled"`
	Cores      []int                  `json:"cores,omitempty"`
	Ways       int                    `json:"ways,omitempty"`
	FreqCapGHz float64                `json:"freq_cap_ghz,omitempty"`
	LastRate   float64                `json:"last_rate,omitempty"`
	LastNorm   float64                `json:"last_norm,omitempty"`
	LastHit    float64                `json:"last_hit,omitempty"`
	CPUSec     float64                `json:"cpu_s,omitempty"`
}

// Snapshot captures the machine's state. Every slice is deep-copied, so
// the snapshot stays valid while the machine continues to step (Step
// refills the telemetry and the poll ring in place).
func (m *Machine) Snapshot() Snapshot {
	s := Snapshot{
		HW:           m.cfg,
		Epoch:        m.epoch,
		Now:          m.clock.Now(),
		BENetCeilGBs: m.beNetCeilGBs,
		SLOScale:     m.sloScale,
		Degrade:      m.degrade,
		BEGoodCPUSec: m.beGoodCPUSec,
		BELostCPUSec: m.beLostCPUSec,
		LastService:  m.lastService,
	}
	if m.lc != nil {
		s.LC = &LCSnapshot{
			Workload: m.lc.WL.Spec.Name,
			Load:     m.lc.Load,
			Cores:    append([]int(nil), m.lc.Cores...),
			Ways:     m.lc.Ways,
			OSShared: m.lc.OSShared,
		}
	}
	for _, be := range m.bes {
		s.BEs = append(s.BEs, BESnapshot{
			Workload:   be.WL.Spec.Name,
			Placement:  be.Placement,
			Enabled:    be.Enabled,
			Cores:      append([]int(nil), be.Cores...),
			Ways:       be.Ways,
			FreqCapGHz: be.FreqCapGHz,
			LastRate:   be.LastRate,
			LastNorm:   be.LastNorm,
			LastHit:    be.LastHit,
			CPUSec:     be.CPUSec,
		})
	}
	s.Last = cloneTelemetry(&m.tel)
	if n := len(m.window); n > 0 {
		s.Window = make([]TailSample, 0, n)
		s.Window = append(append(s.Window, m.window[m.head:]...), m.window[:m.head]...)
	}
	return s
}

// cloneTelemetry deep-copies one epoch's counters.
func cloneTelemetry(t *Telemetry) Telemetry {
	out := *t
	out.SocketPowerW = append([]float64(nil), t.SocketPowerW...)
	out.DRAMSocketUtil = append([]float64(nil), t.DRAMSocketUtil...)
	out.PerCoreDRAMGBs = append([]float64(nil), t.PerCoreDRAMGBs...)
	return out
}

// RestoreMachine rebuilds a machine from a snapshot. lcByName and
// beByName resolve the snapshot's workload names against the caller's
// calibrated catalogue; a resolver returning nil for a referenced name is
// an error. The restored machine steps bit-identically to the one the
// snapshot was taken from.
func RestoreMachine(s Snapshot, lcByName func(string) *workload.LC, beByName func(string) *workload.BE, opts ...Option) (*Machine, error) {
	if err := s.HW.Validate(); err != nil {
		return nil, fmt.Errorf("machine: snapshot hardware config: %w", err)
	}
	epoch := s.Epoch
	if epoch <= 0 {
		epoch = time.Second
	}
	m := New(s.HW, append([]Option{WithEpoch(epoch)}, opts...)...)
	m.clock = sim.NewClock(s.Now)

	if s.LC != nil {
		var wl *workload.LC
		if lcByName != nil {
			wl = lcByName(s.LC.Workload)
		}
		if wl == nil {
			return nil, fmt.Errorf("machine: snapshot references unknown LC workload %q", s.LC.Workload)
		}
		lc := m.SetLC(wl)
		lc.Load = s.LC.Load
		lc.Cores = append([]int(nil), s.LC.Cores...)
		lc.Ways = s.LC.Ways
		lc.OSShared = s.LC.OSShared
	}
	for _, bs := range s.BEs {
		var wl *workload.BE
		if beByName != nil {
			wl = beByName(bs.Workload)
		}
		if wl == nil {
			return nil, fmt.Errorf("machine: snapshot references unknown BE workload %q", bs.Workload)
		}
		be := m.AddBE(wl, bs.Placement)
		be.Enabled = bs.Enabled
		be.Cores = append([]int(nil), bs.Cores...)
		be.Ways = bs.Ways
		be.FreqCapGHz = bs.FreqCapGHz
		be.LastRate = bs.LastRate
		be.LastNorm = bs.LastNorm
		be.LastHit = bs.LastHit
		be.CPUSec = bs.CPUSec
	}

	m.beNetCeilGBs = s.BENetCeilGBs
	m.sloScale = s.SLOScale
	m.degrade = s.Degrade
	m.beGoodCPUSec = s.BEGoodCPUSec
	m.beLostCPUSec = s.BELostCPUSec
	m.lastService = s.LastService

	// The poll ring restarts oldest-first with head 0: logically identical
	// to the source ring for every TailLatency read. It holds everything
	// the snapshot carries — which may be more than the reader about to be
	// bound will ask for (a checkpoint written when every machine kept
	// 600 samples); that reader's KeepTailHistory trims it to the newest.
	m.tel = cloneTelemetry(&s.Last)
	if err := checkWindow(s.Window, s.Now); err != nil {
		return nil, err
	}
	m.window = append([]TailSample(nil), s.Window...)
	m.depth = max(windowDepth, len(m.window))
	return m, nil
}

// checkWindow refuses a poll history TailLatency would misread: its
// backwards scan stops at the first sample at or before the cutoff, so
// the samples must run strictly forward in time and end no later than
// the snapshot's clock.
func checkWindow(w []TailSample, now time.Duration) error {
	for i := 1; i < len(w); i++ {
		if w[i].Time <= w[i-1].Time {
			return fmt.Errorf("machine: snapshot window[%d] at %v is not after window[%d] at %v", i, w[i].Time, i-1, w[i-1].Time)
		}
	}
	if n := len(w); n > 0 && w[n-1].Time > now {
		return fmt.Errorf("machine: snapshot window[%d] at %v lies after the snapshot's clock (%v)", n-1, w[n-1].Time, now)
	}
	return nil
}
