package experiment

import (
	"reflect"
	"sync"
	"time"

	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/parallel"
	"heracles/internal/workload"
)

// Lab caches calibrated workloads for a hardware configuration so that the
// many experiment runners share one calibration pass. Each workload (and
// each offline DRAM model) is resolved at most once behind its own
// sync.Once, so concurrent sweeps never recalibrate and never serialise on
// an unrelated workload's calibration. The built-in LC workloads on the
// built-in hardware resolve from a generated table (calibrations.go)
// instead of calibrating; any other input calibrates live.
type Lab struct {
	Cfg hw.Config

	// Workers bounds the concurrency of this lab's sweeps and grids:
	// 0 selects parallel.DefaultWorkers (GOMAXPROCS), 1 forces the
	// sequential reference execution the determinism tests compare
	// against. RunOpts.Workers overrides it per run.
	Workers int

	lcs        memo[*workload.LC]
	bes        memo[*workload.BE]
	dramModels memo[*DRAMTable]
}

// memo is a per-key once-cache: the map lock is held only to find or
// create an entry, and the expensive compute runs inside the entry's own
// sync.Once, so different keys calibrate concurrently while the same key
// calibrates exactly once.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	v    T
}

func (mm *memo[T]) get(name string, compute func() T) T {
	mm.mu.Lock()
	if mm.m == nil {
		mm.m = make(map[string]*memoEntry[T])
	}
	e, ok := mm.m[name]
	if !ok {
		e = &memoEntry[T]{}
		mm.m[name] = e
	}
	mm.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// NewLab returns a lab for the given hardware.
func NewLab(cfg hw.Config) *Lab {
	return &Lab{Cfg: cfg}
}

// DefaultLab returns a lab on the paper's reference hardware.
func DefaultLab() *Lab { return NewLab(hw.DefaultConfig()) }

// workers resolves the lab-level worker count.
func (l *Lab) workers() int {
	if l.Workers != 0 {
		return l.Workers
	}
	return parallel.DefaultWorkers()
}

// LC returns the calibrated latency-critical workload with the given name,
// resolved on first use: from the offline table when it holds the lab's
// hardware and the workload's spec, else by calibrating live. Each lab
// gets its own copy. It panics on unknown names (experiment configuration
// is programmer error, not runtime input).
func (l *Lab) LC(name string) *workload.LC {
	if !workload.HasLC(name) {
		panic("experiment: unknown LC workload " + name)
	}
	return l.lcs.get(name, func() *workload.LC {
		spec, _ := workload.LCByName(name)
		if c := offlineFor(l.Cfg, spec); c != nil {
			wl := c.lc
			wl.Spec = spec
			return &wl
		}
		return machine.CalibrateLC(l.Cfg, spec)
	})
}

// offlineCalibration is one entry of the generated table in
// calibrations.go: what the live path computes for one built-in LC spec
// on one built-in hardware configuration. lc.Spec is the spec half of
// the key.
type offlineCalibration struct {
	cfg  hw.Config
	lc   workload.LC
	dram *DRAMTable
}

// offlineFor returns the table's entry for (cfg, spec), or nil. Only the
// full key decides: every field of cfg and of spec, and every cache
// component, compares equal.
func offlineFor(cfg hw.Config, spec workload.LCSpec) *offlineCalibration {
	for i := range offlineCalibrations {
		c := &offlineCalibrations[i]
		if c.cfg == cfg && reflect.DeepEqual(c.lc.Spec, spec) {
			return c
		}
	}
	return nil
}

// BE returns the calibrated best-effort workload with the given name,
// calibrating it on first use.
func (l *Lab) BE(name string) *workload.BE {
	if !workload.HasBE(name) {
		panic("experiment: unknown BE workload " + name)
	}
	return l.bes.get(name, func() *workload.BE {
		spec, _ := workload.BEByName(name)
		return machine.CalibrateBE(l.Cfg, spec)
	})
}

// MinCoresForSLO returns the smallest number of cores on which the LC
// workload meets its SLO at the given load, running alone with the full
// LLC — the §3.2 characterisation setup ("pinning the LC workload to
// enough cores to satisfy its SLO at the specific load").
func (l *Lab) MinCoresForSLO(lcName string, load float64) int {
	wl := l.LC(lcName)
	total := l.Cfg.TotalCores()
	// Pin with a modest margin (90% of the SLO): operators leave headroom
	// when sizing, and the paper's Figure 1 cells hover around 100%. The
	// remaining cores run a neutral compute filler during the probe so
	// that sizing happens at realistic (non-turbo) frequencies — the
	// antagonist occupying those cores will consume the turbo headroom.
	target := wl.SLO.Seconds() * 0.90
	filler := l.BE("filler")
	// Unlike the LC-only probes of calibration and Figure 3, each probe
	// here builds its own machine: it installs a BE filler, and removing
	// that is not a reset the way re-installing the LC task is (see
	// Machine.SetLC).
	meets := func(n int) bool {
		m := machine.New(l.Cfg)
		m.SetLC(wl)
		m.AddBE(filler, workload.PlaceDedicated)
		m.SetLoad(load)
		m.PinLC(n)
		var t machine.Telemetry
		for i := 0; i < 6; i++ {
			t = m.Step()
		}
		return t.TailLatency.Seconds() <= target
	}
	lo, hi := 1, total
	if !meets(hi) {
		return hi
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if meets(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// measureTail runs the machine for warmup+measure epochs and returns the
// mean tail latency over the measurement phase as a fraction of the SLO.
func measureTail(m *machine.Machine, slo time.Duration, warmup, measure int) float64 {
	for i := 0; i < warmup; i++ {
		m.Step()
	}
	var sum float64
	for i := 0; i < measure; i++ {
		t := m.Step()
		sum += t.TailLatency.Seconds()
	}
	return sum / float64(measure) / slo.Seconds()
}
