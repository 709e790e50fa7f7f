package experiment

import (
	"sync"
	"time"

	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/parallel"
	"heracles/internal/workload"
)

// Lab caches calibrated workloads for a hardware configuration so that the
// many experiment runners share one calibration pass. Each workload (and
// each offline DRAM model) is calibrated at most once behind its own
// sync.Once, so concurrent sweeps never recalibrate and never serialise on
// an unrelated workload's calibration.
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
// calibrating it on first use. It panics on unknown names (experiment
// configuration is programmer error, not runtime input).
func (l *Lab) LC(name string) *workload.LC {
	spec, ok := workload.LCByName(name)
	if !ok {
		panic("experiment: unknown LC workload " + name)
	}
	return l.lcs.get(name, func() *workload.LC {
		return machine.CalibrateLC(l.Cfg, machine.SpecOf(spec))
	})
}

// BE returns the calibrated best-effort workload with the given name,
// calibrating it on first use.
func (l *Lab) BE(name string) *workload.BE {
	spec, ok := workload.BEByName(name)
	if !ok {
		if name == "filler" {
			spec = workload.Filler()
		} else {
			panic("experiment: unknown BE workload " + name)
		}
	}
	return l.bes.get(name, func() *workload.BE {
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
