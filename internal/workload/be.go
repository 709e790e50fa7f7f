package workload

import (
	"slices"

	"heracles/internal/cache"
)

// PlacementKind describes how a BE task or antagonist is placed relative
// to the LC workload during an experiment.
type PlacementKind int

const (
	// PlaceDedicated pins the task to its own physical cores (what
	// Heracles enforces, and what the LLC/DRAM/power antagonists use in
	// the characterisation of §3.2).
	PlaceDedicated PlacementKind = iota
	// PlaceHTSibling pins the task onto the sibling hyperthreads of the
	// LC workload's cores (the HyperThread antagonist of §3.2).
	PlaceHTSibling
	// PlaceOSShared lets the task float across all cores under CFS with
	// low shares and no other isolation (the "brain" rows of Figure 1).
	PlaceOSShared
)

// String returns the placement name.
func (p PlacementKind) String() string {
	switch p {
	case PlaceDedicated:
		return "dedicated"
	case PlaceHTSibling:
		return "ht-sibling"
	case PlaceOSShared:
		return "os-shared"
	default:
		return "unknown"
	}
}

// BESpec describes a best-effort task or antagonist microbenchmark.
type BESpec struct {
	Name string

	// Work model: one unit of work costs CPUFrac of pure compute and
	// MemFrac of memory stalls (at the reference miss ratio). The machine
	// model inflates the memory portion by cache and bandwidth
	// contention, and divides by the relative core frequency.
	CPUFrac float64
	MemFrac float64

	// Cache and memory behaviour.
	AccessRatePerCore float64 // LLC accesses per second per core at nominal frequency
	CacheComponents   []cache.Component

	// Power.
	Activity float64 // per-core activity factor (power virus > 1)

	// Network.
	NetDemandGBs float64 // total egress demand; 0 for none
	NetFlows     int     // TCP flow count (mice flows for iperf)

	// HTPenalty is the fractional increase in the co-runner's compute
	// time when this task runs on the sibling hyperthread of a core.
	HTPenalty float64

	// NetworkBound marks tasks whose useful throughput is their achieved
	// egress bandwidth rather than core work (iperf).
	NetworkBound bool
}

// BE is a calibrated best-effort workload instance.
type BE struct {
	Spec BESpec
	// AloneRate is the task's work rate running alone on the reference
	// machine (all cores, full LLC, no caps), used to normalise EMU.
	AloneRate float64
	// AloneHit is the cache hit ratio running alone, the reference point
	// for the memory-stall inflation in the throughput model.
	AloneHit float64
}

// streamComponents returns the cache working set of a streaming
// microbenchmark over an array of the given size.
func streamComponents(arrayMB float64) []cache.Component {
	return []cache.Component{
		// A cyclic streaming pass has no temporal reuse until the array
		// fits in the cache, at which point nearly everything hits.
		{Name: "stream", AccessFrac: 1, FootprintMB: arrayMB, HitMax: 0.98, Scan: true},
	}
}

// StreamLLC returns the LLC streaming benchmark sized to about half the
// LLC — identical to the "LLC (med)" antagonist of §3.2 and the
// "stream-LLC" BE task of §5.1.
func StreamLLC() BESpec {
	return BESpec{
		Name:              "stream-LLC",
		CPUFrac:           0.25,
		MemFrac:           0.75,
		AccessRatePerCore: 125e6,
		CacheComponents:   streamComponents(22),
		Activity:          0.85,
		HTPenalty:         0.45,
	}
}

// LLCSmall returns the quarter-LLC streaming antagonist ("LLC (small)").
func LLCSmall() BESpec {
	s := StreamLLC()
	s.Name = "LLC (small)"
	s.CacheComponents = streamComponents(11)
	return s
}

// LLCMedium returns the half-LLC streaming antagonist ("LLC (med)").
func LLCMedium() BESpec {
	s := StreamLLC()
	s.Name = "LLC (med)"
	return s
}

// LLCBig returns the streaming antagonist sized to almost the whole LLC
// ("LLC (big)"). Because it barely fits, it both evicts the LC hot working
// set and spills significant traffic to DRAM.
func LLCBig() BESpec {
	s := StreamLLC()
	s.Name = "LLC (big)"
	s.CacheComponents = streamComponents(42)
	return s
}

// StreamDRAM returns the DRAM streaming benchmark over an array far larger
// than the LLC ("DRAM" antagonist, "stream-DRAM" BE task). Per-core demand
// is ~8 GB/s, so a handful of cores saturate a socket's channels.
func StreamDRAM() BESpec {
	return BESpec{
		Name:              "stream-DRAM",
		CPUFrac:           0.1,
		MemFrac:           0.9,
		AccessRatePerCore: 125e6,
		CacheComponents:   streamComponents(4096),
		Activity:          0.75,
		HTPenalty:         0.5,
	}
}

// CPUPower returns the CPU power virus (§3.2): it stresses every unit of
// the core, drawing maximum power, and is pure compute.
func CPUPower() BESpec {
	return BESpec{
		Name:              "cpu_pwr",
		CPUFrac:           1.0,
		MemFrac:           0.0,
		AccessRatePerCore: 1e6,
		CacheComponents: []cache.Component{
			{Name: "regs", AccessFrac: 1, FootprintMB: 0.5, HitMax: 0.999, Theta: 0.5},
		},
		Activity:  1.35,
		HTPenalty: 0.55,
	}
}

// Spinloop returns the minimal HyperThread antagonist of §3.2: a tight
// register-only spinloop that establishes a lower bound on hyperthread
// interference.
func Spinloop() BESpec {
	return BESpec{
		Name:              "spinloop",
		CPUFrac:           1.0,
		MemFrac:           0.0,
		AccessRatePerCore: 0,
		Activity:          0.45,
		HTPenalty:         0.12,
	}
}

// Iperf returns the network streaming antagonist (§3.2): many low-bandwidth
// "mice" flows that saturate transmit bandwidth and cannot be tamed by TCP
// congestion control alone.
func Iperf() BESpec {
	return BESpec{
		Name:              "iperf",
		CPUFrac:           1.0,
		MemFrac:           0.0,
		AccessRatePerCore: 1e6,
		Activity:          0.5,
		NetDemandGBs:      1.25, // fills a 10 Gb link
		NetFlows:          100,
		HTPenalty:         0.25,
		NetworkBound:      true,
	}
}

// Brain returns the production deep-learning BE workload (§5.1):
// computationally intensive, sensitive to LLC size, high DRAM bandwidth.
func Brain() BESpec {
	return BESpec{
		Name:              "brain",
		CPUFrac:           0.55,
		MemFrac:           0.45,
		AccessRatePerCore: 60e6,
		CacheComponents: []cache.Component{
			{Name: "weights", AccessFrac: 0.7, FootprintMB: 28, HitMax: 0.95, Theta: 0.8},
			{Name: "activations", AccessFrac: 0.3, FootprintMB: 512, HitMax: 0.2, Theta: 1.0},
		},
		Activity:  1.15,
		HTPenalty: 0.5,
	}
}

// Streetview returns the production image-stitching BE workload (§5.1):
// highly demanding on the DRAM subsystem, moderate compute.
func Streetview() BESpec {
	return BESpec{
		Name:              "streetview",
		CPUFrac:           0.2,
		MemFrac:           0.8,
		AccessRatePerCore: 110e6,
		CacheComponents: []cache.Component{
			{Name: "tiles", AccessFrac: 1, FootprintMB: 2048, HitMax: 0.15, Theta: 1.0},
		},
		Activity:  0.8,
		HTPenalty: 0.5,
	}
}

// Filler returns a neutral compute companion used only by the
// characterisation harness: it occupies the non-LC cores with typical
// activity so that "enough cores to satisfy the SLO" is sized under
// realistic (non-turbo) frequency conditions, without generating cache,
// memory or network interference of its own.
func Filler() BESpec {
	return BESpec{
		Name:              "filler",
		CPUFrac:           1.0,
		MemFrac:           0.0,
		AccessRatePerCore: 0,
		Activity:          0.7,
		HTPenalty:         0,
	}
}

var (
	production  = []func() BESpec{StreamLLC, StreamDRAM, CPUPower, Iperf, Brain, Streetview}
	antagonists = []func() BESpec{LLCSmall, LLCMedium, LLCBig, StreamDRAM, Spinloop, CPUPower, Iperf}
	// beNamed holds the constructor of every name BEByName resolves: the
	// evaluation workloads, the antagonists and the filler.
	beNamed = byName(slices.Concat(production, antagonists, []func() BESpec{Filler}), func(s BESpec) string { return s.Name })
)

// BESpecs returns the production BE workloads used in the evaluation
// (§5.1), excluding the synthetic antagonists.
func BESpecs() []BESpec { return build(production) }

// Antagonists returns the §3.2 characterisation microbenchmarks in the
// order of Figure 1's rows (brain is appended by the harness with
// OS-shared placement).
func Antagonists() []BESpec { return build(antagonists) }

// BEByName returns the BE spec with the given name among the evaluation
// workloads, the antagonists and the filler, or false. It builds only
// the spec it returns, a copy the caller owns.
func BEByName(name string) (BESpec, bool) {
	if f, ok := beNamed[name]; ok {
		return f(), true
	}
	return BESpec{}, false
}

// HasBE reports whether BEByName resolves name, building nothing.
func HasBE(name string) bool { return beNamed[name] != nil }

// build makes one spec per constructor.
func build[T any](ctors []func() T) []T {
	out := make([]T, len(ctors))
	for i, f := range ctors {
		out[i] = f()
	}
	return out
}

// byName indexes constructors by the name of the spec each builds; the
// first of a name wins.
func byName[T any](ctors []func() T, name func(T) string) map[string]func() T {
	m := make(map[string]func() T, len(ctors))
	for _, f := range ctors {
		if n := name(f()); m[n] == nil {
			m[n] = f
		}
	}
	return m
}
