package machine

import (
	"fmt"
	"time"

	"heracles/internal/cache"
	"heracles/internal/hw"
	"heracles/internal/netlink"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// LCTask is the latency-critical task hosted on the machine.
type LCTask struct {
	WL   *workload.LC
	Load float64 // offered load as a fraction of calibrated peak QPS

	Cores []int // physical core ids owned by the task
	Ways  int   // LLC ways owned (top ways of each socket); 0 = share all

	// OSShared marks the §3.3 OS-isolation-only experiment where the LC
	// task floats across every core under CFS instead of being pinned.
	OSShared bool
}

// BETask is one best-effort task or antagonist on the machine.
type BETask struct {
	WL        *workload.BE
	Placement workload.PlacementKind
	Enabled   bool

	Cores      []int   // physical core ids (dedicated placement only)
	Ways       int     // LLC ways (bottom ways of each socket); 0 = share all
	FreqCapGHz float64 // per-core DVFS cap; 0 = uncapped

	// LastRate is the work rate of the previous epoch; LastNorm is the
	// same normalised to the calibrated alone-rate (EMU contribution).
	// LastHit is the cache hit ratio observed in the previous epoch.
	LastRate float64
	LastNorm float64
	LastHit  float64

	// CPUSec is the cumulative busy CPU time (core-seconds) this task has
	// accrued while enabled — the currency of the scheduler's goodput
	// accounting. It survives controller park/unpark cycles; it is lost
	// (counted as evicted) when the task is removed before CompleteBE.
	CPUSec float64
}

// Machine is the simulated server.
type Machine struct {
	cfg   hw.Config
	clock *sim.Clock
	epoch time.Duration

	lc  *LCTask
	bes []*BETask

	beNetCeilGBs float64 // HTB ceiling over all BE traffic; 0 = uncapped
	sloScale     float64 // controller-visible SLO scale; 0 or 1 = unscaled
	degrade      float64 // LC service-time degradation factor; 0 or 1 = none

	// Cumulative BE CPU-time disposition (busy core-seconds of retired
	// tasks): beGoodCPUSec accrues on CompleteBE, beLostCPUSec on RemoveBE
	// (a task that departs or is evicted before completing loses its
	// work).
	beGoodCPUSec float64
	beLostCPUSec float64

	lastService float64 // previous epoch mean LC service time (seconds)
	// tel is the last resolved epoch. Step refills it in place, reusing
	// its three slices, which is what makes steady-state stepping
	// allocation-free.
	tel Telemetry
	// window is the controller's poll history: one TailSample per epoch,
	// appended until it holds depth entries and from then on overwritten
	// oldest-first at head. depth is what the reader declared it can ask
	// for (KeepTailHistory), windowDepth until it has.
	window []TailSample
	head   int // physical index of the oldest sample once the ring is full
	depth  int

	scratch stepScratch
	reuse   stageReuse
}

// stepScratch holds every buffer Step needs so that steady-state stepping
// performs no heap allocations. Buffers sized by topology are allocated in
// New; buffers sized by task count grow on demand in ensureScratch.
type stepScratch struct {
	loads     []hw.CoreLoad // per-core power activity and DVFS cap
	coreFreq  []float64     // resolved per-core frequency
	lcCoreSet []bool        // cores owned by the LC task
	isBE      []bool        // reused by Partition/PinLC/BECoreCount
	taken     []int         // per-socket core-picking cursor
	beCores   []int         // Partition's interleaved BE core list
	dedicated []*BETask     // Partition's dedicated-task list

	missRate     []float64   // per task, all sockets
	accRate      []float64   // per task
	missBySocket [][]float64 // per socket, per task
	dramInfl     []float64   // per socket
	achievedBW   []float64   // per task
	demandBW     []float64   // per task
	memDemands   []float64   // one socket's DRAM demand vector
	memAchieved  []float64   // one socket's DRAM result buffer

	demands   []cache.Demand // one socket's cache demands
	demandIdx []int          // task index per demand
	cacheSc   cache.Scratch

	netClasses  [2]netlink.Class
	netAchieved [2]float64
	netSc       netlink.Scratch
}

// ensureScratch sizes the task-count-dependent buffers for nTasks tasks.
func (m *Machine) ensureScratch(nTasks int) {
	sc := &m.scratch
	if cap(sc.missRate) >= nTasks {
		return
	}
	sc.missRate = make([]float64, nTasks)
	sc.accRate = make([]float64, nTasks)
	sc.achievedBW = make([]float64, nTasks)
	sc.demandBW = make([]float64, nTasks)
	sc.memDemands = make([]float64, nTasks)
	sc.memAchieved = make([]float64, nTasks)
	sc.demands = make([]cache.Demand, 0, nTasks)
	sc.demandIdx = make([]int, 0, nTasks)
	for s := range sc.missBySocket {
		sc.missBySocket[s] = make([]float64, nTasks)
	}
}

// Option configures a Machine.
type Option func(*Machine)

// WithEpoch sets the resolution epoch (default: 1s).
func WithEpoch(d time.Duration) Option { return func(m *Machine) { m.epoch = d } }

// New returns a machine with the given hardware config.
func New(cfg hw.Config, opts ...Option) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("machine: invalid config: %v", err))
	}
	m := &Machine{
		cfg:   cfg,
		clock: sim.NewClock(0),
		epoch: time.Second,
		depth: windowDepth,
	}
	tc := cfg.TotalCores()
	m.scratch = stepScratch{
		loads:        make([]hw.CoreLoad, tc),
		coreFreq:     make([]float64, tc),
		lcCoreSet:    make([]bool, tc),
		isBE:         make([]bool, tc),
		taken:        make([]int, cfg.Sockets),
		dramInfl:     make([]float64, cfg.Sockets),
		missBySocket: make([][]float64, cfg.Sockets),
	}
	m.ensureScratch(2)
	for _, o := range opts {
		o(m)
	}
	m.reuse = newStageReuse(cfg, m.scratch.coreFreq)
	return m
}

// Clock returns the machine's simulated clock.
func (m *Machine) Clock() *sim.Clock { return m.clock }

// Epoch returns the resolution epoch.
func (m *Machine) Epoch() time.Duration { return m.epoch }

// SetLC installs the latency-critical task with all cores and ways, at
// load 0, replacing any earlier one.
//
// On a machine with the analytic engine that has never held a BE task or
// had a knob (degradation, BE ceiling) turned, re-installing equals
// starting over on a fresh machine: the task and the service-time
// feedback, both replaced here, are all that an LC-only Step reads from
// earlier epochs — the clock and the poll window only stamp and record
// the result, and stage reuse returns what a solve would. Every epoch
// that follows matches the fresh machine's in all of Telemetry but Time.
// CalibrateLC and the profiling grids run their probes on one machine on
// this ground. Once BE tasks have been installed nothing of the sort is
// promised: removing them is not a reset (the CPU-time totals of retired
// tasks stay, and Step reports them).
func (m *Machine) SetLC(wl *workload.LC) *LCTask {
	m.lc = &LCTask{WL: wl, Cores: coreRange(0, m.cfg.TotalCores())}
	m.lastService = wl.Spec.BaseService().Seconds()
	return m.lc
}

// LC returns the installed LC task, or nil.
func (m *Machine) LC() *LCTask { return m.lc }

// AddBE installs a best-effort task with no cores; callers place it with
// Partition, PinLC or by setting Cores directly.
func (m *Machine) AddBE(wl *workload.BE, placement workload.PlacementKind) *BETask {
	be := &BETask{WL: wl, Placement: placement, Enabled: true}
	m.bes = append(m.bes, be)
	return be
}

// BEs returns the installed BE tasks.
func (m *Machine) BEs() []*BETask { return m.bes }

// RemoveBE detaches one BE task, counting its accrued CPU time as
// evicted (work lost before completion). The departed task's cores stay
// unassigned until the next Partition/SetBECores call; callers that want
// them redistributed immediately should follow up with
// Partition(BECoreCount()).
func (m *Machine) RemoveBE(be *BETask) {
	if m.detachBE(be) {
		m.beLostCPUSec += be.CPUSec
	}
}

// CompleteBE detaches one BE task whose job finished, counting its
// accrued CPU time as completed work. The fleet scheduler retires jobs
// through this so goodput and wasted BE CPU-seconds are separable in
// telemetry.
func (m *Machine) CompleteBE(be *BETask) {
	if m.detachBE(be) {
		m.beGoodCPUSec += be.CPUSec
	}
}

// detachBE splices the task out of the live list, reporting whether it
// was installed.
func (m *Machine) detachBE(be *BETask) bool {
	for i, b := range m.bes {
		if b == be {
			m.bes = append(m.bes[:i], m.bes[i+1:]...)
			return true
		}
	}
	return false
}

// SetLoad sets the LC offered load as a fraction of peak QPS.
func (m *Machine) SetLoad(load float64) {
	if m.lc == nil {
		return
	}
	if load < 0 {
		load = 0
	}
	m.lc.Load = load
}

// Partition splits cores Heracles-style: dedicated BE tasks receive nBE
// cores taken from the top of each socket alternately (so BE memory
// traffic spreads across both memory controllers, as happens with
// abundant single-socket BE tasks), and the LC task owns the rest. The LC
// workload spans sockets for cores and memory (§4.3).
func (m *Machine) Partition(nBE int) {
	tc := m.cfg.TotalCores()
	cps := m.cfg.CoresPerSocket
	if nBE < 0 {
		nBE = 0
	}
	if nBE > tc-1 {
		nBE = tc - 1
	}
	// Pick BE cores from the top of each socket, round-robin over sockets.
	beCores := m.scratch.beCores[:0]
	taken := m.scratch.taken
	for s := range taken {
		taken[s] = 0
	}
	for len(beCores) < nBE {
		for s := 0; s < m.cfg.Sockets && len(beCores) < nBE; s++ {
			if taken[s] >= cps {
				continue
			}
			taken[s]++
			beCores = append(beCores, s*cps+cps-taken[s])
		}
	}
	m.scratch.beCores = beCores
	isBE := m.scratch.isBE
	for c := range isBE {
		isBE[c] = false
	}
	for _, c := range beCores {
		isBE[c] = true
	}
	if m.lc != nil {
		m.lc.Cores = m.lc.Cores[:0]
		for c := 0; c < tc; c++ {
			if !isBE[c] {
				m.lc.Cores = append(m.lc.Cores, c)
			}
		}
	}
	dedicated := m.scratch.dedicated[:0]
	for _, be := range m.bes {
		if be.Placement == workload.PlaceDedicated {
			dedicated = append(dedicated, be)
		}
	}
	m.scratch.dedicated = dedicated
	if len(dedicated) == 0 {
		return
	}
	for i, be := range dedicated {
		be.Cores = be.Cores[:0]
		for j := i; j < len(beCores); j += len(dedicated) {
			be.Cores = append(be.Cores, beCores[j])
		}
	}
}

// PinLC pins the LC task to exactly n cores (the characterisation setup of
// §3.2: "pinning the LC workload to enough cores to satisfy its SLO at the
// specific load"). Dedicated BE tasks receive all remaining cores. Both
// allocations interleave sockets, matching the paper's use of numactl to
// ensure the antagonist and the LC task share sockets and "all memory
// channels are stressed".
func (m *Machine) PinLC(n int) {
	tc := m.cfg.TotalCores()
	cps := m.cfg.CoresPerSocket
	if n < 1 {
		n = 1
	}
	if n > tc {
		n = tc
	}
	lcCores := make([]int, 0, n)
	taken := m.scratch.taken
	for s := range taken {
		taken[s] = 0
	}
	for len(lcCores) < n {
		for s := 0; s < m.cfg.Sockets && len(lcCores) < n; s++ {
			if taken[s] >= cps {
				continue
			}
			lcCores = append(lcCores, s*cps+taken[s])
			taken[s]++
		}
	}
	isLC := m.scratch.isBE // reused scratch; semantics here are "is LC"
	for c := range isLC {
		isLC[c] = false
	}
	for _, c := range lcCores {
		isLC[c] = true
	}
	rest := make([]int, 0, tc-n)
	for c := 0; c < tc; c++ {
		if !isLC[c] {
			rest = append(rest, c)
		}
	}
	if m.lc != nil {
		m.lc.Cores = lcCores
	}
	for _, be := range m.bes {
		if be.Placement == workload.PlaceDedicated {
			be.Cores = rest
		}
	}
}

// PartitionWays gives the BE tasks the bottom beWays LLC ways and the LC
// task the rest, on every socket (how Heracles programs CAT: one partition
// for the LC workload, a second for all BE tasks, §4.1).
func (m *Machine) PartitionWays(beWays int) {
	w := m.cfg.LLCWays
	if beWays < 0 {
		beWays = 0
	}
	if beWays > w-1 {
		beWays = w - 1
	}
	if m.lc != nil {
		if beWays == 0 {
			m.lc.Ways = 0
		} else {
			m.lc.Ways = w - beWays
		}
	}
	for _, be := range m.bes {
		be.Ways = beWays
	}
}

// SetDegrade installs a service-time degradation factor for the LC task:
// every request's compute and memory time is multiplied by f, modelling a
// slow leaf (thermal throttling, a failing disk behind the shard, an
// overloaded neighbour VM). f <= 1 restores full speed.
func (m *Machine) SetDegrade(f float64) {
	if f <= 1 {
		f = 0
	}
	m.degrade = f
}

// SetBENetCeil sets the HTB ceiling for aggregate BE egress traffic.
func (m *Machine) SetBENetCeil(gbs float64) {
	if gbs < 0 {
		gbs = 0
	}
	m.beNetCeilGBs = gbs
}

// BENetCeil returns the current aggregate BE egress ceiling (0 = uncapped).
func (m *Machine) BENetCeil() float64 { return m.beNetCeilGBs }

// SetBEFreqCap applies a DVFS cap to all BE cores.
func (m *Machine) SetBEFreqCap(ghz float64) {
	for _, be := range m.bes {
		be.FreqCapGHz = ghz
	}
}

// BEFreqCap returns the DVFS cap of the first BE task (they share caps
// when set through SetBEFreqCap), or 0 if none is installed.
func (m *Machine) BEFreqCap() float64 {
	for _, be := range m.bes {
		return be.FreqCapGHz
	}
	return 0
}

// EnableBE / DisableBE toggle execution of all BE tasks.
func (m *Machine) EnableBE() {
	for _, be := range m.bes {
		be.Enabled = true
	}
}

// DisableBE suspends all BE tasks.
func (m *Machine) DisableBE() {
	for _, be := range m.bes {
		be.Enabled = false
		be.LastRate, be.LastNorm = 0, 0
	}
}

// BEEnabled reports whether any BE task is currently enabled.
func (m *Machine) BEEnabled() bool {
	for _, be := range m.bes {
		if be.Enabled {
			return true
		}
	}
	return false
}

// ResetStats clears telemetry history and queue state between experiment
// points.
func (m *Machine) ResetStats() {
	m.window, m.head = m.window[:0], 0
	if m.lc != nil {
		m.lastService = m.lc.WL.Spec.BaseService().Seconds()
	}
}

func coreRange(lo, hi int) []int {
	if hi <= lo {
		return nil
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// coresOnSocket counts the cores that lie on the socket, which owns core
// ids [socket*coresPerSocket, (socket+1)*coresPerSocket).
func coresOnSocket(coresPerSocket int, cores []int, socket int) int {
	lo := socket * coresPerSocket
	hi := lo + coresPerSocket
	n := 0
	for _, c := range cores {
		if lo <= c && c < hi {
			n++
		}
	}
	return n
}
