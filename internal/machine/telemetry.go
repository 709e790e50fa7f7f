package machine

import (
	"fmt"
	"math"
	"time"

	"heracles/internal/lat"
	"heracles/internal/workload"
)

// Telemetry is the full set of counters produced by one resolved epoch.
// It contains everything the Heracles controller monitors (tail latency,
// load, DRAM bandwidth, RAPL-style power, core frequencies, link
// bandwidth) plus the accounting the experiments report (EMU, utilisation
// percentages).
type Telemetry struct {
	Time time.Duration // simulated time at the end of the epoch

	// Latency-critical workload.
	Lat         lat.EpochStats
	TailLatency time.Duration // at the workload's SLO quantile
	LCLoad      float64       // offered load fraction
	LCServed    float64       // served QPS / peak QPS
	LCCores     int
	LCWays      int
	LCFreqGHz   float64 // minimum frequency across LC cores
	LCDRAMGBs   float64
	LCTxGBs     float64

	// Best-effort tasks (aggregate).
	BEEnabled  bool
	BECores    int
	BEWays     int
	BEFreqCap  float64
	BEDRAMGBs  float64
	BETxGBs    float64
	BERateNorm float64 // sum of per-task normalised rates
	BEFreqGHz  float64 // mean achieved frequency across BE cores
	// Cumulative CPU time (busy core-seconds) of retired BE tasks, split
	// by disposition: BEGoodCPUSec accrued via CompleteBE (finished jobs),
	// BELostCPUSec via RemoveBE (evicted or departed before completion).
	// The fleet scheduler's goodput accounting reads these as its single
	// source of truth.
	BEGoodCPUSec float64
	BELostCPUSec float64

	// Shared resources.
	SocketPowerW   []float64
	PowerFracTDP   float64 // total power / total TDP
	MaxSocketPower float64 // max over sockets of power/TDP
	CPUUtil        float64 // busy cores / total cores
	DRAMTotalGBs   float64 // achieved, all sockets
	DRAMDemandGBs  float64
	DRAMUtil       float64   // achieved / peak, all sockets
	DRAMSocketUtil []float64 // achieved / peak per socket (controller registers)
	PerCoreDRAMGBs []float64
	LinkUtil       float64 // egress

	// Effective machine utilisation (§5.1): LC throughput + BE throughput,
	// both normalised to running alone.
	EMU float64
}

// Last returns the telemetry of the most recent epoch.
func (m *Machine) Last() Telemetry { return m.tel }

// windowDepth is how many epochs of poll history a machine keeps until its
// reader has said how much it needs (KeepTailHistory).
const windowDepth = 600

// TailSample is one epoch of the controller's poll history: the only two
// counters TailLatency reads back from past epochs.
type TailSample struct {
	Time        time.Duration `json:"t_ns"`    // simulated time at the end of the epoch
	TailLatency time.Duration `json:"tail_ns"` // at the workload's SLO quantile
}

// KeepTailHistory declares the longest window the machine's reader will
// ever pass to TailLatency, and sizes the poll ring to it: one sample per
// epoch the window can reach, never fewer than one. The controller
// declares its longest poll when it is bound to the machine (core.New), so
// the ring — and with it every snapshot and checkpoint — holds the history
// that can be read and nothing older. Samples already recorded beyond the
// new depth are dropped, oldest first; a machine has one reader, and a
// later declaration replaces an earlier one.
func (m *Machine) KeepTailHistory(window time.Duration) {
	depth := max(int((window+m.epoch-1)/m.epoch), 1)
	if n := len(m.window); n > depth || m.head != 0 {
		// Re-lay the ring oldest-first from slot 0, the shape pushSample
		// appends to while it holds fewer than depth samples.
		keep := min(n, depth)
		w := make([]TailSample, keep)
		for j := range w {
			w[j] = m.sampleAt(n - keep + j)
		}
		m.window, m.head = w, 0
	}
	m.depth = depth
}

// pushSample records the epoch Step just resolved, overwriting the oldest
// sample once the ring is full.
func (m *Machine) pushSample(s TailSample) {
	if n := len(m.window); n < m.depth {
		if n == cap(m.window) {
			// Double, but never past the depth: append's own growth would
			// leave a full ring holding 40% more capacity than it can use.
			grown := make([]TailSample, n, min(2*n+8, m.depth))
			copy(grown, m.window)
			m.window = grown
		}
		m.window = append(m.window, s)
		return
	}
	m.window[m.head] = s
	m.head = (m.head + 1) % m.depth
}

// sampleAt returns epoch j of the poll history, j=0 oldest. head is zero
// until the ring has filled.
func (m *Machine) sampleAt(j int) TailSample {
	return m.window[(m.head+j)%len(m.window)]
}

// TailLatency returns the LC tail latency averaged over the epochs within
// the trailing window — the controller's 15-second poll (paper §4.3,
// "polls the tail latency and load of the LC workload every 15 seconds...
// sufficient queries to calculate statistically meaningful tail
// latencies"). The boolean is false if no epoch has completed yet.
//
// The ring holds only as many epochs as KeepTailHistory declared (600 on a
// machine nobody declared for). A longer window cannot be answered from
// it, and averaging what is left would be a wrong number that looks right:
// asking for one is a bug in the reader and panics.
func (m *Machine) TailLatency(window time.Duration) (time.Duration, bool) {
	if kept := time.Duration(m.depth) * m.epoch; window > kept {
		panic(fmt.Sprintf("machine: TailLatency over %v, but the poll ring keeps %v (KeepTailHistory declares the longest window)", window, kept))
	}
	n := len(m.window)
	if n == 0 {
		return 0, false
	}
	cutoff := m.clock.Now() - window
	var sum float64
	var used int
	for j := n - 1; j >= 0; j-- {
		s := m.sampleAt(j)
		if s.Time <= cutoff {
			break
		}
		sum += s.TailLatency.Seconds()
		used++
	}
	if used == 0 {
		return m.sampleAt(n - 1).TailLatency, true
	}
	return time.Duration(sum / float64(used) * float64(time.Second)), true
}

// Load returns the LC offered load fraction (the controller's load poll).
func (m *Machine) Load() float64 {
	if m.lc == nil {
		return 0
	}
	return m.lc.Load
}

// SLO returns the LC workload's latency target as seen by the controller,
// scaled by any SLO scale installed with SetSLOScale.
func (m *Machine) SLO() time.Duration {
	if m.lc == nil {
		return 0
	}
	if m.sloScale > 0 {
		return time.Duration(float64(m.lc.WL.SLO) * m.sloScale)
	}
	return m.lc.WL.SLO
}

// SetSLOScale tightens (scale < 1) or relaxes the latency target the
// controller defends, without changing experiment accounting. The cluster
// experiment of §5.3 uses this: each leaf runs "a uniform 99%-ile latency
// target set such that the latency at the root satisfies the SLO".
func (m *Machine) SetSLOScale(scale float64) { m.sloScale = scale }

// GuaranteedGHz returns the LC workload's guaranteed frequency, measured
// at calibration time when it runs alone at full load (§4.3).
func (m *Machine) GuaranteedGHz() float64 {
	if m.lc == nil {
		return 0
	}
	return m.lc.WL.GuaranteedGHz
}

// --- Controller-facing monitors and actuators -------------------------

// BECoreCount returns the number of cores currently granted to dedicated
// BE tasks.
func (m *Machine) BECoreCount() int {
	seen := m.scratch.isBE
	for c := range seen {
		seen[c] = false
	}
	n := 0
	for _, be := range m.bes {
		if be.Placement != workload.PlaceDedicated {
			continue
		}
		for _, c := range be.Cores {
			if c < len(seen) && !seen[c] {
				seen[c] = true
				n++
			}
		}
	}
	return n
}

// SetBECores grows or shrinks the dedicated BE core allocation to n,
// reassigning the remaining cores to the LC task (Heracles reassigns cores
// between the LC and BE jobs one at a time, §4.3).
func (m *Machine) SetBECores(n int) { m.Partition(n) }

// MaxBECores is the largest BE core allocation the machine permits; the
// LC task always keeps at least one core.
func (m *Machine) MaxBECores() int { return m.cfg.TotalCores() - 1 }

// BEWayCount returns the LLC ways currently granted to BE tasks.
func (m *Machine) BEWayCount() int {
	for _, be := range m.bes {
		return be.Ways
	}
	return 0
}

// SetBEWays resizes the BE cache partition (CAT reprogramming, §4.1).
func (m *Machine) SetBEWays(n int) { m.PartitionWays(n) }

// TotalWays returns the number of LLC ways per socket.
func (m *Machine) TotalWays() int { return m.cfg.LLCWays }

// DRAMPeakGBs returns the machine's peak streaming DRAM bandwidth.
func (m *Machine) DRAMPeakGBs() float64 { return m.cfg.TotalDRAMGBs() }

// DRAMTotalGBs returns the last epoch's achieved DRAM bandwidth (the
// "registers that track bandwidth usage" of §4.3).
func (m *Machine) DRAMTotalGBs() float64 { return m.tel.DRAMTotalGBs }

// DRAMMaxSocketFrac returns the utilisation of the busiest memory
// controller (achieved/peak of the hottest socket). The paper's
// controller reads per-controller bandwidth registers; a single saturated
// socket hurts any task with memory there even when machine-total
// bandwidth looks moderate.
func (m *Machine) DRAMMaxSocketFrac() float64 {
	var max float64
	for _, u := range m.tel.DRAMSocketUtil {
		if u > max {
			max = u
		}
	}
	return max
}

// BEDRAMCounterGBs estimates BE DRAM bandwidth by summing the per-core
// bandwidth counters over the BE cores, the same hardware-counter
// estimate Heracles uses (§4.3).
func (m *Machine) BEDRAMCounterGBs() float64 {
	var sum float64
	for _, be := range m.bes {
		if be.Placement != workload.PlaceDedicated || !be.Enabled {
			continue
		}
		for _, c := range be.Cores {
			if c < len(m.tel.PerCoreDRAMGBs) {
				sum += m.tel.PerCoreDRAMGBs[c]
			}
		}
	}
	return sum
}

// MaxSocketPowerFrac returns the highest socket power as a fraction of its
// TDP (the RAPL reading of Algorithm 3).
func (m *Machine) MaxSocketPowerFrac() float64 { return m.tel.MaxSocketPower }

// LCFreqGHz returns the minimum operating frequency across LC cores.
func (m *Machine) LCFreqGHz() float64 { return m.tel.LCFreqGHz }

// LowerBEFreq lowers the BE DVFS cap by one 100 MHz step.
func (m *Machine) LowerBEFreq() {
	cur := m.BEFreqCap()
	if cur == 0 {
		cur = m.cfg.MaxTurboGHz
	}
	next := cur - 0.1
	if next < m.cfg.MinGHz {
		next = m.cfg.MinGHz
	}
	m.SetBEFreqCap(next)
}

// RaiseBEFreq raises the BE DVFS cap by one 100 MHz step; at the top the
// cap is removed entirely.
func (m *Machine) RaiseBEFreq() {
	cur := m.BEFreqCap()
	if cur == 0 {
		return
	}
	next := cur + 0.1
	if next >= m.cfg.MaxTurboGHz {
		m.SetBEFreqCap(0)
		return
	}
	m.SetBEFreqCap(next)
}

// LCTxGBs returns the LC workload's egress bandwidth last epoch.
func (m *Machine) LCTxGBs() float64 { return m.tel.LCTxGBs }

// LinkGBs returns the NIC line rate in GB/s.
func (m *Machine) LinkGBs() float64 { return m.cfg.LinkGBs() }

// SetBETxCeil installs the aggregate HTB ceiling for BE egress traffic.
func (m *Machine) SetBETxCeil(gbs float64) { m.SetBENetCeil(gbs) }

// BERate returns the aggregate normalised BE work rate (for the
// controller's BeBenefit check and for EMU accounting).
func (m *Machine) BERate() float64 { return m.tel.BERateNorm }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
