package machine

import (
	"math"
	"slices"
	"time"

	"heracles/internal/cache"
	"heracles/internal/workload"
)

// epochRecord is the whole of an epoch Step resolved: everything Step
// reads that can change between epochs (the key) and what it wrote
// outside m.tel. Step answers a repeated epoch here before any stage
// runs, and m.tel is already its telemetry: every Step rewrites m.tel in
// full, and only RestoreMachine, on a fresh machine, writes it otherwise.
// The key is values only, no task or workload identity, so one machine's
// record answers another machine of its group whose epoch is the same
// (answerFrom). It compares floats bit for bit and owns copies of the
// core lists and components, which callers edit in place. It is a
// cache, not state.
type epochRecord struct {
	valid   bool
	hasLC   bool
	lcT     LCTask      // *lc as Step found it, Cores held in lcCores
	lcV     workload.LC // *lc.WL, Spec.CacheComponents pointing into comps
	lcCores []uint16    // points into cores

	epoch                           time.Duration
	lastService, degrade, beNetCeil float64 // as Step found them
	service                         float64 // m.lastService as Step left it

	bes   []beRecord
	cores []uint16
	comps []cache.Component
	// Epochs answered by this record and by a sibling's, read by tests.
	hits, siblingHits uint64
}

// beRecord is one BE task's part of the key and what Step wrote to it.
type beRecord struct {
	t                 BETask      // *task as Step left it, Cores held in cores
	v                 workload.BE // *task.WL, Spec.CacheComponents pointing into comps
	cores             []uint16    // points into epochRecord.cores
	cpuSec            float64     // added to CPUSec if accrued
	wroteHit, accrued bool
}

// accrue adds sec busy core-seconds to be and records the add. The
// conversion rounds sec, so no fused multiply-add parts it from replay's.
func (o *beRecord) accrue(be *BETask, sec float64) {
	be.CPUSec += float64(sec)
	o.cpuSec, o.accrued = sec, true
}

// beginEpoch empties m's record and returns a slot per BE task for Step.
func (m *Machine) beginEpoch() []beRecord {
	if m.rec == nil {
		m.rec = new(epochRecord)
	}
	r := m.rec
	r.valid = false
	r.bes = slices.Grow(r.bes[:0], len(m.bes))[:len(m.bes)]
	for i := range r.bes {
		r.bes[i].wroteHit, r.bes[i].accrued = false, false
	}
	return r.bes
}

// keepEpoch makes the epoch Step just resolved the record's, given the
// service-time feedback Step found. A core id outside uint16 leaves the
// record empty.
func (m *Machine) keepEpoch(lastService float64) {
	r := m.rec
	r.cores, r.comps = r.cores[:0], r.comps[:0]
	ok := true
	r.hasLC = m.lc != nil
	if lc := m.lc; lc != nil { // with no LC task, answers reads no LC key
		r.lcT, r.lcV = *lc, *lc.WL
		r.lcCores, ok = r.keepCores(lc.Cores)
		r.lcT.Cores, r.lcV.Spec.CacheComponents = nil, r.keepComps(lc.WL.Spec.CacheComponents)
	}
	for i, be := range m.bes {
		o := &r.bes[i]
		var fits bool
		o.t, o.v = *be, *be.WL
		o.cores, fits = r.keepCores(be.Cores)
		o.t.Cores, o.v.Spec.CacheComponents = nil, r.keepComps(be.WL.Spec.CacheComponents)
		ok = ok && fits
	}
	r.epoch, r.lastService, r.degrade, r.beNetCeil, r.service = m.epoch, lastService, m.degrade, m.beNetCeilGBs, m.lastService
	r.valid = ok
}

// keepComps appends comps to the record's buffer and returns the copy;
// should the append move the buffer, earlier copies stay intact.
func (r *epochRecord) keepComps(comps []cache.Component) []cache.Component {
	lo := len(r.comps)
	r.comps = append(r.comps, comps...)
	return r.comps[lo:]
}

// keepCores is keepComps for a core list; false if an id overflows uint16.
func (r *epochRecord) keepCores(cores []int) ([]uint16, bool) {
	lo := len(r.cores)
	r.cores = slices.Grow(r.cores, len(cores))[:lo+len(cores)]
	kept, all := r.cores[lo:][:len(cores)], uint(0)
	for i, c := range cores {
		kept[i], all = uint16(c), all|uint(c)
	}
	return kept, all <= math.MaxUint16
}

// answers reports whether m is about to step the recorded epoch again.
// It compares values only: Step reads no task's identity.
func (r *epochRecord) answers(m *Machine) bool {
	if r == nil || !r.valid || (m.lc != nil) != r.hasLC || len(m.bes) != len(r.bes) || m.epoch != r.epoch ||
		!sameBits(m.lastService, r.lastService) || !sameBits(m.degrade, r.degrade) ||
		!sameBits(m.beNetCeilGBs, r.beNetCeil) {
		return false
	}
	if lc, t := m.lc, &r.lcT; lc != nil && (!sameBits(lc.Load, t.Load) ||
		lc.Ways != t.Ways || lc.OSShared != t.OSShared ||
		!sameCores(lc.Cores, r.lcCores) || !sameLC(lc.WL, &r.lcV)) {
		return false
	}
	for i, be := range m.bes {
		o := &r.bes[i]
		if be.Placement != o.t.Placement || be.Enabled != o.t.Enabled ||
			be.Ways != o.t.Ways || !sameBits(be.FreqCapGHz, o.t.FreqCapGHz) ||
			!sameCores(be.Cores, o.cores) || !sameBE(be.WL, &o.v) {
			return false
		}
	}
	return true
}

// replayEpoch is Step answered by r, a record of m's epoch whose
// telemetry m.tel holds: r's writes land on m's own tasks, by index.
func (m *Machine) replayEpoch(r *epochRecord) Telemetry {
	tel := &m.tel
	tel.Time = m.clock.Now() + m.epoch
	tel.BEGoodCPUSec, tel.BELostCPUSec = m.beGoodCPUSec, m.beLostCPUSec
	for i, be := range m.bes {
		o := &r.bes[i]
		be.LastRate, be.LastNorm = o.t.LastRate, o.t.LastNorm
		if o.wroteHit {
			be.LastHit = o.t.LastHit
		}
		if o.accrued {
			be.CPUSec += o.cpuSec
		}
	}
	m.lastService = r.service
	m.clock.Advance(m.epoch)
	m.pushSample(TailSample{Time: tel.Time, TailLatency: tel.TailLatency})
	return *tel
}

// answerFrom is Step answered by o's record, which holds m's epoch: o's
// telemetry is copied into m's own buffers, the record replayed onto m,
// and then kept as m's own record, for m's next epoch and its group.
func (m *Machine) answerFrom(o *Machine) Telemetry {
	tel, src, lastService := &m.tel, o.rec, m.lastService
	pw, dram, util := tel.SocketPowerW, tel.PerCoreDRAMGBs, tel.DRAMSocketUtil
	*tel = o.tel
	tel.SocketPowerW = append(pw[:0], o.tel.SocketPowerW...)
	tel.PerCoreDRAMGBs = append(dram[:0], o.tel.PerCoreDRAMGBs...)
	tel.DRAMSocketUtil = append(util[:0], o.tel.DRAMSocketUtil...)
	out := m.replayEpoch(src)
	for i := range m.beginEpoch() {
		r, s := &m.rec.bes[i], &src.bes[i]
		r.cpuSec, r.wroteHit, r.accrued = s.cpuSec, s.wroteHit, s.accrued
	}
	m.keepEpoch(lastService)
	m.rec.siblingHits++
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCores(a []int, b []uint16) bool {
	return slices.EqualFunc(a, b, func(x int, y uint16) bool { return x == int(y) })
}

// sameComponents is cache.SameDemands' comparison of two component lists.
func sameComponents(a, b []cache.Component) bool {
	x, y := [1]cache.Demand{{Components: a}}, [1]cache.Demand{{Components: b}}
	return cache.SameDemands(x[:], y[:])
}

func sameLC(a, b *workload.LC) bool {
	x, y := &a.Spec, &b.Spec
	return x.Name == y.Name && sameBits(x.SLOQuantile, y.SLOQuantile) &&
		sameBits(x.SLOMultiplier, y.SLOMultiplier) && x.CPUTime == y.CPUTime &&
		x.MemTime == y.MemTime && sameBits(x.Sigma, y.Sigma) &&
		sameBits(x.AccessesPerReq, y.AccessesPerReq) && sameBits(x.RefOutstanding, y.RefOutstanding) &&
		sameBits(x.BytesPerReq, y.BytesPerReq) && x.Flows == y.Flows &&
		sameBits(x.Activity, y.Activity) && x.RampPenalty == y.RampPenalty &&
		x.OSSharedPenalty == y.OSSharedPenalty && sameComponents(x.CacheComponents, y.CacheComponents) &&
		a.SLO == b.SLO && sameBits(a.PeakQPS, b.PeakQPS) && sameBits(a.GuaranteedGHz, b.GuaranteedGHz)
}

func sameBE(a, b *workload.BE) bool {
	x, y := &a.Spec, &b.Spec
	return x.Name == y.Name && sameBits(x.CPUFrac, y.CPUFrac) && sameBits(x.MemFrac, y.MemFrac) &&
		sameBits(x.AccessRatePerCore, y.AccessRatePerCore) && sameBits(x.Activity, y.Activity) &&
		sameBits(x.NetDemandGBs, y.NetDemandGBs) && x.NetFlows == y.NetFlows &&
		sameBits(x.HTPenalty, y.HTPenalty) && x.NetworkBound == y.NetworkBound &&
		sameComponents(x.CacheComponents, y.CacheComponents) &&
		sameBits(a.AloneRate, b.AloneRate) && sameBits(a.AloneHit, b.AloneHit)
}
