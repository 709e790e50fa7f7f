package machine

import (
	"time"

	"heracles/internal/cache"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/mem"
	"heracles/internal/netlink"
	"heracles/internal/workload"
)

// cacheLineBytes is the unit of DRAM traffic per LLC miss.
const cacheLineBytes = 64

// minLCActivity keeps LC cores counted as active for frequency resolution
// even at very low utilisation (they wake for every request).
const minLCActivity = 0.08

// htSiblingActivity is the power-activity contribution of a task running
// on the sibling hyperthread of an already-active core.
const htSiblingActivity = 0.6

// htCoreEfficiency is the relative work rate of a task confined to sibling
// hyperthreads of busy cores.
const htCoreEfficiency = 0.35

// rampPressureStart is the socket power fraction (of TDP) beyond which the
// power-ramp tail penalty starts to apply.
const rampPressureStart = 0.85

// sigmaLoadFactor scales the growth of service-time variability with
// per-core utilisation. Real serving tails are dominated by service-time
// stragglers well before queueing saturates, so the factor is large: the
// SLO is reached around 65-75% per-core occupancy, where sensitivity to
// service-time perturbations is roughly linear rather than cliff-like.
const sigmaLoadFactor = 1.6

// netOverloadPenalty converts unmet egress demand (fractional shortfall)
// into transmit-queue delay: a queue that receives 10% more than it drains
// builds up tens of milliseconds within a control epoch.
const netOverloadPenalty = 0.02 // seconds per unit shortfall

// netOverloadCap bounds the modelled transmit-queue delay.
const netOverloadCap = 1.0 // seconds

// rampFreqWindow is the frequency deficit (GHz below guaranteed) at which
// the power-ramp penalty reaches full strength.
const rampFreqWindow = 0.4

// Step resolves one epoch and returns its telemetry; an epoch that repeats
// the last, or that another machine of the group has just resolved, is
// answered whole by that epoch record. The slices inside the returned
// Telemetry are the machine's own and are refilled by the next Step; copy
// them to retain longer.
func (m *Machine) Step() Telemetry {
	if r := m.rec; r.answers(m) {
		r.hits++
		return m.replayEpoch(r)
	}
	slot := m.epochSlot()
	if slot != nil {
		if o := *slot; o != nil && o.rec.answers(m) {
			return m.answerFrom(o)
		}
	}
	outs, lastService := m.beginEpoch(), m.lastService
	cfg := m.cfg
	tc := cfg.TotalCores()
	dt := m.epoch
	sc := &m.scratch

	tel := &m.tel
	*tel = Telemetry{
		Time:           m.clock.Now() + dt,
		SocketPowerW:   zeroFloats(tel.SocketPowerW, cfg.Sockets),
		PerCoreDRAMGBs: zeroFloats(tel.PerCoreDRAMGBs, tc),
		DRAMSocketUtil: zeroFloats(tel.DRAMSocketUtil, cfg.Sockets),
	}

	// --- 1. LC offered load and concurrency estimate -------------------
	var lambda float64
	var k int
	sPrev := m.lastService
	if m.lc != nil {
		lambda = m.lc.Load * m.lc.WL.PeakQPS
		k = len(m.lc.Cores)
		if m.lc.OSShared {
			k = tc
		}
		if sPrev <= 0 {
			sPrev = m.lc.WL.Spec.BaseService().Seconds()
		}
	}
	lcUtil := 0.0
	if k > 0 && sPrev > 0 {
		lcUtil = clamp01(lambda * sPrev / float64(k))
	}
	// The outstanding-request estimate (which scales per-request cache
	// footprints) uses the base service time, not the inflated one:
	// inflation feeding footprint feeding miss ratio feeding inflation
	// would be an unstable positive feedback loop with no real-world
	// counterpart at this timescale.
	outstanding := 0.0
	if m.lc != nil {
		outstanding = lambda * m.lc.WL.Spec.BaseService().Seconds()
	}

	// --- 2. Per-core activity and DVFS caps -----------------------------
	loads := sc.loads
	for c := range loads {
		loads[c] = hw.CoreLoad{}
	}
	lcCoreSet := sc.lcCoreSet
	for c := range lcCoreSet {
		lcCoreSet[c] = false
	}
	if m.lc != nil && lambda > 0 {
		a := m.lc.WL.Spec.Activity * maxf(lcUtil, minLCActivity)
		if m.lc.OSShared {
			for c := 0; c < tc; c++ {
				loads[c].Activity += a
				lcCoreSet[c] = true
			}
		} else {
			for _, c := range m.lc.Cores {
				loads[c].Activity += a
				lcCoreSet[c] = true
			}
		}
	}
	for _, be := range m.bes {
		if !be.Enabled {
			continue
		}
		switch be.Placement {
		case workload.PlaceDedicated:
			for _, c := range be.Cores {
				loads[c].Activity += be.WL.Spec.Activity
				if be.FreqCapGHz > 0 {
					loads[c].CapGHz = be.FreqCapGHz
				}
			}
		case workload.PlaceHTSibling:
			if m.lc != nil {
				for _, c := range m.lc.Cores {
					loads[c].Activity += htSiblingActivity * be.WL.Spec.Activity
				}
			}
		case workload.PlaceOSShared:
			for c := 0; c < tc; c++ {
				loads[c].Activity += be.WL.Spec.Activity * (1 - lcUtil)
			}
		}
	}

	// --- 3. Frequency/power resolution per socket -----------------------
	coreFreq := sc.coreFreq // resolveFrequencies keeps each socket's segment current
	var totalPower float64
	for s := 0; s < cfg.Sockets; s++ {
		lo := s * cfg.CoresPerSocket
		power := m.resolveFrequencies(s, loads[lo:lo+cfg.CoresPerSocket])
		tel.SocketPowerW[s] = power
		totalPower += power
		if f := power / cfg.TDPWatts; f > tel.MaxSocketPower {
			tel.MaxSocketPower = f
		}
	}
	tel.PowerFracTDP = totalPower / cfg.TotalTDPWatts()

	lcFreq := 0.0
	lcFreqN := 0
	for c := 0; c < tc; c++ {
		if lcCoreSet[c] && coreFreq[c] > 0 {
			if lcFreq == 0 || coreFreq[c] < lcFreq {
				lcFreq = coreFreq[c]
			}
			lcFreqN++
		}
	}
	if lcFreqN == 0 {
		lcFreq = cfg.TurboLimitGHz(1) // idle LC would wake into max turbo
	}
	tel.LCFreqGHz = lcFreq
	lcFreqRel := lcFreq / cfg.NominalGHz

	var beFreqSum float64
	var beFreqN int
	for _, be := range m.bes {
		if !be.Enabled || be.Placement != workload.PlaceDedicated {
			continue
		}
		for _, c := range be.Cores {
			if coreFreq[c] > 0 {
				beFreqSum += coreFreq[c]
				beFreqN++
			}
		}
	}
	if beFreqN > 0 {
		tel.BEFreqGHz = beFreqSum / float64(beFreqN)
	}

	// --- 4. LLC occupancy per socket ------------------------------------
	// Demand order per socket: index 0 is the LC task, then BE tasks in
	// installation order.
	solver := cache.Solver{WayMB: cfg.WayMB(), Ways: cfg.LLCWays}
	nTasks := 1 + len(m.bes)
	m.ensureScratch(nTasks)
	missRate := zeroFloats(sc.missRate, nTasks) // misses/s per task, all sockets
	accRate := zeroFloats(sc.accRate, nTasks)   // accesses/s per task
	missBySocket := sc.missBySocket
	var lcRefMiss, lcRefAcc float64

	lcMask := cache.FullMask(cfg.LLCWays)
	if m.lc != nil && m.lc.Ways > 0 {
		lcMask = cache.MaskOfWays(cfg.LLCWays-m.lc.Ways, m.lc.Ways)
	}
	loadScale := 1.0
	if m.lc != nil && m.lc.WL.Spec.RefOutstanding > 0 {
		loadScale = maxf(outstanding/m.lc.WL.Spec.RefOutstanding, 0.05)
	}

	for s := 0; s < cfg.Sockets; s++ {
		missBySocket[s] = zeroFloats(missBySocket[s], nTasks)
		demands := sc.demands[:0]
		idx := sc.demandIdx[:0]

		if m.lc != nil && lambda > 0 {
			share := socketShare(cfg.CoresPerSocket, cfg.Sockets, m.lc.Cores, m.lc.OSShared, s, k)
			if share > 0 {
				demands = append(demands, cache.Demand{
					AccessRate: lambda * m.lc.WL.Spec.AccessesPerReq * share,
					Components: m.lc.WL.Spec.CacheComponents,
					WayMask:    lcMask,
					LoadScale:  loadScale,
				})
				idx = append(idx, 0)
			}
		}
		for bi, be := range m.bes {
			if !be.Enabled || be.WL.Spec.AccessRatePerCore <= 0 {
				continue
			}
			var n float64
			switch be.Placement {
			case workload.PlaceDedicated:
				n = float64(coresOnSocket(cfg.CoresPerSocket, be.Cores, s))
			case workload.PlaceHTSibling:
				if m.lc != nil {
					n = float64(coresOnSocket(cfg.CoresPerSocket, m.lc.Cores, s)) * htCoreEfficiency
				}
			case workload.PlaceOSShared:
				n = float64(cfg.CoresPerSocket) * (1 - lcUtil)
			}
			if n <= 0 {
				continue
			}
			mask := cache.FullMask(cfg.LLCWays)
			if be.Ways > 0 {
				mask = cache.MaskOfWays(0, be.Ways)
			}
			demands = append(demands, cache.Demand{
				AccessRate: be.WL.Spec.AccessRatePerCore * n,
				Components: be.WL.Spec.CacheComponents,
				WayMask:    mask,
			})
			idx = append(idx, 1+bi)
		}
		sc.demands, sc.demandIdx = demands, idx
		if len(demands) == 0 {
			continue
		}
		// Reference solve: the LC task alone with the whole cache, same
		// load. The ratio of actual to reference miss ratio isolates the
		// interference-induced part of the memory stall.
		lcFirst := idx[0] == 0
		shares, ref := m.resolveCache(s, solver, demands, lcFirst)
		for i, sh := range shares {
			missRate[idx[i]] += sh.MissRate
			accRate[idx[i]] += demands[i].AccessRate
			missBySocket[s][idx[i]] = sh.MissRate
		}
		if lcFirst {
			lcRefMiss += ref.MissRate
			lcRefAcc += demands[0].AccessRate
		}
	}

	// --- 5. DRAM bandwidth per socket ------------------------------------
	dramInfl := zeroFloats(sc.dramInfl, cfg.Sockets)
	achievedBW := zeroFloats(sc.achievedBW, nTasks)
	demandBW := zeroFloats(sc.demandBW, nTasks)
	var lcInflNum, lcInflDen float64
	for s := 0; s < cfg.Sockets; s++ {
		demands := zeroFloats(sc.memDemands, nTasks)
		for t := 0; t < nTasks; t++ {
			demands[t] = missBySocket[s][t] * cacheLineBytes / 1e9
		}
		res := mem.ResolveInto(sc.memAchieved, cfg.DRAMGBs, demands)
		dramInfl[s] = res.Inflation
		for t := 0; t < nTasks; t++ {
			achievedBW[t] += res.AchievedGBs[t]
			demandBW[t] += demands[t]
		}
		tel.DRAMSocketUtil[s] = res.Utilisation
		tel.DRAMTotalGBs += res.TotalGBs
		tel.DRAMDemandGBs += res.DemandGBs
		// LC inflation is weighted by where its misses go.
		lcInflNum += demands[0] * res.Inflation
		lcInflDen += demands[0]
	}
	tel.DRAMUtil = tel.DRAMTotalGBs / cfg.TotalDRAMGBs()
	lcDramInfl := 1.0
	if lcInflDen > 0 {
		lcDramInfl = lcInflNum / lcInflDen
	} else if m.lc != nil {
		// No LC misses this epoch; it still observes the busiest socket
		// it has cores on.
		for s := 0; s < cfg.Sockets; s++ {
			if coresOnSocket(cfg.CoresPerSocket, m.lc.Cores, s) > 0 && dramInfl[s] > lcDramInfl {
				lcDramInfl = dramInfl[s]
			}
		}
	}
	tel.LCDRAMGBs = achievedBW[0]
	for t := 1; t < nTasks; t++ {
		tel.BEDRAMGBs += achievedBW[t]
	}

	// Per-core bandwidth counters: a task's achieved bandwidth spread
	// evenly over its cores (the NUMA-local traffic counters of §4.3).
	if m.lc != nil && len(m.lc.Cores) > 0 {
		per := achievedBW[0] / float64(len(m.lc.Cores))
		for _, c := range m.lc.Cores {
			tel.PerCoreDRAMGBs[c] += per
		}
	}
	for bi, be := range m.bes {
		if !be.Enabled || len(be.Cores) == 0 {
			continue
		}
		per := achievedBW[1+bi] / float64(len(be.Cores))
		for _, c := range be.Cores {
			tel.PerCoreDRAMGBs[c] += per
		}
	}

	// --- 6. Network egress ------------------------------------------------
	link := cfg.LinkGBs()
	var lcNetDemand float64
	lcFlows := 1
	if m.lc != nil {
		lcNetDemand = lambda * m.lc.WL.Spec.BytesPerReq / 1e9
		if m.lc.WL.Spec.Flows > 0 {
			lcFlows = m.lc.WL.Spec.Flows
		}
	}
	var beNetDemand float64
	beFlows := 0
	for _, be := range m.bes {
		if !be.Enabled {
			continue
		}
		beNetDemand += be.WL.Spec.NetDemandGBs
		beFlows += be.WL.Spec.NetFlows
	}
	sc.netClasses[0] = netlink.Class{DemandGBs: lcNetDemand, Flows: lcFlows}
	sc.netClasses[1] = netlink.Class{DemandGBs: beNetDemand, Flows: beFlows, CeilGBs: m.beNetCeilGBs}
	netRes := netlink.ResolveInto(sc.netAchieved[:], &sc.netSc, link, sc.netClasses[:])
	tel.LCTxGBs = netRes.AchievedGBs[0]
	tel.BETxGBs = netRes.AchievedGBs[1]
	tel.LinkUtil = netRes.Utilisation
	lcNetInfl := netlink.Inflation(lcNetDemand, netRes.AchievedGBs[0], netRes.Utilisation)

	// --- 7. LC service parameters and latency ----------------------------
	var es lat.EpochStats
	if m.lc != nil && lambda > 0 {
		spec := m.lc.WL.Spec

		htFactor := 1.0
		osShared := m.lc.OSShared
		for _, be := range m.bes {
			if !be.Enabled {
				continue
			}
			if be.Placement == workload.PlaceHTSibling {
				htFactor += be.WL.Spec.HTPenalty
			}
			if be.Placement == workload.PlaceOSShared {
				osShared = true
				htFactor += 0.05 // incidental same-thread interference
			}
		}

		cpu := spec.CPUTime.Seconds() / lcFreqRel * htFactor

		missRatio := 0.0
		if accRate[0] > 0 {
			missRatio = missRate[0] / accRate[0]
		}
		refRatio := missRatio
		if lcRefAcc > 0 {
			refRatio = lcRefMiss / lcRefAcc
		}
		memScale := 1.0
		if refRatio > 0 {
			memScale = missRatio / refRatio
		}
		memT := spec.MemTime.Seconds() * memScale * lcDramInfl

		// Per-leaf degradation (scenario events): a slow server does every
		// unit of request work more slowly, so both components inflate.
		if m.degrade > 1 {
			cpu *= m.degrade
			memT *= m.degrade
		}

		netT := 0.0
		if spec.BytesPerReq > 0 {
			netT = spec.BytesPerReq / 1e9 / link * lcNetInfl
			// Starved egress builds an unbounded transmit queue; model a
			// steep finite delay proportional to the shortfall (§3.3:
			// memkeyval "is completely overrun by the many small 'mice'
			// flows of the antagonist").
			if ach := netRes.AchievedGBs[0]; lcNetDemand > ach && ach > 0 {
				buildup := netOverloadPenalty * (lcNetDemand/ach - 1) * 10
				if buildup > netOverloadCap {
					buildup = netOverloadCap
				}
				netT += buildup
			}
		}

		// Power-ramp tail penalty: package near TDP while LC cores are
		// mostly idle AND running below their guaranteed frequency (§3.3,
		// power interference at low utilisation; §4.3, the power
		// subcontroller's twin conditions). The penalty grows with the
		// frequency deficit, so shifting power back to the LC cores (per-
		// core DVFS on the BE cores) relieves it smoothly. It never fires
		// when the workload runs alone because the frequency stays at or
		// above the guaranteed level.
		ramp := 0.0
		if g := m.lc.WL.GuaranteedGHz; g > 0 && lcFreq < g {
			pressure := clamp01((tel.MaxSocketPower - rampPressureStart) / (1 - rampPressureStart))
			deficit := clamp01((g - lcFreq) / rampFreqWindow)
			if pressure > 0 && deficit > 0 {
				ramp = spec.RampPenalty.Seconds() * pressure * deficit * (1 - lcUtil)
			}
		}
		// CFS scheduling-delay tail in the OS-shared configuration: delays
		// grow with load as runnable BE threads collide with LC request
		// processing more often.
		osAdd := 0.0
		if osShared {
			for _, be := range m.bes {
				if be.Enabled && be.Placement == workload.PlaceOSShared {
					osAdd = spec.OSSharedPenalty.Seconds() * (0.4 + 1.2*m.lc.Load)
					break
				}
			}
		}

		// Service-time variability grows with per-core utilisation: bursty
		// arrivals, interrupts and scheduling jitter make tails degrade
		// well before saturation on real servers (this also gives the
		// controller a gradual slack signal rather than a cliff).
		rhoEst := clamp01(lambda * (cpu + memT) / float64(k))
		sigmaEff := spec.Sigma * (1 + sigmaLoadFactor*rhoEst)

		params := lat.ServiceParams{
			Mean:     time.Duration((cpu + memT) * float64(time.Second)),
			Sigma:    sigmaEff,
			NetTime:  time.Duration(netT * float64(time.Second)),
			TailAdd:  time.Duration((ramp + osAdd) * float64(time.Second)),
			TailProb: 0.2,
		}
		es = m.epochLatency(params, lambda, k, dt)
		m.lastService = cpu + memT
		tel.TailLatency = es.Quantile(spec.SLOQuantile)
	}
	tel.Lat = es
	if m.lc != nil {
		tel.LCLoad = m.lc.Load
		tel.LCCores = len(m.lc.Cores)
		tel.LCWays = m.lc.Ways
		if m.lc.WL.PeakQPS > 0 {
			tel.LCServed = es.ServedQPS / m.lc.WL.PeakQPS
		}
	}

	// --- 8. BE throughput -------------------------------------------------
	dtSec := dt.Seconds()
	var busyBECores float64
	for bi, be := range m.bes {
		be.LastRate, be.LastNorm = 0, 0
		out := &outs[bi]
		if !be.Enabled {
			continue
		}
		spec := be.WL.Spec
		ti := 1 + bi

		if spec.NetworkBound {
			// Useful output is egress bandwidth; share the BE class
			// proportionally to demand.
			rate := 0.0
			if beNetDemand > 0 {
				rate = tel.BETxGBs * spec.NetDemandGBs / beNetDemand
			}
			be.LastRate = rate
			if be.WL.AloneRate > 0 {
				be.LastNorm = rate / be.WL.AloneRate
			}
			if len(be.Cores) > 0 {
				busyBECores += float64(len(be.Cores))
				out.accrue(be, float64(len(be.Cores))*dtSec)
			}
			tel.BERateNorm += be.LastNorm
			continue
		}

		var eqCores, freqRel float64
		switch be.Placement {
		case workload.PlaceDedicated:
			eqCores = float64(len(be.Cores))
			var fsum float64
			for _, c := range be.Cores {
				fsum += coreFreq[c]
			}
			if eqCores > 0 {
				freqRel = fsum / eqCores / cfg.NominalGHz
			}
			busyBECores += eqCores
		case workload.PlaceHTSibling:
			if m.lc != nil {
				eqCores = float64(len(m.lc.Cores)) * htCoreEfficiency
			}
			freqRel = lcFreqRel
		case workload.PlaceOSShared:
			eqCores = float64(tc) * (1 - lcUtil) * 0.9
			freqRel = 1
			busyBECores += eqCores
		}
		// Busy core-seconds accrue for any occupied cores, even when the
		// achieved rate rounds to zero — occupancy, not usefulness, is what
		// the eviction-waste accounting measures.
		out.accrue(be, eqCores*dtSec)
		if eqCores <= 0 || freqRel <= 0 {
			continue
		}

		hit := 0.0
		if accRate[ti] > 0 {
			hit = 1 - missRate[ti]/accRate[ti]
		}
		be.LastHit, out.wroteHit = hit, true
		// Cache-size effect: more misses per unit of work than when
		// running alone slows the memory-bound fraction proportionally.
		// Bandwidth saturation is applied separately as a throughput cap,
		// not compounded into the stall (a throughput-bound streamer's
		// rate is simply its achieved bandwidth).
		refHit := be.WL.AloneHit
		stall := 1.0
		if refHit > 0 && refHit < 1 && hit < 1 {
			stall = (1 - hit) / (1 - refHit)
		}
		rate := eqCores * freqRel / (spec.CPUFrac + spec.MemFrac*stall)
		if demandBW[ti] > 0 && achievedBW[ti] < demandBW[ti] {
			rate *= achievedBW[ti] / demandBW[ti]
		}
		be.LastRate = rate
		if be.WL.AloneRate > 0 {
			be.LastNorm = rate / be.WL.AloneRate
		}
		tel.BERateNorm += be.LastNorm
	}

	// --- 9. Utilisation accounting ---------------------------------------
	lcBusy := float64(k) * es.Utilisation
	tel.CPUUtil = clamp01((lcBusy + busyBECores) / float64(tc))
	tel.BEEnabled = m.BEEnabled()
	tel.BEGoodCPUSec = m.beGoodCPUSec
	tel.BELostCPUSec = m.beLostCPUSec
	tel.BECores = m.BECoreCount()
	tel.BEWays = m.BEWayCount()
	tel.BEFreqCap = m.BEFreqCap()
	tel.EMU = nanToZero(minf(tel.LCServed, m.Load())) + tel.BERateNorm
	if m.lc != nil && lambda > 0 && tel.LCServed <= 0 {
		tel.EMU = tel.BERateNorm
	}

	m.keepEpoch(lastService)
	if slot != nil {
		*slot = m
	}
	m.clock.Advance(dt)
	m.pushSample(TailSample{Time: tel.Time, TailLatency: tel.TailLatency})
	return *tel
}

// zeroFloats returns buf resized to n (growing only when capacity is
// insufficient) with every element zeroed.
func zeroFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// socketShare returns the fraction of the LC task's work executing on
// socket s.
func socketShare(coresPerSocket, sockets int, cores []int, osShared bool, s, k int) float64 {
	if osShared {
		return 1 / float64(sockets)
	}
	if k <= 0 {
		return 0
	}
	return float64(coresOnSocket(coresPerSocket, cores, s)) / float64(k)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
