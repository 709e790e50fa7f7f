package machine

import (
	"math"
	"math/bits"
	"time"

	"heracles/internal/cache"
	"heracles/internal/hw"
	"heracles/internal/lat"
)

// stageReuse remembers the last solution of each of Step's pure stages —
// per socket the frequency/power solve and the LLC fixed point, per
// machine the analytic latency engine — keyed by the stage's arguments,
// compared by value. The controllers act every few seconds while Step
// resolves every epoch, so most epochs hand a stage exactly the arguments
// it was handed an epoch ago; such a call returns the stored result and
// skips the solver. A stage may be reused only if it reads nothing but
// its arguments and configuration fixed at New (cfg, and the Solver
// built from it); on a miss the one solver runs and its output is what
// gets stored, so a hit returns the bytes a solve would have produced.
// This is a cache, not state: it is not in Snapshot, and a restored
// machine starts cold.
//
// A stage looks in its socket's own record first, then in the machine's
// StageMemo, which indexes every record of its group — the machine's other
// sockets and, in an engine, the other machines' — and nowhere else; a hit
// on another record is copied into the own one. A machine no engine groups
// is a group of one: it makes its memo at its first stage miss.
//
// Every buffer is allocated by the first solve or copy that needs it and
// reused afterwards, so stepping stays allocation-free once each socket
// has held its largest key.
type stageReuse struct {
	sockets []socketReuse
	// lat holds the latency engine's last epoch.
	lat latEntry
	// memo indexes the records of the machine's group (nil until a machine
	// on its own first misses).
	memo *StageMemo

	// Solver calls made and avoided per stage, read by tests.
	freqSolves, freqReused   uint64
	cacheSolves, cacheReused uint64
	latSolves, latReused     uint64
}

// socketReuse is the last frequency problem and the last cache problem
// one socket solved or copied, each with its solution.
type socketReuse struct {
	// Frequency key: the socket's []hw.CoreLoad, held as its distinct
	// values and one index per core. A socket has a few kinds of core (LC,
	// each BE task, idle), and a full CoreLoad per core would be the
	// largest item the record holds. An empty kind means no key.
	kinds []hw.CoreLoad
	kind  []uint16
	// freqs is the socket's segment of scratch.coreFreq: the solver
	// writes the solution where Step reads it, and it stays there, so
	// reusing the socket's own solution copies nothing.
	freqs []float64
	power float64

	// Cache key: the socket's demands, with the Components they point to
	// copied into comps because callers edit workload specs in place. An
	// empty demands means no key.
	demands []cache.Demand
	comps   []cache.Component
	shares  []cache.Share
	// ref is demands[0] alone in the whole cache (Step's reference solve
	// for the LC task), present when hasRef. Its arguments are a function
	// of the key, so it needs none of its own.
	ref    cache.Share
	hasRef bool
}

type latEntry struct {
	p       lat.ServiceParams
	lambda  float64
	servers int
	dt      time.Duration // 0 = empty: the machine's epoch is positive
	es      lat.EpochStats
}

func newStageReuse(cfg hw.Config, coreFreq []float64) stageReuse {
	r := stageReuse{sockets: make([]socketReuse, cfg.Sockets)}
	for s := range r.sockets {
		r.sockets[s].freqs = coreFreq[s*cfg.CoresPerSocket : (s+1)*cfg.CoresPerSocket]
	}
	return r
}

// StageMemo lets a group of machines — one engine's, which all serve one
// offered load, or one machine's sockets — answer a stage from each other's
// records. It indexes the records by a fingerprint of their keys, one
// direct-mapped table per lookup: one probe and one key compare whatever
// the group's size. Records with equal keys share a slot. A slot only
// points the way (its record may have moved on to another key since, or
// hold another key of the slot), so a lookup compares the full key, and a
// collision costs a solve, never a wrong answer. Members must be stepped
// one at a time.
type StageMemo struct {
	cfg              *hw.Config // the members'; a pointer keeps a lone memo small
	shift            uint       // 64 - k: each table is 2^k slots, indexed by a fingerprint's top k bits (k may be 0)
	freq, cache, ref []*socketReuse
	lat              []*latEntry
}

// NewStageMemo returns a memo for up to machines machines built from *cfg.
func NewStageMemo(cfg *hw.Config, machines int) *StageMemo {
	// Two slots per record keep collisions between a group's live keys
	// rare; a lone machine's sockets meet within an epoch and need one.
	k := uint(bits.Len(uint(min(2, machines)*machines*cfg.Sockets - 1)))
	n := 1 << k
	sock := make([]*socketReuse, 3*n)
	return &StageMemo{cfg: cfg, shift: 64 - k,
		freq: sock[:n:n], cache: sock[n : 2*n : 2*n], ref: sock[2*n:], lat: make([]*latEntry, n)}
}

// ShareStages makes m a member of memo. Stages are pure in their arguments
// and the hardware Config, so every member must have been built from the
// memo's Config; any other panics.
func (m *Machine) ShareStages(memo *StageMemo) {
	if *memo.cfg != m.cfg {
		panic("machine: ShareStages across different hardware configs")
	}
	m.reuse.memo = memo
}

// stageMemo returns m's memo, making a group of one at the first miss of a
// machine on its own.
func (m *Machine) stageMemo() *StageMemo {
	if m.reuse.memo == nil {
		m.reuse.memo = NewStageMemo(&m.cfg, 1)
	}
	return m.reuse.memo
}

// fold mixes words into a fingerprint. The multiply carries every bit of
// a word into the top bits the tables index by, and the shift feeds them
// back for the next word. Equal keys fold to equal fingerprints (floats
// bit for bit, as the keys compare); a fingerprint may leave fields out,
// which only makes unequal keys meet in a slot more often.
func fold(h uint64, words ...uint64) uint64 {
	for _, x := range words {
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

func loadsPrint(loads []hw.CoreLoad) uint64 {
	h := uint64(len(loads))
	for _, l := range loads {
		h = fold(h, math.Float64bits(l.Activity), math.Float64bits(l.CapGHz))
	}
	return h
}

func demandsPrint(demands []cache.Demand) uint64 {
	h := uint64(len(demands))
	for i := range demands {
		d := &demands[i]
		h = fold(h, math.Float64bits(d.AccessRate), d.WayMask, math.Float64bits(d.LoadScale), uint64(len(d.Components)))
	}
	return h
}

func latPrint(p lat.ServiceParams, lambda float64, servers int, dt time.Duration) uint64 {
	return fold(uint64(p.Mean), math.Float64bits(p.Sigma), uint64(p.NetTime), uint64(p.TailAdd),
		math.Float64bits(p.TailProb), math.Float64bits(lambda), uint64(servers), uint64(dt))
}

// holdsLoads reports whether the record's frequency key is loads.
func (e *socketReuse) holdsLoads(loads []hw.CoreLoad) bool {
	if len(e.kind) != len(loads) {
		return false
	}
	for i, k := range e.kind {
		if !hw.SameLoad(e.kinds[k], loads[i]) {
			return false
		}
	}
	return true
}

func (e *socketReuse) setLoads(loads []hw.CoreLoad) {
	if cap(e.kind) < len(loads) {
		e.kind = make([]uint16, 0, len(loads))
	}
	e.kinds, e.kind = e.kinds[:0], e.kind[:0]
	for _, l := range loads {
		k := 0
		for k < len(e.kinds) && !hw.SameLoad(e.kinds[k], l) {
			k++
		}
		if k == len(e.kinds) {
			e.kinds = append(e.kinds, l)
		}
		e.kind = append(e.kind, uint16(k))
	}
}

// holdsDemands reports whether the record's cache key is demands, with
// the reference share when lcFirst.
func (e *socketReuse) holdsDemands(demands []cache.Demand, lcFirst bool) bool {
	return e.hasRef == lcFirst && cache.SameDemands(e.demands, demands)
}

// holdsRef reports whether the record's reference share answers alone:
// its first demand with the way mask widened to alone[0]'s is alone[0].
func (e *socketReuse) holdsRef(alone []cache.Demand) bool {
	if !e.hasRef {
		return false
	}
	first := [1]cache.Demand{e.demands[0]}
	first[0].WayMask = alone[0].WayMask
	return cache.SameDemands(first[:], alone)
}

// setDemands makes demands the record's cache key, copying the
// Components they point to.
func (e *socketReuse) setDemands(demands []cache.Demand) {
	n := 0
	for i := range demands {
		n += len(demands[i].Components)
	}
	if cap(e.comps) < n {
		e.comps = make([]cache.Component, 0, n)
	}
	e.comps = e.comps[:0]
	e.demands = append(e.demands[:0], demands...)
	for i := range e.demands {
		d := &e.demands[i]
		lo := len(e.comps)
		e.comps = append(e.comps, d.Components...)
		d.Components = e.comps[lo:len(e.comps):len(e.comps)]
	}
}

// holds reports whether the entry's key is the latency stage's arguments.
func (e *latEntry) holds(p lat.ServiceParams, lambda float64, servers int, dt time.Duration) bool {
	return e.dt == dt && e.servers == servers &&
		math.Float64bits(e.lambda) == math.Float64bits(lambda) &&
		e.p.Mean == p.Mean && e.p.NetTime == p.NetTime && e.p.TailAdd == p.TailAdd &&
		math.Float64bits(e.p.Sigma) == math.Float64bits(p.Sigma) &&
		math.Float64bits(e.p.TailProb) == math.Float64bits(p.TailProb)
}

// resolveFrequencies is cfg.ResolveFrequenciesInto for socket s with
// reuse: it leaves the per-core frequencies in the socket's segment of
// scratch.coreFreq and returns the socket power.
func (m *Machine) resolveFrequencies(s int, loads []hw.CoreLoad) float64 {
	r := &m.reuse
	own := &r.sockets[s]
	if !own.holdsLoads(loads) {
		memo := m.stageMemo()
		slot := &memo.freq[loadsPrint(loads)>>memo.shift]
		o := *slot
		if o == nil || !o.holdsLoads(loads) {
			r.freqSolves++
			own.setLoads(loads)
			own.power = m.cfg.ResolveFrequenciesInto(own.freqs, loads).PowerWatts
			*slot = own
			return own.power
		}
		own.kinds = append(own.kinds[:0], o.kinds...)
		own.kind = append(own.kind[:0], o.kind...)
		copy(own.freqs, o.freqs)
		own.power = o.power
	}
	r.freqReused++
	return own.power
}

// resolveCache is solver.ResolveScratch for socket s with reuse; solver
// must be the one Step derives from cfg. With lcFirst it also returns the
// reference share: demands[0] alone with every way of the cache. The
// returned slice is valid until the next call.
func (m *Machine) resolveCache(s int, solver cache.Solver, demands []cache.Demand, lcFirst bool) ([]cache.Share, cache.Share) {
	r := &m.reuse
	own := &r.sockets[s]
	if !own.holdsDemands(demands, lcFirst) {
		memo := m.stageMemo()
		slot := &memo.cache[demandsPrint(demands)>>memo.shift]
		e := *slot
		if e == nil || !e.holdsDemands(demands, lcFirst) {
			m.solveCache(own, memo, solver, demands, lcFirst)
			*slot = own
			return own.shares, own.ref
		}
		own.setDemands(e.demands)
		own.shares = append(own.shares[:0], e.shares...)
		own.ref, own.hasRef = e.ref, e.hasRef
	}
	r.cacheReused++
	if lcFirst {
		r.cacheReused++
	}
	return own.shares, own.ref
}

// solveCache makes demands own's cache key and solves it, and with lcFirst
// its reference share.
func (m *Machine) solveCache(own *socketReuse, memo *StageMemo, solver cache.Solver, demands []cache.Demand, lcFirst bool) {
	r := &m.reuse
	// The reference solve does not see the way masks, so it survives the
	// controller moving cores and ways at a fixed load: before the key is
	// replaced, look for it under any key whose first demand differs from
	// the reference's arguments in its mask only.
	var alone [1]cache.Demand
	var ref cache.Share
	var refSlot **socketReuse
	refKnown := false
	if lcFirst {
		alone[0] = demands[0]
		alone[0].WayMask = cache.FullMask(solver.Ways)
		refSlot = &memo.ref[demandsPrint(alone[:])>>memo.shift]
		if own.holdsRef(alone[:]) {
			ref, refKnown = own.ref, true
		} else if e := *refSlot; e != nil && e.holdsRef(alone[:]) {
			ref, refKnown = e.ref, true
		}
	}

	own.setDemands(demands)
	sc := &m.scratch.cacheSc
	own.shares = append(own.shares[:0], solver.ResolveScratch(sc, demands)...)
	r.cacheSolves++
	switch {
	case !lcFirst:
	case refKnown:
		r.cacheReused++
	case cache.SameDemands(demands, alone[:]):
		// The LC task is alone with the whole cache already: the
		// reference solve would repeat the one just made.
		ref = own.shares[0]
		r.cacheReused++
	default:
		ref = solver.ResolveScratch(sc, alone[:])[0]
		r.cacheSolves++
	}
	own.ref, own.hasRef = ref, lcFirst
	if lcFirst {
		*refSlot = own
	}
}

// epochLatency is lat.Analytic's Epoch — a pure function of its
// arguments — reusing the last epoch's result when they repeat, or a
// member's of the machine's memo.
func (m *Machine) epochLatency(p lat.ServiceParams, lambda float64, servers int, dt time.Duration) lat.EpochStats {
	r := &m.reuse
	e := &r.lat
	if !e.holds(p, lambda, servers, dt) {
		memo := m.stageMemo()
		slot := &memo.lat[latPrint(p, lambda, servers, dt)>>memo.shift]
		o := *slot
		if o == nil || !o.holds(p, lambda, servers, dt) {
			r.latSolves++
			*e = latEntry{p: p, lambda: lambda, servers: servers, dt: dt,
				es: lat.Analytic{}.Epoch(p, lambda, servers, dt)}
			*slot = e
			return e.es
		}
		*e = *o
	}
	r.latReused++
	return e.es
}
