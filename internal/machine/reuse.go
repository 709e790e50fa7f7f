package machine

import (
	"math"
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
// Every buffer is allocated by the first solve that needs it and reused
// afterwards, so stepping stays allocation-free once each socket has
// held its largest key.
type stageReuse struct {
	sockets []socketReuse
	// lat holds the latency engine's last epoch.
	lat latEntry

	// Solver calls made and avoided per stage, read by tests.
	freqSolves, freqReused   uint64
	cacheSolves, cacheReused uint64
	latSolves, latReused     uint64
}

// socketReuse is the last frequency problem and the last cache problem
// one socket solved, each with its solution. A socket looks in its own
// record first and then in the others', so sockets with equal arguments
// (an even BE core split) solve once between them.
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

// resolveFrequencies is cfg.ResolveFrequenciesInto for socket s with
// reuse: it leaves the per-core frequencies in the socket's segment of
// scratch.coreFreq and returns the socket power.
func (m *Machine) resolveFrequencies(s int, loads []hw.CoreLoad) float64 {
	r := &m.reuse
	own := &r.sockets[s]
	for j := range r.sockets {
		o := &r.sockets[(s+j)%len(r.sockets)] // own record first
		if !o.holdsLoads(loads) {
			continue
		}
		r.freqReused++
		if o != own {
			copy(own.freqs, o.freqs)
			own.kind = own.kind[:0] // own.freqs no longer answers own's key
		}
		return o.power
	}
	r.freqSolves++
	own.setLoads(loads)
	own.power = m.cfg.ResolveFrequenciesInto(own.freqs, loads).PowerWatts
	return own.power
}

// resolveCache is solver.ResolveScratch for socket s with reuse; solver
// must be the one Step derives from cfg. With lcFirst it also returns the
// reference share: demands[0] alone with every way of the cache. The
// returned slice is valid until the next call.
func (m *Machine) resolveCache(s int, solver cache.Solver, demands []cache.Demand, lcFirst bool) ([]cache.Share, cache.Share) {
	r := &m.reuse
	for j := range r.sockets {
		e := &r.sockets[(s+j)%len(r.sockets)] // own record first
		if e.hasRef == lcFirst && cache.SameDemands(e.demands, demands) {
			r.cacheReused++
			if lcFirst {
				r.cacheReused++
			}
			return e.shares, e.ref
		}
	}

	// The reference solve does not see the way masks, so it survives the
	// controller moving cores and ways at a fixed load: before the key is
	// replaced, look for it under any key whose first demand differs from
	// the reference's arguments in its mask only.
	var alone [1]cache.Demand
	var ref cache.Share
	refKnown := false
	if lcFirst {
		alone[0] = demands[0]
		alone[0].WayMask = cache.FullMask(solver.Ways)
		for j := range r.sockets {
			if e := &r.sockets[j]; e.hasRef {
				first := [1]cache.Demand{e.demands[0]}
				first[0].WayMask = alone[0].WayMask
				if cache.SameDemands(first[:], alone[:]) {
					ref, refKnown = e.ref, true
					break
				}
			}
		}
	}

	own := &r.sockets[s]
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
	return own.shares, ref
}

// epochLatency is lat.Analytic's Epoch — a pure function of its
// arguments — reusing the last epoch's result when they repeat.
func (m *Machine) epochLatency(p lat.ServiceParams, lambda float64, servers int, dt time.Duration) lat.EpochStats {
	r := &m.reuse
	e := &r.lat
	if e.dt == dt && e.servers == servers &&
		math.Float64bits(e.lambda) == math.Float64bits(lambda) &&
		e.p.Mean == p.Mean && e.p.NetTime == p.NetTime && e.p.TailAdd == p.TailAdd &&
		math.Float64bits(e.p.Sigma) == math.Float64bits(p.Sigma) &&
		math.Float64bits(e.p.TailProb) == math.Float64bits(p.TailProb) {
		r.latReused++
		return e.es
	}
	r.latSolves++
	*e = latEntry{p: p, lambda: lambda, servers: servers, dt: dt,
		es: lat.Analytic{}.Epoch(p, lambda, servers, dt)}
	return e.es
}
