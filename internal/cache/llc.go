package cache

import "math"

// Component is one piece of a workload's cache working set, for example a
// hot instruction+data set, a per-request data set, or a streaming region.
type Component struct {
	Name        string
	AccessFrac  float64 // fraction of the task's LLC accesses that touch this component
	FootprintMB float64 // size of the component's working set
	HitMax      float64 // hit ratio achieved when the component fits entirely
	Theta       float64 // concavity of the hit curve; 1 = linear, <1 = front-loaded benefit
	// ScalesWithLoad marks per-request working sets whose effective
	// footprint grows with the number of outstanding requests
	// (paper §3.1: ml_cluster's per-request cache pressure).
	ScalesWithLoad bool
	// Scan marks cyclic streaming access patterns, which thrash under
	// LRU: a line is evicted just before its reuse unless the whole
	// footprint fits, so the hit ratio is a near-step function of
	// occupancy rather than a smooth curve.
	Scan bool
}

// HitRatio returns the component's hit ratio when granted occ MB of cache,
// given an effective footprint of footprint MB.
func (c Component) HitRatio(occ, footprint float64) float64 {
	if footprint <= 0 || c.HitMax <= 0 {
		return 0
	}
	frac := occ / footprint
	if frac >= 1 {
		return c.HitMax
	}
	if frac <= 0 {
		return 0
	}
	if c.Scan {
		// LRU thrashing: almost no reuse survives until the scan nearly
		// fits; ramp over the last 10% to keep the solver stable.
		const knee = 0.9
		if frac <= knee {
			return 0
		}
		return c.HitMax * (frac - knee) / (1 - knee)
	}
	theta := c.Theta
	if theta <= 0 {
		theta = 1
	}
	return c.HitMax * math.Pow(frac, theta)
}

// Demand describes one task's cache behaviour on one socket for the solver.
type Demand struct {
	AccessRate float64     // LLC accesses per second on this socket
	Components []Component // working-set decomposition
	WayMask    uint64      // CAT ways this task may allocate into (bit i = way i)
	// LoadScale multiplies the footprint of ScalesWithLoad components;
	// callers set it to the current number of outstanding requests
	// relative to the component's reference concurrency.
	LoadScale float64
}

// SameDemands reports whether a and b are the same argument to
// ResolveScratch: equal length and, demand by demand, every field and
// every Component identical by value — floats bit for bit (so NaN
// matches itself and +0 differs from -0), Components by content, never
// by slice pointer, because callers edit workload specs in place. The
// solver reads nothing else besides its own fields, so equal demands
// on one Solver resolve to identical shares.
func SameDemands(a, b []Demand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if !sameBits(x.AccessRate, y.AccessRate) || x.WayMask != y.WayMask ||
			!sameBits(x.LoadScale, y.LoadScale) || len(x.Components) != len(y.Components) {
			return false
		}
		for j := range x.Components {
			c, d := &x.Components[j], &y.Components[j]
			if c.Name != d.Name || !sameBits(c.AccessFrac, d.AccessFrac) ||
				!sameBits(c.FootprintMB, d.FootprintMB) || !sameBits(c.HitMax, d.HitMax) ||
				!sameBits(c.Theta, d.Theta) || c.ScalesWithLoad != d.ScalesWithLoad || c.Scan != d.Scan {
				return false
			}
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Share is the solver's result for one demand.
type Share struct {
	OccupancyMB float64 // cache space held at the fixed point
	HitRatio    float64 // overall hit ratio across components
	MissRate    float64 // misses per second (DRAM traffic source)
}

// Solver resolves shared-cache occupancy for a set of demands.
type Solver struct {
	WayMB      float64 // capacity of one way in MB
	Ways       int     // number of ways
	Iterations int     // fixed-point iterations; 0 selects the default
	Damping    float64 // 0 selects the default of 0.5
	// RecencyDiscount weighs hits against misses in occupancy pressure;
	// 0 selects the default of 0.5 (a hit renews an existing line, a miss
	// inserts a new one and is twice as effective at claiming space).
	RecencyDiscount float64
}

type compState struct {
	demand    int // index into demands
	comp      Component
	rate      float64 // accesses/s to this component
	footprint float64 // effective footprint (after load scaling)
	mask      uint64
	occ       float64
	pressure  float64
}

// region is a maximal set of ways with an identical sharer set.
type region struct {
	capacity float64
	comps    []int // indices into comps
}

// Scratch holds the solver's working state so repeated Resolve calls on a
// hot path perform no heap allocations. A zero Scratch is ready to use;
// buffers grow to the high-water mark on first use and are reused after.
// The Share slice returned by ResolveScratch aliases the scratch and is
// valid until the next call with the same Scratch.
type Scratch struct {
	comps   []compState
	regions []region
	next    []float64
	active  []int
	out     []Share
}

// Resolve computes the fixed point of occupancy and miss rates. It is the
// allocating convenience form of ResolveScratch; hot paths should hold a
// Scratch and call ResolveScratch instead.
func (s Solver) Resolve(demands []Demand) []Share {
	var sc Scratch
	shares := s.ResolveScratch(&sc, demands)
	out := make([]Share, len(shares))
	copy(out, shares)
	return out
}

// ResolveScratch computes the fixed point of occupancy and miss rates using
// sc's buffers. The returned slice is owned by sc.
func (s Solver) ResolveScratch(sc *Scratch, demands []Demand) []Share {
	iters := s.Iterations
	if iters <= 0 {
		iters = 20
	}
	damp := s.Damping
	if damp <= 0 || damp > 1 {
		damp = 0.5
	}
	recency := s.RecencyDiscount
	if recency <= 0 || recency > 1 {
		recency = 0.5
	}

	comps := sc.comps[:0]
	for di, d := range demands {
		scale := d.LoadScale
		if scale <= 0 {
			scale = 1
		}
		for _, c := range d.Components {
			if c.AccessFrac <= 0 {
				continue
			}
			fp := c.FootprintMB
			if c.ScalesWithLoad {
				fp *= scale
			}
			comps = append(comps, compState{
				demand:    di,
				comp:      c,
				rate:      d.AccessRate * c.AccessFrac,
				footprint: fp,
				mask:      d.WayMask,
			})
		}
	}
	sc.comps = comps

	// Group ways into regions by sharer set. The handful of CAT partitions
	// in play yields very few distinct sharer sets, so a linear scan over
	// the regions found so far beats building a map.
	regions := sc.regions[:0]
	for w := 0; w < s.Ways; w++ {
		bit := uint64(1) << uint(w)
		matched := false
		for ri := range regions {
			r := &regions[ri]
			if sameSharers(comps, r.comps, bit) {
				r.capacity += s.WayMB
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		var rcomps []int
		if n := len(regions); n < cap(regions) {
			// Reclaim the member slice of a previously grown region slot.
			rcomps = regions[:n+1][n].comps[:0]
		}
		for i := range comps {
			if comps[i].mask&bit != 0 {
				rcomps = append(rcomps, i)
			}
		}
		if len(rcomps) == 0 {
			continue
		}
		regions = append(regions, region{capacity: s.WayMB, comps: rcomps})
	}
	sc.regions = regions

	// Initial guess: even split of each region.
	for ri := range regions {
		r := &regions[ri]
		per := r.capacity / float64(len(r.comps))
		for _, ci := range r.comps {
			comps[ci].occ += per
		}
	}
	for i := range comps {
		if comps[i].occ > comps[i].footprint {
			comps[i].occ = comps[i].footprint
		}
	}

	const pressureFloor = 1e-9
	sc.next = growFloats(sc.next, len(comps))
	next := sc.next
	for it := 0; it < iters; it++ {
		for i := range comps {
			c := &comps[i]
			h := c.comp.HitRatio(c.occ, c.footprint)
			// Recency pressure: misses insert new lines; hits renew
			// existing ones at a discount.
			c.pressure = c.rate*((1-h)+recency*h) + pressureFloor
		}
		for i := range next {
			next[i] = 0
		}
		for ri := range regions {
			sc.active = waterFill(comps, &regions[ri], next, sc.active)
		}
		for i := range comps {
			c := &comps[i]
			n := next[i]
			if n > c.footprint {
				n = c.footprint
			}
			c.occ = damp*c.occ + (1-damp)*n
		}
	}

	if cap(sc.out) < len(demands) {
		sc.out = make([]Share, len(demands))
	}
	out := sc.out[:len(demands)]
	for i := range out {
		out[i] = Share{}
	}
	for i := range comps {
		c := &comps[i]
		h := c.comp.HitRatio(c.occ, c.footprint)
		sh := &out[c.demand]
		sh.OccupancyMB += c.occ
		sh.HitRatio += h * c.comp.AccessFrac
		sh.MissRate += c.rate * (1 - h)
	}
	return out
}

// sameSharers reports whether the way selected by bit is shared by exactly
// the components listed in members.
func sameSharers(comps []compState, members []int, bit uint64) bool {
	n := 0
	for i := range comps {
		if comps[i].mask&bit != 0 {
			if n >= len(members) || members[n] != i {
				return false
			}
			n++
		}
	}
	return n == len(members)
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// waterFill divides a region's capacity among its components in proportion
// to pressure, capping each component at its footprint and redistributing
// the excess to the remaining components. The returned slice is the scratch
// buffer (possibly grown) handed back for reuse.
func waterFill(comps []compState, r *region, next []float64, scratch []int) []int {
	remaining := r.capacity
	if cap(scratch) < len(r.comps) {
		scratch = make([]int, len(r.comps))
	}
	active := scratch[:len(r.comps)]
	copy(active, r.comps)
	// The allocation already granted in other regions counts against the
	// footprint cap.
	for rounds := 0; rounds < len(r.comps)+1 && remaining > 1e-12 && len(active) > 0; rounds++ {
		var total float64
		for _, ci := range active {
			total += comps[ci].pressure
		}
		if total <= 0 {
			break
		}
		// Survivors of this round are compacted to the front of active.
		keep := 0
		allocated := 0.0
		for _, ci := range active {
			share := remaining * comps[ci].pressure / total
			room := comps[ci].footprint - next[ci]
			if room <= 0 {
				continue
			}
			if share >= room {
				next[ci] += room
				allocated += room
			} else {
				next[ci] += share
				allocated += share
				active[keep] = ci
				keep++
			}
		}
		remaining -= allocated
		if keep == len(active) {
			// Nobody hit a cap; the region is fully distributed.
			break
		}
		active = active[:keep]
	}
	return scratch
}

// MaskOfWays returns a contiguous way mask of n ways starting at way lo.
func MaskOfWays(lo, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		n = 64
	}
	var m uint64
	if n == 64 {
		m = ^uint64(0)
	} else {
		m = (uint64(1) << uint(n)) - 1
	}
	return m << uint(lo)
}

// FullMask returns a mask covering all ways of the solver.
func FullMask(ways int) uint64 { return MaskOfWays(0, ways) }
