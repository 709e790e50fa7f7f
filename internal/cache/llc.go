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

// curve is the part of a Component its hit ratio depends on.
type curve struct {
	hitMax, theta float64
	scan          bool
}

// hitRatio returns the hit ratio of a component on this curve when
// granted occ MB of cache, given an effective footprint of footprint MB.
func (c curve) hitRatio(occ, footprint float64) float64 {
	if footprint <= 0 || c.hitMax <= 0 {
		return 0
	}
	frac := occ / footprint
	if frac >= 1 {
		return c.hitMax
	}
	if frac <= 0 {
		return 0
	}
	if c.scan {
		// LRU thrashing: almost no reuse survives until the scan nearly
		// fits; ramp over the last 10% to keep the solver stable.
		const knee = 0.9
		if frac <= knee {
			return 0
		}
		return c.hitMax * (frac - knee) / (1 - knee)
	}
	theta := c.theta
	if theta <= 0 {
		theta = 1
	}
	return c.hitMax * math.Pow(frac, theta)
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
	WayMB float64 // capacity of one way in MB
	Ways  int     // number of ways
	// RecencyDiscount weighs hits against misses in occupancy pressure;
	// 0 selects the default of 0.5 (a hit renews an existing line, a miss
	// inserts a new one and is twice as effective at claiming space).
	RecencyDiscount float64
}

// compState is one component with a positive access fraction, as the
// solver carries it: the fields its rounds read and what they update.
type compState struct {
	curve
	accessFrac float64
	demand     int     // index into demands
	rate       float64 // accesses/s to this component
	footprint  float64 // effective footprint (after load scaling)
	mask       uint64
	occ        float64
	pressure   float64
	g, r       float64 // the previous round's map answer and residual
}

// region is a maximal set of ways with an identical sharer set; way is
// the first of them.
type region struct {
	way      int
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
	masks   []uint64
	regions []region
	next    []float64
	active  []int
	out     []Share
	// What the last call ran: rounds, and whether the guard damped any.
	// Nothing in the simulator reads them; they exist so the convergence
	// tests can check that the cap is never reached and the guard fires.
	rounds int
	damped bool
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

// The fixed point's stop rule: ResolveScratch stops once no component's
// occupancy moves by more than tolMB MB in a round, and after maxRounds
// rounds at the latest.
const (
	tolMB     = 1e-9
	maxRounds = 64
)

// ResolveScratch computes the fixed point of occupancy and miss rates using
// sc's buffers. The returned slice is owned by sc.
//
// A round maps the occupancies to g, the water-fill of the pressures they
// imply, each capped at its footprint; g minus the occupancies is the
// round's residual. The next round starts from the Anderson(1) blend of g
// and the previous round's g: the weights under which the two residuals,
// blended alike, come closest to cancelling. Should a round's largest
// step fail to shrink below the previous round's, every later round's map
// moves only halfway to g, which settles a map that swaps space back and
// forth. The answer is the last round's g.
func (s Solver) ResolveScratch(sc *Scratch, demands []Demand) []Share {
	recency := s.RecencyDiscount
	if recency <= 0 || recency > 1 {
		recency = 0.5
	}

	comps, masks := sc.comps[:0], sc.masks[:0]
	for di := range demands {
		d := &demands[di]
		scale := d.LoadScale
		if scale <= 0 {
			scale = 1
		}
		n := len(comps)
		for ci := range d.Components {
			c := &d.Components[ci]
			if c.AccessFrac <= 0 {
				continue
			}
			fp := c.FootprintMB
			if c.ScalesWithLoad {
				fp *= scale
			}
			comps = append(comps, compState{
				curve:      curve{c.HitMax, c.Theta, c.Scan},
				accessFrac: c.AccessFrac,
				demand:     di,
				rate:       d.AccessRate * c.AccessFrac,
				footprint:  fp,
				mask:       d.WayMask,
			})
		}
		if len(comps) > n {
			masks = append(masks, d.WayMask)
		}
	}
	sc.comps, sc.masks = comps, masks

	// Group ways into regions by sharer set: two ways share one when every
	// mask in play holds both or neither. The handful of CAT partitions in
	// play yields very few regions, so a linear scan over the regions
	// found so far beats building a map.
	var live uint64
	for _, m := range masks {
		live |= m
	}
	regions := sc.regions[:0]
	for w := 0; w < s.Ways; w++ {
		if live>>uint(w)&1 == 0 {
			continue
		}
		ri := 0
		for ri < len(regions) && !sameColumn(masks, regions[ri].way, w) {
			ri++
		}
		if ri < len(regions) {
			regions[ri].capacity += s.WayMB
			continue
		}
		var rcomps []int
		if n := len(regions); n < cap(regions) {
			// Reclaim the member slice of a previously grown region slot.
			rcomps = regions[:n+1][n].comps[:0]
		}
		for i := range comps {
			if comps[i].mask>>uint(w)&1 != 0 {
				rcomps = append(rcomps, i)
			}
		}
		regions = append(regions, region{way: w, capacity: s.WayMB, comps: rcomps})
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
	rounds, damped, prevStep := 0, false, math.Inf(1)
	for {
		rounds++
		for i := range comps {
			c := &comps[i]
			h := c.hitRatio(c.occ, c.footprint)
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
		var step, num, den float64
		for i := range comps {
			c := &comps[i]
			g := min(next[i], c.footprint)
			if damped {
				g = 0.5*c.occ + 0.5*g
			}
			r := g - c.occ
			if d := math.Abs(r); d > step {
				step = d
			}
			dr := r - c.r
			num += dr * r
			den += dr * dr
			c.r = r
			next[i] = g
		}
		if step <= tolMB || rounds == maxRounds {
			for i := range comps {
				comps[i].occ = next[i]
			}
			break
		}
		gamma := 0.0
		if rounds > 1 && den > 0 {
			gamma = num / den
		}
		for i := range comps {
			c := &comps[i]
			g := next[i]
			c.occ = min(max(g-gamma*(g-c.g), 0), c.footprint)
			c.g = g
		}
		damped = damped || step >= prevStep
		prevStep = step
	}
	sc.rounds, sc.damped = rounds, damped

	if cap(sc.out) < len(demands) {
		sc.out = make([]Share, len(demands))
	}
	out := sc.out[:len(demands)]
	for i := range out {
		out[i] = Share{}
	}
	for i := range comps {
		c := &comps[i]
		h := c.hitRatio(c.occ, c.footprint)
		sh := &out[c.demand]
		sh.OccupancyMB += c.occ
		sh.HitRatio += h * c.accessFrac
		sh.MissRate += c.rate * (1 - h)
	}
	return out
}

// sameColumn reports whether every mask holds both ways a and b or
// neither.
func sameColumn(masks []uint64, a, b int) bool {
	for _, m := range masks {
		if (m>>uint(a)^m>>uint(b))&1 != 0 {
			return false
		}
	}
	return true
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
