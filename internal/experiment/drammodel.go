package experiment

import (
	"sort"

	"heracles/internal/core"
	"heracles/internal/machine"
	"heracles/internal/parallel"
)

// DRAMTable is the offline model of LC DRAM bandwidth demand as a function
// of load, core count and LLC ways (§4.2). It is produced by profiling the
// LC workload alone and queried by the core & memory subcontroller as
// LcBwModel(). Lookups use trilinear interpolation with clamping.
type DRAMTable struct {
	Loads []float64 // ascending
	Cores []int     // ascending
	Ways  []int     // ascending
	// GBs[i][j][k] is the bandwidth at Loads[i], Cores[j], Ways[k].
	GBs [][][]float64
}

var _ core.DRAMModel = (*DRAMTable)(nil)

// LCDemandGBs implements core.DRAMModel.
func (t *DRAMTable) LCDemandGBs(load float64, lcCores, lcWays int) float64 {
	if len(t.Loads) == 0 || len(t.Cores) == 0 || len(t.Ways) == 0 {
		return 0
	}
	i0, i1, fi := bracketF(t.Loads, load)
	j0, j1, fj := bracketI(t.Cores, lcCores)
	k0, k1, fk := bracketI(t.Ways, lcWays)

	lerp := func(a, b, f float64) float64 { return a + (b-a)*f }
	c00 := lerp(t.GBs[i0][j0][k0], t.GBs[i1][j0][k0], fi)
	c01 := lerp(t.GBs[i0][j0][k1], t.GBs[i1][j0][k1], fi)
	c10 := lerp(t.GBs[i0][j1][k0], t.GBs[i1][j1][k0], fi)
	c11 := lerp(t.GBs[i0][j1][k1], t.GBs[i1][j1][k1], fi)
	c0 := lerp(c00, c10, fj)
	c1 := lerp(c01, c11, fj)
	return lerp(c0, c1, fk)
}

func bracketF(xs []float64, x float64) (int, int, float64) {
	n := len(xs)
	if x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		return n - 1, n - 1, 0
	}
	i := sort.SearchFloat64s(xs, x)
	lo := i - 1
	f := (x - xs[lo]) / (xs[i] - xs[lo])
	return lo, i, f
}

func bracketI(xs []int, x int) (int, int, float64) {
	n := len(xs)
	if x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		return n - 1, n - 1, 0
	}
	i := sort.SearchInts(xs, x)
	if xs[i] == x {
		return i, i, 0
	}
	lo := i - 1
	f := float64(x-xs[lo]) / float64(xs[i]-xs[lo])
	return lo, i, f
}

// DRAMModel profiles (or returns the cached) offline DRAM bandwidth model
// for the named LC workload on the lab's hardware, sweeping a coarse grid
// of load, cores and ways. This is the §4.2 offline step: it must be
// regenerated only when the workload structure changes significantly, and
// the paper shows Heracles tolerates a somewhat outdated model. The
// (load, cores) rows of the grid are independent and run in parallel.
func (l *Lab) DRAMModel(lcName string) *DRAMTable {
	return l.dramModels.get(lcName, func() *DRAMTable { return l.profileDRAM(lcName) })
}

// profileDRAM measures every grid cell with the LC workload alone. A row
// shares one machine, re-installing and re-pinning the workload for each
// way count, which equals a fresh machine per cell (see Machine.SetLC).
// A cell takes a single Step because LC DRAM demand is feed-forward
// within Step: it follows from the arrival rate, the core split, the way
// mask and the base-service estimate of outstanding requests through the
// cache and DRAM stages, and none of those reads what an earlier epoch
// left behind (the service-time feedback enters only later, at core
// activity and latency). More epochs repeat the first one's value bit
// for bit; TestDRAMProfileIsFeedForward holds every cell to that.
func (l *Lab) profileDRAM(lcName string) *DRAMTable {
	wl := l.LC(lcName)
	total := l.Cfg.TotalCores()
	ways := l.Cfg.LLCWays

	t := &DRAMTable{
		Loads: []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95},
		Cores: gridInts(2, total, 6),
		Ways:  gridInts(2, ways, 5),
	}
	nc, nw := len(t.Cores), len(t.Ways)
	t.GBs = make([][][]float64, len(t.Loads))
	for i := range t.GBs {
		t.GBs[i] = make([][]float64, nc)
		for j := range t.GBs[i] {
			t.GBs[i][j] = make([]float64, nw)
		}
	}
	parallel.ForEach(l.workers(), len(t.Loads)*nc, func(row int) {
		i, j := row/nc, row%nc
		m := machine.New(l.Cfg)
		for k, w := range t.Ways {
			m.SetLC(wl)
			m.PinLC(t.Cores[j])
			if w < ways {
				m.LC().Ways = w
			}
			m.SetLoad(t.Loads[i])
			t.GBs[i][j][k] = m.Step().LCDRAMGBs
		}
	})
	return t
}

// gridInts returns n roughly evenly spaced ints from lo to hi inclusive.
func gridInts(lo, hi, n int) []int {
	if n < 2 || hi <= lo {
		return []int{lo, hi}
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		v := lo + (hi-lo)*i/(n-1)
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
