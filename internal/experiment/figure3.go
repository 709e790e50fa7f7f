package experiment

import (
	"fmt"
	"strings"

	"heracles/internal/machine"
	"heracles/internal/parallel"
)

// Fig3Surface is the Figure 3 characterisation: the maximum load (fraction
// of peak) at which the LC workload meets its SLO, as a function of the
// fraction of cores and of LLC capacity granted to it. The paper uses this
// surface's convexity to justify gradient descent in the core & memory
// subcontroller.
type Fig3Surface struct {
	Workload  string
	CoreFracs []float64 // rows
	WayFracs  []float64 // columns
	MaxLoad   [][]float64
}

// Figure3 measures the surface by bisecting the largest sustainable load
// for every (cores, ways) allocation with the workload running alone.
func (l *Lab) Figure3(lcName string, coreFracs, wayFracs []float64) Fig3Surface {
	wl := l.LC(lcName)
	total := l.Cfg.TotalCores()
	ways := l.Cfg.LLCWays

	surface := Fig3Surface{
		Workload:  lcName,
		CoreFracs: coreFracs,
		WayFracs:  wayFracs,
		MaxLoad:   make([][]float64, len(coreFracs)),
	}

	// meets probes one load on the cell's machine; re-installing the
	// workload equals a fresh machine per probe (see Machine.SetLC).
	meets := func(m *machine.Machine, n, w int, load float64) bool {
		m.SetLC(wl)
		m.PinLC(n)
		lc := m.LC()
		if w < ways {
			lc.Ways = w
		}
		m.SetLoad(load)
		var tail float64
		for i := 0; i < 6; i++ {
			tail = m.Step().TailLatency.Seconds()
		}
		return tail <= wl.SLO.Seconds()
	}

	for i := range coreFracs {
		surface.MaxLoad[i] = make([]float64, len(wayFracs))
	}
	// Every (cores, ways) cell is an independent bisection on its own
	// machine; sweep the whole plane in parallel.
	nw := len(wayFracs)
	parallel.ForEach(l.workers(), len(coreFracs)*nw, func(cell int) {
		i, j := cell/nw, cell%nw
		n := int(coreFracs[i]*float64(total) + 0.5)
		if n < 1 {
			n = 1
		}
		w := int(wayFracs[j]*float64(ways) + 0.5)
		if w < 1 {
			w = 1
		}
		m := machine.New(l.Cfg)
		if !meets(m, n, w, 0.02) {
			surface.MaxLoad[i][j] = 0
			return
		}
		lo, hi := 0.02, 1.0
		for it := 0; it < 12; it++ {
			mid := (lo + hi) / 2
			if meets(m, n, w, mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		surface.MaxLoad[i][j] = lo
	})
	return surface
}

// String renders the surface as a grid of max-load percentages.
func (s Fig3Surface) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Max load under SLO (%s)\n", s.Workload)
	fmt.Fprintf(&b, "%-9s", "cores\\llc")
	for _, wf := range s.WayFracs {
		fmt.Fprintf(&b, "%7.0f%%", wf*100)
	}
	b.WriteByte('\n')
	for i, cf := range s.CoreFracs {
		fmt.Fprintf(&b, "%8.0f%%", cf*100)
		for j := range s.WayFracs {
			fmt.Fprintf(&b, "%7.0f%%", s.MaxLoad[i][j]*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ConvexViolations counts the grid points at which the surface fails the
// discrete midpoint-concavity test along each axis. A small count relative
// to the grid size supports the paper's claim that performance is a convex
// function of cores and cache (§4.3, Figure 3), which guarantees gradient
// descent finds the global optimum.
func (s Fig3Surface) ConvexViolations(tolerance float64) int {
	count := 0
	for i := range s.MaxLoad {
		for j := 1; j+1 < len(s.MaxLoad[i]); j++ {
			mid := s.MaxLoad[i][j]
			if mid+tolerance < (s.MaxLoad[i][j-1]+s.MaxLoad[i][j+1])/2 {
				count++
			}
		}
	}
	for j := 0; j < len(s.WayFracs); j++ {
		for i := 1; i+1 < len(s.MaxLoad); i++ {
			mid := s.MaxLoad[i][j]
			if mid+tolerance < (s.MaxLoad[i-1][j]+s.MaxLoad[i+1][j])/2 {
				count++
			}
		}
	}
	return count
}
