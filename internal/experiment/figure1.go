package experiment

import (
	"fmt"
	"strings"

	"heracles/internal/machine"
	"heracles/internal/parallel"
	"heracles/internal/workload"
)

// Fig1Row is one antagonist row of a Figure 1 table: tail latency as a
// fraction of the SLO at each load point.
type Fig1Row struct {
	Antagonist string
	Values     []float64
}

// Fig1Table is the characterisation table for one LC workload.
type Fig1Table struct {
	Workload string
	Loads    []float64
	Rows     []Fig1Row
}

// Fig1RowNames lists the antagonist rows in the paper's order.
var Fig1RowNames = []string{
	"LLC (small)", "LLC (med)", "LLC (big)", "DRAM",
	"HyperThread", "CPU power", "Network", "brain",
}

// Figure1 reproduces one of the three tables of Figure 1: the impact of
// each interference source on the LC workload's tail latency across load,
// following the §3.2 methodology exactly:
//
//   - LLC/DRAM/power antagonists: the LC workload is pinned to the fewest
//     cores that meet its SLO at that load; the antagonist gets the rest.
//   - HyperThread: a spinloop runs on the sibling hyperthreads of the LC
//     cores.
//   - Network: the LC workload keeps all cores but one; iperf generates
//     many low-bandwidth "mice" flows.
//   - brain: both workloads share all cores under CFS with low shares for
//     the BE task and no other isolation (OS-only row).
func (l *Lab) Figure1(lcName string, loads []float64) Fig1Table {
	wl := l.LC(lcName)
	table := Fig1Table{Workload: lcName, Loads: loads}

	// The SLO-sizing probes and every (antagonist, load) cell are
	// independent machines; run both grids in parallel. Antagonist
	// calibration is safe under the fan-out: the lab memoises each
	// workload behind its own sync.Once.
	workers := l.workers()
	minCores := parallel.Map(workers, len(loads), func(i int) int {
		return l.MinCoresForSLO(lcName, loads[i])
	})

	const warmup, measure = 6, 10
	nRows, nLoads := len(Fig1RowNames), len(loads)
	cells := parallel.Map(workers, nRows*nLoads, func(cell int) float64 {
		name := Fig1RowNames[cell/nLoads]
		i := cell % nLoads
		m := machine.New(l.Cfg)
		m.SetLC(wl)
		m.SetLoad(loads[i])

		switch name {
		case "HyperThread":
			m.AddBE(l.BE("spinloop"), workload.PlaceHTSibling)
			m.PinLC(minCores[i])
		case "Network":
			m.AddBE(l.BE("iperf"), workload.PlaceDedicated)
			m.PinLC(l.Cfg.TotalCores() - 1)
		case "brain":
			m.LC().OSShared = true
			m.AddBE(l.BE("brain"), workload.PlaceOSShared)
		case "DRAM":
			m.AddBE(l.BE("stream-DRAM"), workload.PlaceDedicated)
			m.PinLC(minCores[i])
		case "CPU power":
			m.AddBE(l.BE("cpu_pwr"), workload.PlaceDedicated)
			m.PinLC(minCores[i])
		default: // LLC (small) / LLC (med) / LLC (big)
			m.AddBE(l.BE(name), workload.PlaceDedicated)
			m.PinLC(minCores[i])
		}

		return measureTail(m, wl.SLO, warmup, measure)
	})
	for r, name := range Fig1RowNames {
		table.Rows = append(table.Rows, Fig1Row{
			Antagonist: name,
			Values:     cells[r*nLoads : (r+1)*nLoads : (r+1)*nLoads],
		})
	}
	return table
}

// cellString renders one Figure 1 cell the way the paper prints it:
// percentages, saturating at ">300%".
func cellString(v float64) string {
	if v > 3 {
		return ">300%"
	}
	return fmt.Sprintf("%.0f%%", v*100)
}

// String renders the table in the paper's layout with the paper's
// colour-coding thresholds marked as suffixes: "!" for >=120% of SLO and
// "*" for (100%, 120%).
func (t Fig1Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Workload)
	fmt.Fprintf(&b, "%-12s", "")
	for _, l := range t.Loads {
		fmt.Fprintf(&b, "%8.0f%%", l*100)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s", r.Antagonist)
		for _, v := range r.Values {
			cell := cellString(v)
			switch {
			case v >= 1.2:
				cell += "!"
			case v > 1.0:
				cell += "*"
			}
			fmt.Fprintf(&b, "%9s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Row returns the row with the given antagonist name, or false.
func (t Fig1Table) Row(name string) (Fig1Row, bool) {
	for _, r := range t.Rows {
		if r.Antagonist == name {
			return r, true
		}
	}
	return Fig1Row{}, false
}
