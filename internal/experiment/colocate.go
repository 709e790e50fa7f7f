package experiment

import (
	"fmt"
	"strings"
	"time"

	"heracles/internal/core"
	"heracles/internal/machine"
	"heracles/internal/parallel"
	"heracles/internal/workload"
)

// RunOpts configures a colocation run.
type RunOpts struct {
	Duration time.Duration // total simulated time per load point (default 12 min)
	Warmup   time.Duration // excluded from statistics (default 2 min)
	Window   time.Duration // SLO reporting window (default 60 s, like the paper)
	// UseDRAMModel attaches the offline DRAM bandwidth model (§4.2); when
	// false the controller estimates LC bandwidth by counter subtraction.
	UseDRAMModel bool
	// Controller overrides the default controller config when non-nil.
	Controller *core.Config
	// Workers bounds the sweep's concurrency: 0 defers to the lab's
	// setting (default GOMAXPROCS), 1 forces the sequential reference
	// run. Load points are independent machines, so any worker count
	// produces byte-identical Series output.
	Workers int
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Duration == 0 {
		o.Duration = 12 * time.Minute
	}
	if o.Warmup == 0 {
		o.Warmup = 2 * time.Minute
	}
	if o.Window == 0 {
		o.Window = time.Minute
	}
	return o
}

// sweepWorkers resolves the worker count for one sweep under this lab.
func (l *Lab) sweepWorkers(opts RunOpts) int {
	if opts.Workers != 0 {
		return opts.Workers
	}
	return l.workers()
}

// Point is one measured load point of a colocation experiment. Latency is
// reported the way the paper does: the SLO is defined over Window-sized
// windows and the worst window seen is reported.
type Point struct {
	Load         float64
	WorstTail    float64 // worst window-mean tail latency, fraction of SLO
	AvgTail      float64 // mean tail latency over the run
	EMU          float64 // effective machine utilisation (LC + BE throughput)
	BEOnlyRate   float64 // BE contribution to EMU
	DRAMUtil     float64 // achieved DRAM bandwidth / peak
	CPUUtil      float64
	PowerFrac    float64 // package power / TDP
	LCNetGBs     float64
	BENetGBs     float64
	LinkUtil     float64
	BECores      int
	BEWays       int
	SLOViolation bool
}

// Series is a load sweep for one LC/BE pair.
type Series struct {
	LC     string
	BE     string // "baseline" for the LC workload alone
	Points []Point
}

// Baseline sweeps the LC workload alone across the given loads — the
// "baseline" series of Figures 4-7. Load points are independent machines
// and run concurrently; results land in load order.
func (l *Lab) Baseline(lcName string, loads []float64, opts RunOpts) Series {
	opts = opts.withDefaults()
	wl := l.LC(lcName)
	points := parallel.Map(l.sweepWorkers(opts), len(loads), func(i int) Point {
		m := machine.New(l.Cfg)
		m.SetLC(wl)
		m.SetLoad(loads[i])
		return runPoint(m, nil, wl, loads[i], opts)
	})
	return Series{LC: lcName, BE: "baseline", Points: points}
}

// Colocate sweeps the LC workload colocated with the BE task under
// Heracles control across the given loads — Figures 4, 5, 6 and 7.
func (l *Lab) Colocate(lcName, beName string, loads []float64, opts RunOpts) Series {
	var model core.DRAMModel
	if opts.UseDRAMModel {
		model = l.DRAMModel(lcName)
	}
	return l.ColocateWithModel(lcName, beName, loads, opts, model)
}

// ColocateWithModel is Colocate with an explicit (possibly stale or
// perturbed) offline DRAM model, used by the §5.2 model-staleness
// experiments. A nil model selects counter subtraction.
func (l *Lab) ColocateWithModel(lcName, beName string, loads []float64, opts RunOpts, model core.DRAMModel) Series {
	opts = opts.withDefaults()
	wl := l.LC(lcName)
	be := l.BE(beName)

	cfg := core.DefaultConfig()
	if opts.Controller != nil {
		cfg = *opts.Controller
	}

	points := parallel.Map(l.sweepWorkers(opts), len(loads), func(i int) Point {
		m := machine.New(l.Cfg)
		m.SetLC(wl)
		m.AddBE(be, workload.PlaceDedicated)
		m.SetLoad(loads[i])
		ctl := core.New(m, model, cfg)
		return runPoint(m, ctl, wl, loads[i], opts)
	})
	return Series{LC: lcName, BE: beName, Points: points}
}

// runPoint advances one machine for the configured duration, driving the
// controller if present, and aggregates the point statistics.
func runPoint(m *machine.Machine, ctl *core.Controller, wl *workload.LC, load float64, opts RunOpts) Point {
	epochs := int(opts.Duration / m.Epoch())
	if epochs < 1 {
		epochs = 1 // the n==0 fallback below then reports a real epoch
	}
	warmup := int(opts.Warmup / m.Epoch())
	winLen := int(opts.Window / m.Epoch())
	if winLen < 1 {
		winLen = 1
	}

	p := Point{Load: load}
	var (
		win     []float64
		sumTail float64
		sums    Point
		n       int
	)
	for i := 0; i < epochs; i++ {
		t := m.Step()
		if ctl != nil {
			ctl.Step(m.Clock().Now())
		}
		if i < warmup {
			continue
		}
		frac := t.TailLatency.Seconds() / wl.SLO.Seconds()
		win = append(win, frac)
		if len(win) > winLen {
			win = win[1:]
		}
		if len(win) == winLen {
			mean := 0.0
			for _, v := range win {
				mean += v
			}
			mean /= float64(winLen)
			if mean > p.WorstTail {
				p.WorstTail = mean
			}
		}
		sumTail += frac
		sums.EMU += t.EMU
		sums.BEOnlyRate += t.BERateNorm
		sums.DRAMUtil += t.DRAMUtil
		sums.CPUUtil += t.CPUUtil
		sums.PowerFrac += t.PowerFracTDP
		sums.LCNetGBs += t.LCTxGBs
		sums.BENetGBs += t.BETxGBs
		sums.LinkUtil += t.LinkUtil
		n++
	}
	last := m.Last()
	if n == 0 {
		// Warmup consumed the whole run; report the final epoch rather
		// than dividing by zero.
		p.AvgTail = last.TailLatency.Seconds() / wl.SLO.Seconds()
		p.WorstTail = p.AvgTail
		p.EMU = last.EMU
		p.BEOnlyRate = last.BERateNorm
		p.DRAMUtil = last.DRAMUtil
		p.CPUUtil = last.CPUUtil
		p.PowerFrac = last.PowerFracTDP
		p.LCNetGBs = last.LCTxGBs
		p.BENetGBs = last.BETxGBs
		p.LinkUtil = last.LinkUtil
		p.BECores = last.BECores
		p.BEWays = last.BEWays
		p.SLOViolation = p.WorstTail > 1.0
		return p
	}
	fn := float64(n)
	p.AvgTail = sumTail / fn
	p.EMU = sums.EMU / fn
	p.BEOnlyRate = sums.BEOnlyRate / fn
	p.DRAMUtil = sums.DRAMUtil / fn
	p.CPUUtil = sums.CPUUtil / fn
	p.PowerFrac = sums.PowerFrac / fn
	p.LCNetGBs = sums.LCNetGBs / fn
	p.BENetGBs = sums.BENetGBs / fn
	p.LinkUtil = sums.LinkUtil / fn
	p.BECores = last.BECores
	p.BEWays = last.BEWays
	p.SLOViolation = p.WorstTail > 1.0
	return p
}

// String renders a series as an aligned table (one row per load point).
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s + %s\n", s.LC, s.BE)
	fmt.Fprintf(&b, "%6s %10s %8s %8s %8s %8s %8s\n",
		"load", "worstTail", "EMU", "DRAM", "CPU", "power", "link")
	for _, p := range s.Points {
		viol := ""
		if p.SLOViolation {
			viol = " VIOLATION"
		}
		fmt.Fprintf(&b, "%5.0f%% %9.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%%s\n",
			p.Load*100, p.WorstTail*100, p.EMU*100, p.DRAMUtil*100,
			p.CPUUtil*100, p.PowerFrac*100, p.LinkUtil*100, viol)
	}
	return b.String()
}

// Violations returns the load points whose worst window exceeded the SLO.
func (s Series) Violations() []float64 {
	var out []float64
	for _, p := range s.Points {
		if p.SLOViolation {
			out = append(out, p.Load)
		}
	}
	return out
}

// MeanEMU averages EMU across the series' points.
func (s Series) MeanEMU() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.EMU
	}
	return sum / float64(len(s.Points))
}
