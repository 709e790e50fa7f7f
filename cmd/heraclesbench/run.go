//go:build linux

package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the seven metrics every workload reports, in the order
// they are printed. BENCHMARK.json carries the same table; a test keeps
// the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"heavy_op_ms", "ms", "lower", 0.25},
	{"sim_epochs_per_s", "1/s", "higher", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
}

// Rounds of a run. An untraced run measures five rounds and reports the
// median of their values; a traced run alternates untraced and traced
// rounds of the same length, so the overhead of tracing is the ratio of
// two medians taken minutes apart at most.
const (
	measuredRounds = 5
	tracedPairs    = 2
	setupRepeats   = 3 // set-ups per untraced run; setup_s is their median
)

// env is what a run hands to a workload.
type env struct {
	ctx     context.Context
	bins    binaries
	seed    uint64
	seconds float64 // measured time of an untraced run
	tiny    bool    // smoke sizes: pools of 2-8, no sample floors
	trace   bool

	// Host-normalised and wall-clock seconds of the set-up in progress:
	// workloads run their set-up as stages and warm-up phases, which
	// add to these.
	setupS, setupRawS float64
}

// stage runs one step of a set-up (boot, a batch of creates, a few
// commands) between two host probes and books its normalised time. A
// stage should last a few hundred milliseconds at most, like a slice.
func (e *env) stage(fn func() error) error {
	before := hostProbe()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	slow := hostSlow((before + hostProbe()) / 2)
	e.setupS += wall / slow
	e.setupRawS += wall
	return err
}

// warmup runs a set-up's fixed-work warm-up phases and books their
// time. Any failed op fails the set-up.
func (e *env) warmup(specs ...phaseSpec) error {
	for _, spec := range specs {
		p := runPhase(e.ctx, spec, nil, 0)
		e.setupS += p.wall
		e.setupRawS += p.rawWall
		if p.fatal != nil {
			return p.fatal
		}
		if p.failed > 0 {
			return fmt.Errorf("warm-up %s: %d of %d ops failed: %v", spec.name, p.failed, p.attempted, p.firstErr)
		}
	}
	return nil
}

// workload is one of the four named traffic mixes. A value serves one
// set-up: the runner builds a fresh one for every repeat.
type workload interface {
	// setup boots the program under test, builds the pool and runs the
	// fixed-work warm-up, all through e.stage and e.warmup, whose booked
	// time is setup_s.
	setup(e *env) error
	// opSpec and heavySpec describe the two phases of a round of the
	// given length; they never run concurrently.
	opSpec(e *env, round int, d time.Duration) phaseSpec
	heavySpec(e *env, round int, d time.Duration) phaseSpec
	// afterRound runs the reply checks that need a quiet system.
	afterRound(op, heavy phaseResult) error
	// epochs is the number of machine-epochs the program has simulated
	// so far; cpuSeconds the CPU time it has used; rssMB its peak
	// resident set. The harness itself is never counted.
	epochs() (float64, error)
	cpuSeconds() (float64, error)
	rssMB() (float64, error)
	// layer reports the workload's scraped per-layer metrics for the
	// measured span (traced runs only); begin is called before it.
	layerBegin() error
	layer(wall time.Duration) (map[string]metric, error)
	teardown()
}

// workloadDef is a row of the workload table.
type workloadDef struct {
	name string
	why  string
	// opShare is the share of a round given to the op phase.
	opShare float64
	// paced: the program under test simulates on the wall clock (live
	// pools) rather than as fast as it can (batch CLIs).
	paced bool
	// Sample floors of an untraced run at the committed sizes.
	opFloor, heavyFloor int
	newWorkload         func(tiny bool) workload
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layer     map[string]metric `json:"layer,omitempty"`
	SetupS    []float64         `json:"setup_s_repeats"`
	SetupRawS []float64         `json:"setup_raw_s_repeats"`
	Rounds    []roundStats      `json:"rounds"`
	OpN       int               `json:"op_samples"`
	HeavyN    int               `json:"heavy_samples"`
	OpTailPct float64           `json:"op_highest_supported_percentile"`
	OpTailMs  float64           `json:"op_highest_supported_ms"`
	WallS     float64           `json:"wall_s"`
	// KindP50Ms is the op phase's median per request class (reconcile
	// table input).
	KindP50Ms map[string]float64 `json:"kind_p50_ms,omitempty"`
}

// runWorkload performs one run: the repeated set-ups, the measured
// rounds and the checks. An error means the run could not be completed
// (a daemon died, a floor was missed); failed operations and failed
// reply checks leave the run complete but not correct.
func runWorkload(e *env, def workloadDef, tr *tracer, parent uint64) (*runResult, error) {
	runStart := time.Now()
	res := &runResult{
		Workload: def.name, Seed: e.seed, Seconds: e.seconds, Traced: e.trace,
		Metrics: map[string]metric{},
	}
	wspan := tr.begin(parent, def.name)
	defer func() { tr.finish(wspan) }()

	w, err := setUp(e, def, res, tr, wspan.ID)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer w.teardown()
	if err := measure(e, def, w, res, tr, wspan.ID); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}

	if !e.tiny && !e.trace {
		if err := checkFloor(def.name+" op", res.OpN, def.opFloor); err != nil {
			return nil, err
		}
		if err := checkFloor(def.name+" heavy op", res.HeavyN, def.heavyFloor); err != nil {
			return nil, err
		}
	}
	if res.Attempted > 0 {
		res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	res.WallS = time.Since(runStart).Seconds()
	return res, nil
}

// setUp sets the workload up setupRepeats times, tearing all but the
// last down again, and returns the last, ready to measure.
func setUp(e *env, def workloadDef, res *runResult, tr *tracer, parent uint64) (workload, error) {
	repeats := setupRepeats
	if e.tiny || e.trace {
		repeats = 1
	}
	var w workload
	for k := 0; k < repeats; k++ {
		if w != nil {
			w.teardown()
		}
		w = def.newWorkload(e.tiny)
		sp := tr.begin(parent, "setup")
		e.setupS, e.setupRawS = 0, 0
		err := w.setup(e)
		tr.finish(sp)
		if err != nil {
			w.teardown()
			return nil, err
		}
		res.SetupS = append(res.SetupS, e.setupS)
		res.SetupRawS = append(res.SetupRawS, e.setupRawS)
	}
	return w, nil
}

// measure runs the rounds and fills in the run's metrics.
func measure(e *env, def workloadDef, w workload, res *runResult, tr *tracer, parent uint64) error {
	// The plan of rounds: which are traced.
	plan := make([]bool, measuredRounds)
	if e.trace {
		plan = plan[:0]
		for i := 0; i < tracedPairs; i++ {
			plan = append(plan, false, true)
		}
	}
	if e.tiny {
		plan = plan[:2]
	}
	roundDur := time.Duration(e.seconds / measuredRounds * float64(time.Second))
	opDur := time.Duration(float64(roundDur) * def.opShare)

	if e.trace {
		if err := w.layerBegin(); err != nil {
			return err
		}
	}
	epochs0, err := w.epochs()
	if err != nil {
		return err
	}
	cpu0, err := w.cpuSeconds()
	if err != nil {
		return err
	}
	var opCPU float64  // CPU seconds of the program under test in op phases
	var phaseS float64 // host-normalised seconds spent in phases
	var allOp phaseResult
	start := time.Now()
	for r, traced := range plan {
		rtr := tr
		if !traced {
			rtr = nil
		}
		rspan := rtr.begin(parent, fmt.Sprintf("round-%d", r))

		c0, _ := w.cpuSeconds() // read again below; a failure shows there
		pspan := rtr.begin(rspan.ID, "op-phase")
		op := runPhase(e.ctx, w.opSpec(e, r, opDur), rtr, pspan.ID)
		rtr.finish(pspan)
		c1, _ := w.cpuSeconds()
		pspan = rtr.begin(rspan.ID, "heavy-phase")
		heavy := runPhase(e.ctx, w.heavySpec(e, r, roundDur-opDur), rtr, pspan.ID)
		rtr.finish(pspan)

		for _, p := range []phaseResult{op, heavy} {
			if p.fatal != nil {
				return fmt.Errorf("round %d: %w", r, p.fatal)
			}
			res.Attempted += p.attempted
			res.Failed += p.failed
			if p.firstErr != nil {
				res.Problems = append(res.Problems, fmt.Sprintf("round %d: %v", r, p.firstErr))
			}
		}
		if err := e.ctx.Err(); err != nil {
			return err
		}
		if len(op.ms) == 0 || len(heavy.ms) == 0 {
			return fmt.Errorf("round %d completed %d ops and %d heavy ops; first errors: %v, %v",
				r, len(op.ms), len(heavy.ms), op.firstErr, heavy.firstErr)
		}
		sortedOp := sortedCopy(op.ms)
		res.Rounds = append(res.Rounds, roundStats{
			OpP50Ms:      quantile(sortedOp, 0.5),
			OpP95Ms:      quantile(sortedOp, 0.95),
			OpsPerS:      float64(len(op.ms)) / op.wall,
			HeavyOpMs:    median(heavy.ms),
			OpN:          len(op.ms),
			HeavyN:       len(heavy.ms),
			RawOpP50Ms:   median(op.rawMs),
			RawHeavyOpMs: median(heavy.rawMs),
			ProbeMs:      meanProbeMs(op.rawWall+heavy.rawWall, op.wall+heavy.wall),
			Traced:       traced,
		})
		res.OpN += len(op.ms)
		res.HeavyN += len(heavy.ms)
		phaseS += op.wall + heavy.wall
		opCPU += c1 - c0
		allOp.ms = append(allOp.ms, op.ms...)
		allOp.kinds = append(allOp.kinds, op.kinds...)

		if err := w.afterRound(op, heavy); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("round %d check: %v", r, err))
		}
		rtr.finish(rspan)
	}
	wall := time.Since(start)
	epochs1, err := w.epochs()
	if err != nil {
		return err
	}
	cpu1, err := w.cpuSeconds()
	if err != nil {
		return err
	}
	rss, err := w.rssMB()
	if err != nil {
		return err
	}

	// A traced run's end-to-end figures come from its untraced rounds.
	var plain, tracedRounds []roundStats
	for _, rs := range res.Rounds {
		if rs.Traced {
			tracedRounds = append(tracedRounds, rs)
		} else {
			plain = append(plain, rs)
		}
	}
	p50 := func(r roundStats) float64 { return r.OpP50Ms }
	// A paced daemon simulates against the wall clock, whatever the host
	// does; the batch CLIs simulate as fast as the host lets them, so
	// their rate is taken over the phases' host-normalised time.
	simSeconds := phaseS
	if def.paced {
		simSeconds = wall.Seconds()
	}
	values := map[string]float64{
		"setup_s":          median(res.SetupS),
		"op_p50_ms":        medianOfRounds(plain, p50),
		"op_p95_ms":        medianOfRounds(plain, func(r roundStats) float64 { return r.OpP95Ms }),
		"ops_per_s":        medianOfRounds(plain, func(r roundStats) float64 { return r.OpsPerS }),
		"heavy_op_ms":      medianOfRounds(plain, func(r roundStats) float64 { return r.HeavyOpMs }),
		"sim_epochs_per_s": (epochs1 - epochs0) / simSeconds,
		"rss_mb":           rss,
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}

	sortedAll := sortedCopy(allOp.ms)
	res.OpTailPct = 100 * highestSupportedPercentile(len(sortedAll))
	res.OpTailMs = quantile(sortedAll, res.OpTailPct/100)
	res.KindP50Ms = map[string]float64{}
	for _, k := range allOp.kinds {
		if _, seen := res.KindP50Ms[k]; !seen {
			res.KindP50Ms[k] = median(allOp.msOfKind(k))
		}
	}

	if e.trace {
		layer, err := w.layer(wall)
		if err != nil {
			return err
		}
		layer["harness.calib_spin_ms"] = metric{medianOfRounds(res.Rounds, func(r roundStats) float64 { return r.ProbeMs }), "ms"}
		if len(tracedRounds) > 0 {
			layer["harness.trace_overhead_pct"] = metric{
				100 * (medianOfRounds(tracedRounds, p50)/medianOfRounds(plain, p50) - 1), "%"}
		}
		layer["proc.cpu_us_per_op"] = metric{1e6 * opCPU / float64(res.OpN), "us"}
		layer["proc.cpu_util"] = metric{(cpu1 - cpu0) / wall.Seconds(), "cpu"}
		res.Layer = layer
	}
	return nil
}

// clientConns is the closed-loop width of op phases: at most nproc
// connections from the single harness process, and no more than two —
// the reference box has two cores, and a wider loop on a bigger host
// would queue in the daemon and measure something else.
func clientConns() int { return min(runtime.NumCPU(), 2) }

// printRun writes a run's report: per-round values, then every metric
// by name with its unit.
func printRun(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %.0f s measured  %s  (%.1f s wall) ==\n",
		res.Workload, res.Seed, res.Seconds, mode, res.WallS)
	fmt.Fprintf(w, "  %-6s %10s %10s %11s %12s %7s %7s | %10s %10s %9s\n",
		"round", "op_p50_ms", "op_p95_ms", "ops_per_s", "heavy_op_ms", "op_n", "heavy_n", "wall p50", "wall heavy", "probe_ms")
	for i, r := range res.Rounds {
		tag := ""
		if r.Traced {
			tag = " traced"
		}
		fmt.Fprintf(w, "  %-6d %10.4f %10.4f %11.2f %12.4f %7d %7d | %10.4f %10.4f %9.2f%s\n",
			i, r.OpP50Ms, r.OpP95Ms, r.OpsPerS, r.HeavyOpMs, r.OpN, r.HeavyN, r.RawOpP50Ms, r.RawHeavyOpMs, r.ProbeMs, tag)
	}
	fmt.Fprintf(w, "  (times are host-normalised: wall-clock divided by the slowdown the host probe saw, %.1f ms = undisturbed; wall-clock medians on the right)\n", probeRefMs)
	fmt.Fprintf(w, "  set-up repeats (s): %.4f  wall-clock: %.4f\n", res.SetupS, res.SetupRawS)
	fmt.Fprintf(w, "  %-22s %14s %-5s %-6s %s\n", "end-to-end metric", "value", "unit", "better", "bound")
	for _, d := range endToEnd {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-22s %14.4f %-5s %-6s %.0f%%\n", d.Name, m.Value, m.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d (fail_frac %.4f); samples: op %d, heavy %d; op p%g = %.4f ms (highest percentile with ten samples beyond it)\n",
		res.Attempted, res.Failed, res.FailFrac, res.OpN, res.HeavyN, res.OpTailPct, res.OpTailMs)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if len(res.Layer) > 0 {
		fmt.Fprintf(w, "  scraped per-layer metrics of this workload:\n")
		printMetrics(w, res.Layer)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "    %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
