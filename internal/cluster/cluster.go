package cluster

import (
	"time"

	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/slo"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

// Config describes a cluster experiment.
type Config struct {
	Leaves int // number of leaf servers (default 20)
	// Heracles: when true, brain runs on half of the leaves and
	// streetview on the other half under Heracles control (§5.3); when
	// false the cluster runs the baseline with no best-effort tasks.
	Heracles bool

	HW    hw.Config
	LC    *workload.LC // calibrated websearch (or any LC workload)
	Brain *workload.BE
	SView *workload.BE
	// Catalog resolves additional calibrated BE workloads referenced by
	// scenario BE-arrival events; Brain and SView are always resolvable
	// by their workload names without an entry here.
	Catalog map[string]*workload.BE

	// RootSamples is ignored — a cluster always has a root, and its fan-out
	// latency is an integral, not a sample mean — and stays only because
	// the frozen cmd/heraclesbench sets it (ROADMAP item 8).
	RootSamples int
	Seed        uint64 // seeds the job scheduler when Sched.Seed is zero
	// Model is the shared offline DRAM model (all leaves share one model
	// even though each leaf has a different shard, §5.3).
	Model core.DRAMModel
	// LeafTargetFrac scales each leaf's controller-visible latency target
	// below the workload SLO so that the root-level mean-of-max latency
	// satisfies the cluster SLO (§5.3: "a uniform 99%-ile latency target
	// set such that the latency at the root satisfies the SLO").
	// Default 0.8.
	LeafTargetFrac float64
	// Warmup is excluded from Summarize (controller convergence).
	// Default 10 minutes.
	Warmup time.Duration
	// DynamicLeafTargets enables the centralized extension the paper
	// sketches in §5.3: "a centralized controller that dynamically sets
	// the per-leaf tail latency targets based on slack at the root",
	// letting Heracles harvest slack in higher layers of the fan-out
	// tree. Every AdjustPeriod the root compares its mean latency to the
	// cluster SLO and scales every leaf's latency target up or down.
	DynamicLeafTargets bool
	// AdjustPeriod is the root controller's adjustment cadence
	// (default 30 s).
	AdjustPeriod time.Duration
	// Workers is ignored — leaves step one at a time, sharing their stage
	// records (engine.Config.Workers) — and stays only because the frozen
	// cmd/heraclesbench sets it (ROADMAP item 10).
	Workers int

	// Sched, when non-nil, attaches a fleet-wide best-effort job
	// scheduler to the Heracles run: instead of the construction-time
	// brain/streetview split, BE work arrives as a job stream dispatched
	// onto leaves by the scheduler's policy, evicted when a leaf's
	// controller disables BE, and accounted as goodput vs wasted CPU
	// time (Result.Sched). Scripted BE arrive/depart events still apply
	// on top, but departures never touch scheduler-owned tasks — the
	// scheduler is the sole owner of its jobs' lifecycle. Ignored on
	// baseline (no-colocation) runs. A zero
	// Sched.Seed inherits Config.Seed (the scheduler decorrelates its
	// streams internally).
	Sched *sched.Config

	// Budget, when non-nil, attaches the error-budget engine
	// (internal/slo, DESIGN.md §15) to the run: every leaf and the
	// cluster get burn-rate trackers, Result.Budget carries the final
	// accounting and every alert edge, and — with Budget.Admission —
	// firing fast-burn pages throttle best-effort admission on the
	// affected leaves.
	Budget *slo.Config

	// Faults is a deterministic fault schedule injected during the run:
	// leaf crashes, telemetry blackouts, slow machines, actuation
	// failures and BE kills fire at their scheduled times (see
	// internal/fault). The schedule is part of the experiment's identity —
	// run the same schedule with Heracles on and off to measure resilience
	// paired, exactly like the load trace. Invalid faults panic at
	// construction (programmer error, like malformed scenarios).
	Faults []fault.Fault

	// CheckpointAt, together with OnCheckpoint, snapshots the run: at the
	// first completed epoch whose simulated time reaches CheckpointAt the
	// engine's full state is serialized and handed to OnCheckpoint.
	// Resume the run later with RunScenarioFrom (same Config and the same
	// scenario) — the continuation is bit-identical to the uninterrupted
	// run.
	CheckpointAt time.Duration
	OnCheckpoint func(*engine.Checkpoint)
}

// EpochStat is the cluster state for one trace epoch. It is the engine's
// per-epoch statistic: the cluster layer is a thin driver over
// internal/engine, which owns the canonical epoch loop.
type EpochStat = engine.EpochStat

// Result is a full cluster run.
type Result struct {
	SLO    time.Duration // root-level SLO (µ/30s target)
	Warmup time.Duration // excluded from Summarize
	Epochs []EpochStat

	// SchedPolicy and Sched are the job scheduler's policy name and final
	// accounting ("" and nil without Config.Sched or on baseline runs).
	SchedPolicy string
	Sched       *sched.Accounting

	// Budget is the error-budget engine's final accounting (nil without
	// Config.Budget): the cluster-wide and per-leaf burn status plus
	// every alert edge the run produced, in deterministic order.
	Budget *BudgetReport
}

// BudgetReport is the error-budget engine's view of a finished run.
type BudgetReport struct {
	// Cluster is the fleet-wide tracker's final status; Nodes holds one
	// status per leaf.
	Cluster slo.Status
	Nodes   []slo.Status
	// Transitions is every alert fire/resolve edge, in emission order
	// (epoch ascending; nodes ascending with the cluster tracker last;
	// page before ticket per tracker).
	Transitions []slo.Transition
}

// Run replays the load trace against the cluster and returns per-epoch
// statistics — the compatibility wrapper over RunScenario for callers
// with a bare trace and no events.
func Run(cfg Config, tr trace.Trace) Result {
	return RunScenario(cfg, scenario.FromTrace("trace", tr))
}

// lookupBE resolves a BE-arrival event's workload name against the
// config; unknown names return nil and the engine panics (scenario
// composition is programmer error, not runtime input).
func (cfg Config) lookupBE(name string) *workload.BE {
	if be, ok := cfg.Catalog[name]; ok {
		return be
	}
	if cfg.Brain != nil && cfg.Brain.Spec.Name == name {
		return cfg.Brain
	}
	if cfg.SView != nil && cfg.SView.Spec.Name == name {
		return cfg.SView
	}
	return nil
}

// engineConfig translates the cluster configuration into the engine's.
func (cfg Config) engineConfig() engine.Config {
	ecfg := engine.Config{
		Nodes:          cfg.Leaves,
		HW:             cfg.HW,
		LC:             cfg.LC,
		Heracles:       cfg.Heracles,
		Model:          cfg.Model,
		LookupBE:       cfg.lookupBE,
		RootSamples:    1, // the root is on
		Seed:           cfg.Seed,
		DynamicTargets: cfg.Heracles && cfg.DynamicLeafTargets,
		AdjustPeriod:   cfg.AdjustPeriod,
		Faults:         cfg.Faults,
		SLO:            cfg.Budget,
	}
	if cfg.Heracles {
		ecfg.SLOScale = cfg.LeafTargetFrac
		if cfg.Sched != nil {
			ecfg.Sched = cfg.Sched
		} else {
			// The construction-time split of §5.3: brain on even leaves,
			// streetview on odd ones.
			brain, sview := cfg.Brain, cfg.SView
			ecfg.InitialBEs = func(i int) []engine.BEAttach {
				if i%2 == 0 {
					return []engine.BEAttach{{WL: brain, Placement: workload.PlaceDedicated}}
				}
				return []engine.BEAttach{{WL: sview, Placement: workload.PlaceDedicated}}
			}
		}
	}
	return ecfg
}

// withDefaults fills the documented defaults in place.
func (cfg Config) withDefaults() Config {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 20
	}
	if cfg.LeafTargetFrac == 0 {
		cfg.LeafTargetFrac = 0.8
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 10 * time.Minute
	}
	if cfg.AdjustPeriod == 0 {
		cfg.AdjustPeriod = 30 * time.Second
	}
	return cfg
}

// RunScenario drives the cluster through a declarative scenario — a thin
// batch driver over the engine that owns the epoch loop (see
// internal/engine and DESIGN.md §11): the scenario's load shape and
// timed events, the per-epoch scheduler tick and the leaf/controller
// stepping all happen inside engine.Step. The root-level SLO is set as
// the µ/30s latency when serving 90% load with no colocated tasks
// (§5.3).
func RunScenario(cfg Config, sc scenario.Scenario) Result {
	cfg = cfg.withDefaults()
	eng := engine.New(cfg.engineConfig())
	eng.InstallScenario(sc)
	return drive(cfg, eng, sc.Duration)
}

// RunScenarioFrom resumes a checkpointed run: cfg and sc must be the
// ones the original run used (the checkpoint stores the cursor position
// and simulation state, not the scenario's code). The returned result
// covers the epochs from the checkpoint to the scenario end, and is
// bit-identical to the same span of an uninterrupted run.
func RunScenarioFrom(cfg Config, sc scenario.Scenario, cp *engine.Checkpoint) (Result, error) {
	cfg = cfg.withDefaults()
	eng, err := engine.Restore(cfg.engineConfig(), cp, &sc)
	if err != nil {
		return Result{}, err
	}
	return drive(cfg, eng, sc.Duration), nil
}

// drive steps the engine to the scenario horizon, collecting stats and
// taking the configured checkpoint.
func drive(cfg Config, eng *engine.Engine, end time.Duration) Result {
	res := Result{SLO: eng.SLO(), Warmup: cfg.Warmup}
	checkpointed := cfg.OnCheckpoint == nil
	var edges []slo.Transition
	for eng.Now() < end {
		er := eng.Step()
		res.Epochs = append(res.Epochs, er.Stat)
		edges = append(edges, er.SLOTransitions...)
		if !checkpointed && eng.Now() >= cfg.CheckpointAt {
			checkpointed = true
			cfg.OnCheckpoint(eng.Snapshot())
		}
	}
	res.SchedPolicy, res.Sched = eng.SchedAccounting()
	if eng.SLOEnabled() {
		rep := &BudgetReport{Cluster: eng.SLOClusterStatus(), Transitions: edges}
		for i := 0; i < eng.Nodes(); i++ {
			rep.Nodes = append(rep.Nodes, eng.SLONodeStatus(i))
		}
		res.Budget = rep
	}
	return res
}

// Summary aggregates a run.
type Summary struct {
	SLO          time.Duration
	MeanEMU      float64
	MinEMU       float64
	MeanRootFrac float64
	MaxRootFrac  float64
	Violations   int // epochs with root latency above the SLO

	// DownEpochs counts post-warmup epochs with at least one crashed
	// leaf, and MaxDown the worst simultaneous crash count — both zero
	// without a fault schedule.
	DownEpochs int
	MaxDown    int

	// SchedPolicy and Sched carry the job scheduler's policy name and
	// goodput accounting when the run had one (nil otherwise).
	SchedPolicy string
	Sched       *sched.Accounting
}

// Summarize reduces a result to the quantities §5.3 reports: no SLO
// violations, average EMU ~90%, minimum ~80%. The SLO is evaluated the way
// the paper defines it — mean root latency over 30-second windows — so
// RootFrac epochs are aggregated into rolling 30-epoch windows before
// violations are counted.
func (r Result) Summarize() Summary {
	s := Summary{SLO: r.SLO, MinEMU: 1e9, SchedPolicy: r.SchedPolicy, Sched: r.Sched}
	const winN = 30
	var win []float64
	winSum := 0.0
	n := 0.0
	for _, e := range r.Epochs {
		if e.At < r.Warmup {
			continue
		}
		n++
		if e.Down > 0 {
			s.DownEpochs++
			if e.Down > s.MaxDown {
				s.MaxDown = e.Down
			}
		}
		s.MeanEMU += e.EMU
		if e.EMU < s.MinEMU {
			s.MinEMU = e.EMU
		}
		s.MeanRootFrac += e.RootFrac
		win = append(win, e.RootFrac)
		winSum += e.RootFrac
		if len(win) > winN {
			winSum -= win[0]
			win = win[1:]
		}
		if len(win) == winN {
			mean := winSum / winN
			if mean > s.MaxRootFrac {
				s.MaxRootFrac = mean
			}
			if mean > 1 {
				s.Violations++
			}
		}
	}
	if n == 0 {
		return Summary{SLO: r.SLO, SchedPolicy: s.SchedPolicy, Sched: s.Sched}
	}
	s.MeanEMU /= n
	s.MeanRootFrac /= n
	return s
}
