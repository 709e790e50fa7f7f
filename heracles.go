// Package heracles is a faithful reimplementation of Heracles — the
// feedback controller from "Heracles: Improving Resource Efficiency at
// Scale" (Lo, Cheng, Govindaraju, Ranganathan, Kozyrakis; ISCA 2015) —
// together with everything needed to reproduce the paper's evaluation:
// a simulated dual-socket server (cores, hyperthreads, CAT-partitioned
// LLC, DRAM controllers, RAPL/DVFS power, HTB-shaped NIC), calibrated
// models of the paper's three latency-critical and six best-effort
// workloads, a fan-out cluster simulator, a fleet simulator with a
// best-effort job scheduler, a TCO model and experiment harnesses for
// every figure and table. The control plane that serves live
// controller-managed machines over HTTP (REST + SSE + Prometheus) is
// cmd/heraclesd and cmd/heraclesfed; docs/API.md is its surface.
//
// # Quick start
//
//	lab := heracles.NewLab(heracles.DefaultHardware())
//	series := lab.Colocate("websearch", "brain", []float64{0.2, 0.5, 0.8},
//	    heracles.RunOpts{})
//	fmt.Println(series)
//
// The controller itself (heracles.Controller) is written against the Env
// interface, so the same control logic drives either the simulated
// machine or filesystem actuators (resctrl/cgroup/cpufreq/tc formats) on
// real hardware.
package heracles

import (
	"heracles/internal/actuate"
	"heracles/internal/cluster"
	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/fleet"
	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/tco"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

// HardwareConfig describes the modelled server (sockets, cores, LLC ways,
// DRAM bandwidth, TDP, NIC rate).
type HardwareConfig = hw.Config

// DefaultHardware returns the dual-socket Haswell-class server of the
// paper's testbed (§3.2).
func DefaultHardware() HardwareConfig { return hw.DefaultConfig() }

// CompactHardware returns the single-socket efficiency generation mixed
// into heterogeneous fleet experiments.
func CompactHardware() HardwareConfig { return hw.CompactConfig() }

// Workload models.
type (
	// LCSpec describes a latency-critical workload before calibration.
	LCSpec = workload.LCSpec
	// LC is a calibrated latency-critical workload.
	LC = workload.LC
	// BESpec describes a best-effort workload or antagonist.
	BESpec = workload.BESpec
	// BE is a calibrated best-effort workload.
	BE = workload.BE
)

// PlaceDedicated gives a BE task cores of its own (§3.2), the placement
// Heracles manages.
const PlaceDedicated = workload.PlaceDedicated

// Workload constructors (paper §3.1 and §5.1) for calibrating by hand; a
// Lab calibrates the whole catalogue by name (Lab.LC, Lab.BE).
var (
	Websearch  = workload.Websearch
	Streetview = workload.Streetview
)

// Machine simulation.
type (
	// Machine is the simulated server hosting one LC task and any number
	// of BE tasks; it satisfies the controller's Env interface.
	Machine = machine.Machine
	// MachineOption configures a Machine.
	MachineOption = machine.Option
)

// Machine constructors and calibration.
var (
	// NewMachine builds a simulated server.
	NewMachine = machine.New
	// CalibrateLC calibrates an LC spec on given hardware (SLO, peak QPS,
	// guaranteed frequency).
	CalibrateLC = machine.CalibrateLC
	// SpecOf adapts an LCSpec for CalibrateLC.
	SpecOf = machine.SpecOf
	// CalibrateBE measures a BE spec running alone (EMU normalisation).
	CalibrateBE = machine.CalibrateBE
)

// The Heracles controller (the paper's contribution, §4).
type (
	// Controller is the four-mechanism feedback controller.
	Controller = core.Controller
	// ControllerConfig carries Algorithm 1-4 constants.
	ControllerConfig = core.Config
	// Env is everything the controller monitors and actuates.
	Env = core.Env
	// DRAMModel is the offline LC bandwidth model (§4.2).
	DRAMModel = core.DRAMModel
	// ControllerEvent records one controller decision.
	ControllerEvent = core.Event
)

var (
	// NewController binds a controller to an environment.
	NewController = core.New
	// DefaultControllerConfig returns the paper's constants.
	DefaultControllerConfig = core.DefaultConfig
)

// Experiments (one per paper figure/table).
type (
	// Lab caches calibrated workloads and runs the experiments.
	Lab = experiment.Lab
	// RunOpts configures colocation runs.
	RunOpts = experiment.RunOpts
)

var (
	// NewLab builds a lab for the given hardware.
	NewLab = experiment.NewLab
	// DefaultLab builds a lab on the reference hardware.
	DefaultLab = experiment.DefaultLab
)

// Cluster experiment (§5.3, Figure 8).
type (
	// ClusterConfig describes a fan-out cluster run.
	ClusterConfig = cluster.Config
	// ClusterResult is a full cluster run.
	ClusterResult = cluster.Result
	// LoadTrace is a time-ordered load trace.
	LoadTrace = trace.Trace
	// DiurnalConfig parameterises the synthetic diurnal trace.
	DiurnalConfig = trace.DiurnalConfig
)

var (
	// RunCluster replays a load trace against the cluster.
	RunCluster = cluster.Run
	// RunClusterScenario drives the cluster through a declarative
	// scenario (load shape + timed events).
	RunClusterScenario = cluster.RunScenario
	// RunClusterScenarioFrom resumes a checkpointed cluster run: same
	// Config and scenario, continuation bit-identical to an
	// uninterrupted run.
	RunClusterScenarioFrom = cluster.RunScenarioFrom
	// DiurnalTrace synthesises the §5.3 12-hour load trace.
	DiurnalTrace = trace.Diurnal
)

// EngineCheckpoint is the versioned serialized state of the epoch engine
// (DESIGN.md §11) that cluster and fleet runs drive:
// ClusterConfig.OnCheckpoint receives one, RunClusterScenarioFrom resumes
// from one.
type EngineCheckpoint = engine.Checkpoint

// ReadCheckpoint loads a checkpoint persisted with
// EngineCheckpoint.WriteFile.
var ReadCheckpoint = engine.ReadFile

// Scenario engine: declarative load shapes and timed events.
type (
	// Scenario composes a load shape with an event schedule.
	Scenario = scenario.Scenario
	// LoadShape is a composable load-vs-time function.
	LoadShape = scenario.Shape
	// ScenarioEvent is one timed action (BE churn, degradation,
	// SLO/load-target change).
	ScenarioEvent = scenario.Event
	// FlatLoad is a constant load shape.
	FlatLoad = scenario.Flat
	// StepLoads is a piecewise-constant shape (§5.2 load changes).
	StepLoads = scenario.Steps
	// RampLoad interpolates linearly between two loads.
	RampLoad = scenario.Ramp
	// FlashCrowdLoad is an additive trapezoid spike.
	FlashCrowdLoad = scenario.FlashCrowd
)

var (
	// DiurnalShape synthesises a diurnal load shape.
	DiurnalShape = scenario.Diurnal
	// SumShapes adds shapes pointwise (overlay a flash crowd on a base).
	SumShapes = scenario.Sum
	// ClampShape bounds a shape to [lo, hi].
	ClampShape = scenario.Clamp
	// BEArriveEvent schedules a best-effort task launch.
	BEArriveEvent = scenario.BEArrive
	// BEDepartEvent schedules a best-effort task departure.
	BEDepartEvent = scenario.BEDepart
	// DegradeEvent schedules a per-leaf service-time degradation.
	DegradeEvent = scenario.Degrade
	// SLOScaleEvent schedules a latency-target change.
	SLOScaleEvent = scenario.SLOScale
	// LoadScaleEvent schedules an offered-load multiplier change.
	LoadScaleEvent = scenario.LoadScale
)

// Fleet simulation: many heterogeneous clusters, baseline vs Heracles.
type (
	// FleetConfig describes a fleet experiment.
	FleetConfig = fleet.Config
	// FleetClusterSpec is one homogeneous slice of the fleet.
	FleetClusterSpec = fleet.ClusterSpec
	// FleetResult is a full fleet run with TCO analysis.
	FleetResult = fleet.Result
)

// RunFleet executes every cluster of the fleet, baseline and Heracles,
// and aggregates utilisation, SLO compliance and TCO.
var RunFleet = fleet.Run

// Best-effort job scheduler: fleet-wide dispatch onto slack-advertising
// machines, eviction with backoff, goodput accounting.
type (
	// SchedConfig configures a job scheduler (policy, job batch, seed,
	// backoff, eviction grace).
	SchedConfig = sched.Config
	// SchedJobSpec describes one best-effort job (workload, core demand,
	// required CPU work, priority, retry budget, submission time).
	SchedJobSpec = sched.JobSpec
	// FleetPoliciesResult is a paired policy-vs-policy fleet comparison.
	FleetPoliciesResult = fleet.PoliciesResult
)

var (
	// SchedPolicyNames lists the built-in policies.
	SchedPolicyNames = sched.PolicyNames
	// SyntheticJobs generates a deterministic batch of BE jobs.
	SyntheticJobs = sched.SyntheticJobs
	// RunFleetPolicies runs the fleet once per placement policy, paired
	// on seeds, with goodput/queue-delay aggregates per arm.
	RunFleetPolicies = fleet.RunPolicies
)

// TCO analysis (§5.3).
type (
	// TCOParams are the Barroso cost-model inputs.
	TCOParams = tco.Params
	// TCOComparison is one §5.3 scenario.
	TCOComparison = tco.Comparison
)

var (
	// BarrosoTCO returns the paper's cost parameters.
	BarrosoTCO = tco.Barroso
	// AnalyzeTCO reproduces the §5.3 scenarios.
	AnalyzeTCO = tco.Analyze
)

// Filesystem actuation (kernel interface formats).
type (
	// FSActuator writes resctrl/cgroup/cpufreq/tc files.
	FSActuator = actuate.FSActuator
	// FSLayout holds the file-tree layout.
	FSLayout = actuate.Layout
)

var (
	// NewFSActuator returns an actuator rooted at a directory.
	NewFSActuator = actuate.NewFS
	// DefaultFSLayout mirrors the standard Linux mount points.
	DefaultFSLayout = actuate.DefaultLayout
)
