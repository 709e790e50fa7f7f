package engine

import (
	"fmt"
	"math"
	"slices"
	"time"

	"heracles/internal/core"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/slo"
	"heracles/internal/workload"
)

// BEAttach names one construction-time best-effort task for a node.
type BEAttach struct {
	WL        *workload.BE
	Placement workload.PlacementKind
}

// Config describes an engine: the node fleet, the workloads, and which
// optional subsystems (root fan-out latency, dynamic leaf targets, the
// job scheduler) participate in the loop.
type Config struct {
	// Nodes is the number of simulated machines (default 1). The cluster
	// layer runs one engine with many nodes; the live layer runs one
	// engine per instance with a single node.
	Nodes int
	HW    hw.Config
	// LC is the calibrated latency-critical workload every node serves.
	LC *workload.LC
	// Heracles attaches a controller to every node; false models the
	// no-colocation baseline (BE scenario events are ignored).
	Heracles bool
	// Model is the shared offline DRAM model (nil falls back to counter
	// subtraction, see core.New).
	Model core.DRAMModel
	// LookupBE resolves BE workload names referenced by scenario events
	// and scheduler jobs. Unknown names panic inside the resolver or here:
	// composition is programmer (or pre-validated API) input.
	LookupBE func(name string) *workload.BE
	// InitialBEs returns the construction-time BE tasks of a node (nil for
	// none). Ignored when restoring from a checkpoint.
	InitialBEs func(node int) []BEAttach
	// Load is the initial offered LC load (scenario shapes override it
	// every epoch while active).
	Load float64
	// SLOScale tightens the controller-visible latency target of every
	// node (0 = unscaled) — the per-leaf target fraction of §5.3.
	SLOScale float64

	// RootSamples, when positive, enables the cluster root: an SLO is
	// calibrated at construction (root mean fan-out latency at 95% load)
	// and every epoch computes the mean latency of a root that waits for
	// the slowest of the leaves that answer (RootSampler.Mean). A dark leaf
	// (inside a crash outage) is left out of the maximum — it adds 0, not
	// a timeout — while the leaf-level reduction books the same node as an
	// SLO violation. The value is not a count, nothing is sampled: this is
	// `Root bool` under the name the frozen cmd/heraclesbench sets (ROADMAP
	// item 8).
	RootSamples int
	Seed        uint64 // seeds the job scheduler when Sched.Seed is zero

	// DynamicTargets enables the centralized root controller that
	// converts root-level slack into per-node SLO-scale adjustments every
	// AdjustPeriod (default 30s). Requires RootSamples > 0.
	DynamicTargets bool
	AdjustPeriod   time.Duration

	// Workers is ignored: nodes step one at a time, in node order, because
	// an engine's machines share their stage records (machine.StageMemo).
	// It stays only because the frozen cmd/heraclesbench sets it (ROADMAP
	// item 10).
	Workers int

	// Sched, when non-nil (and Heracles), attaches the best-effort job
	// scheduler: jobs dispatch onto nodes by advertised slack, evict when
	// a controller disables BE, and account goodput vs wasted CPU time.
	// A zero Sched.Seed inherits Config.Seed.
	Sched *sched.Config

	// Faults is the scenario-schedule fault plan: each entry fires at the
	// first epoch whose start time reaches its At. Invalid entries panic at
	// construction, like scenario events. Ignored when restoring from a
	// checkpoint (the checkpoint carries the schedule and its progress).
	Faults []fault.Fault

	// SLO, when non-nil, attaches the error-budget engine (DESIGN.md §15):
	// one burn-rate tracker per node plus a cluster-wide one, each fed one
	// violation bit per epoch. With SLO.Admission set, a node whose
	// fast-burn page fires advertises BE-disallowed to the scheduler until
	// the alert resolves. Tracker state rides the engine checkpoint.
	SLO *slo.Config

	// privateStages keeps each machine's stage records to itself: the
	// reference tests compare the shared records with.
	privateStages bool
}

// EpochStat is the engine's per-epoch statistic — the cluster layer
// collects these as its result rows. Root fields are zero when the
// engine runs without a root (RootSamples == 0).
type EpochStat struct {
	At         time.Duration
	Load       float64
	RootMean   time.Duration // mean fan-out latency at the root (µ/30s proxy)
	RootFrac   float64       // RootMean / SLO
	EMU        float64       // mean effective machine utilisation over nodes
	LeafWorst  float64       // worst per-node tail latency / workload SLO
	Violations int           // nodes violating the workload SLO this epoch
	Down       int           // nodes inside a crash outage this epoch

	// Scheduler depths at this epoch (zero without Config.Sched).
	SchedQueue   int
	SchedRunning int
}

// EpochResult is everything one Step produced. Tel aliases the engine's
// scratch and each machine's in-place telemetry record: consume it before
// the next Step, copy to retain.
type EpochResult struct {
	Epoch uint64        // completed epochs, 1-based after the first Step
	At    time.Duration // simulated time at the start of the epoch
	Stat  EpochStat
	Tel   []machine.Telemetry
	// EventsApplied counts the scenario events that fired this epoch.
	EventsApplied int
	// FaultsApplied counts the faults (scheduled or injected) that fired
	// this epoch.
	FaultsApplied int
	// ScenarioDone carries the scenario's name on the epoch its horizon
	// elapsed; the load freezes at its final value.
	ScenarioDone string
	// SLOTransitions are the alert edges this epoch produced (nodes
	// ascending, cluster-wide last as Node=-1), nil without Config.SLO.
	// Like Tel it aliases engine scratch: consume before the next Step.
	SLOTransitions []slo.Transition
	// Spans is the wall-clock phase breakdown of this Step, feeding the
	// control plane's trace ring (GET /api/v1/instances/{id}/trace).
	// Wall time, not sim time — excluded from every determinism pin.
	Spans StepSpans
}

// StepSpans is the wall-clock time one Step spent per phase, in
// nanoseconds: scenario/fault event resolution, the scheduler tick,
// stepping the nodes, and the reduction (including SLO tracker updates).
type StepSpans struct {
	EventsNs int64 `json:"events_ns"`
	SchedNs  int64 `json:"sched_ns"`
	NodesNs  int64 `json:"nodes_ns"`
	ReduceNs int64 `json:"reduce_ns"`
}

// node couples one machine with its (optional) controller. The fault
// environment sits between them: the controller monitors and actuates
// through fenv, which forwards to the machine except inside telemetry
// blackout or actuation-failure windows.
type node struct {
	m    *machine.Machine
	ctl  *core.Controller
	fenv *fault.Env
}

// runState is the active scenario, owned by the stepping goroutine.
type runState struct {
	sc        scenario.Scenario
	cursor    *scenario.Cursor
	t0        time.Duration // sim time when the scenario was installed
	loadScale float64
}

// Engine is the canonical epoch loop over a set of simulated machines.
// It is single-threaded by contract: callers step it from one goroutine
// (the cluster's run loop, or a live instance's driver) and apply any
// external mutation between Steps.
type Engine struct {
	cfg   Config
	nodes []*node
	epoch time.Duration
	slo   time.Duration // root SLO; zero without a root

	epochIdx uint64
	t        time.Duration

	leafScale  float64
	lastAdjust time.Duration
	rootEWMA   float64

	run *runState

	schd       *sched.Scheduler
	schedTasks map[int]schedTask        // job id -> live task
	schedOwned map[*machine.BETask]bool // tasks a scheduler (this engine's or the live fleet's) owns
	nodeStates []sched.NodeState

	// Fault state: the sorted schedule with its cursor, live injections
	// awaiting the next Step, the lifetime applied count, and the lazily
	// allocated per-node window table.
	faults        []fault.Fault
	faultNext     int
	pendingFaults []fault.Fault
	faultCount    int
	nf            []nodeFault

	// Error-budget trackers (nil without Config.SLO): one per node plus
	// the cluster-wide tracker, and the per-Step transition scratch.
	sloNodes   []*slo.Tracker
	sloCluster *slo.Tracker
	sloTrans   []slo.Transition

	leafTail []lat.EpochStats
	telBuf   []machine.Telemetry

	// Steady-state Step scratch (DESIGN.md §16 economics): the progress
	// closure is bound once so a Step allocates nothing. root holds the
	// fan-out integral's per-leaf scratch, refilled from leafTail each
	// epoch.
	progressFn func(*sched.Job) float64
	root       RootSampler
}

type schedTask struct {
	node int
	task *machine.BETask
}

// New builds an engine. It panics on structural misconfiguration (no LC
// workload, unresolvable scheduler job workloads): engine composition is
// programmer input, not runtime data.
func New(cfg Config) *Engine {
	e := newEngine(&cfg, true)
	for i, n := range e.nodes {
		if cfg.InitialBEs != nil {
			for _, att := range cfg.InitialBEs(i) {
				n.m.AddBE(att.WL, att.Placement)
			}
		}
		n.m.SetLoad(cfg.Load)
	}
	if cfg.Sched != nil && cfg.Heracles {
		sc2 := *cfg.Sched
		if sc2.Seed == 0 {
			sc2.Seed = cfg.Seed
		}
		for _, js := range sc2.Jobs {
			e.lookupBE(js.Workload) // fail before any simulation state exists
		}
		e.attachScheduler(sched.New(sc2))
	}
	return e
}

// newEngine builds the engine skeleton shared by New and Restore. With
// construct set it also builds the node fleet and runs the root-SLO
// calibration; Restore passes false — its nodes, clock and SLO all come
// from the checkpoint, so constructing throwaways here (N machines plus
// an 8-epoch calibration run) would only be waste.
func newEngine(cfg *Config, construct bool) *Engine {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.LC == nil {
		panic("engine: Config.LC workload missing")
	}
	if cfg.AdjustPeriod == 0 {
		cfg.AdjustPeriod = 30 * time.Second
	}
	e := &Engine{
		cfg:       *cfg,
		leafScale: cfg.SLOScale,
		leafTail:  make([]lat.EpochStats, cfg.Nodes),
		telBuf:    make([]machine.Telemetry, cfg.Nodes),
	}
	e.nodes = make([]*node, cfg.Nodes)
	e.epoch = time.Second
	if construct {
		for i := range e.nodes {
			m := machine.New(cfg.HW)
			m.SetLC(cfg.LC)
			if cfg.SLOScale > 0 {
				m.SetSLOScale(cfg.SLOScale)
			}
			e.nodes[i] = buildNode(m, cfg)
		}
		e.shareStages()
		e.epoch = e.nodes[0].m.Epoch()
		e.installFaults(cfg.Faults)
		e.initSLO()

		// Root SLO: mean fan-out latency at 95% load with a small margin
		// for noise above the nominal crest (the paper sets the target as
		// µ/30s at 90% load).
		if cfg.RootSamples > 0 {
			e.slo = rootLatencyAt(*cfg, 0.95)
		}
	}
	return e
}

// shareStages gives the nodes' machines one stage memo, so that leaves
// handed the same epoch solve it once (a one-node engine forms none).
// Step steps them one at a time, in node order, as a memo requires.
func (e *Engine) shareStages() {
	if e.cfg.privateStages {
		return
	}
	memo := machine.NewStageMemo(e.cfg.HW, len(e.nodes))
	for _, n := range e.nodes {
		n.m.ShareStages(memo)
	}
}

// attachScheduler wires a (new or restored) scheduler into the loop.
func (e *Engine) attachScheduler(s *sched.Scheduler) {
	e.schd = s
	if e.schedTasks == nil {
		e.schedTasks = make(map[int]schedTask)
	}
	if e.schedOwned == nil {
		e.schedOwned = make(map[*machine.BETask]bool)
	}
	e.nodeStates = make([]sched.NodeState, len(e.nodes))
	e.progressFn = e.schedProgress // bound once: Tick gets no fresh closure
}

// schedProgress reports a job's consumed CPU-seconds: the live task's
// counter while it runs, the job's banked total otherwise.
func (e *Engine) schedProgress(j *sched.Job) float64 {
	if st, ok := e.schedTasks[j.ID]; ok {
		return st.task.CPUSec
	}
	return j.CPUSec
}

// lookupBE resolves a BE workload name via the config. Unknown names
// panic: scenario and job composition is programmer error, not runtime
// input.
func (e *Engine) lookupBE(name string) *workload.BE {
	if e.cfg.LookupBE != nil {
		if wl := e.cfg.LookupBE(name); wl != nil {
			return wl
		}
	}
	panic("engine: unknown BE workload " + name)
}

// initSLO builds fresh error-budget trackers once the epoch duration is
// known. Restore replaces their state from the checkpoint afterwards.
func (e *Engine) initSLO() {
	if e.cfg.SLO == nil {
		return
	}
	e.sloNodes = make([]*slo.Tracker, len(e.nodes))
	for i := range e.sloNodes {
		e.sloNodes[i] = slo.NewTracker(*e.cfg.SLO, e.epoch)
	}
	e.sloCluster = slo.NewTracker(*e.cfg.SLO, e.epoch)
}

// SLOEnabled reports whether the error-budget engine is attached.
func (e *Engine) SLOEnabled() bool { return e.sloCluster != nil }

// SLONodeStatus returns node i's error-budget snapshot (zero without
// Config.SLO).
func (e *Engine) SLONodeStatus(i int) slo.Status {
	if e.sloNodes == nil {
		return slo.Status{}
	}
	return e.sloNodes[i].Status()
}

// SLOClusterStatus returns the cluster-wide error-budget snapshot, whose
// violation bit is "any node violated this epoch" (zero without
// Config.SLO).
func (e *Engine) SLOClusterStatus() slo.Status {
	if e.sloCluster == nil {
		return slo.Status{}
	}
	return e.sloCluster.Status()
}

// Close does nothing: an engine holds no goroutines or other resources.
// It stays only because the frozen cmd/heraclesbench calls it (ROADMAP
// item 10).
func (e *Engine) Close() {}

// Nodes returns the node count.
func (e *Engine) Nodes() int { return len(e.nodes) }

// Machine returns node i's simulated machine. Mutate it only between
// Steps, from the stepping goroutine's context.
func (e *Engine) Machine(i int) *machine.Machine { return e.nodes[i].m }

// Controller returns node i's controller, or nil on baseline engines.
func (e *Engine) Controller(i int) *core.Controller { return e.nodes[i].ctl }

// SLO returns the calibrated root-level SLO (zero without a root).
func (e *Engine) SLO() time.Duration { return e.slo }

// Epoch returns the number of completed epochs.
func (e *Engine) Epoch() uint64 { return e.epochIdx }

// Now returns the simulated time at the start of the next epoch.
func (e *Engine) Now() time.Duration { return e.t }

// ScenarioName returns the active scenario's name ("" when none).
func (e *Engine) ScenarioName() string {
	if e.run == nil {
		return ""
	}
	return e.run.sc.Name
}

// SchedAccounting returns the job scheduler's policy name and lifetime
// accounting, or ("", nil) without a scheduler.
func (e *Engine) SchedAccounting() (string, *sched.Accounting) {
	if e.schd == nil {
		return "", nil
	}
	acct := e.schd.Accounting()
	return e.schd.Policy(), &acct
}

// InstallScenario starts driving the engine by the scenario from the
// next Step, replacing any active scenario. Events aimed at nodes
// outside the fleet panic, like unknown workload names: scenario
// composition is programmer (or pre-validated API) input.
func (e *Engine) InstallScenario(sc scenario.Scenario) {
	if err := sc.Validate(); err != nil {
		panic(err.Error())
	}
	for i, ev := range sc.Events {
		if ev.Leaf != scenario.AllLeaves && (ev.Leaf < 0 || ev.Leaf >= len(e.nodes)) {
			panic(fmt.Sprintf("engine: scenario event %d (%v) targets node %d of a %d-node engine",
				i, ev.Kind, ev.Leaf, len(e.nodes)))
		}
	}
	e.run = &runState{sc: sc, cursor: sc.Cursor(), t0: e.t, loadScale: 1}
}

// StartSchedBE starts a scheduler's job on node i, the one rule for both
// this engine's scheduler and the live control plane's fleet dispatcher:
// a dedicated BE task, enabled at once, on re-partitioned cores. The
// caller has checked that node i's controller allows BE execution. The
// task is scheduler-owned until StopSchedBE: scripted depart events and
// name-based removals leave it alone.
func (e *Engine) StartSchedBE(i int, wl *workload.BE) *machine.BETask {
	n := e.nodes[i]
	task := n.m.AddBE(wl, workload.PlaceDedicated)
	task.Enabled = true
	n.m.Partition(n.m.BECoreCount())
	if e.schedOwned == nil {
		e.schedOwned = make(map[*machine.BETask]bool)
	}
	e.schedOwned[task] = true
	return task
}

// StopSchedBE retires a task StartSchedBE started on node i: CompleteBE
// banks its CPU time as goodput, RemoveBE charges it as lost work, and
// the freed cores are re-partitioned back to the LC task.
func (e *Engine) StopSchedBE(i int, task *machine.BETask, completed bool) {
	n := e.nodes[i]
	if completed {
		n.m.CompleteBE(task)
	} else {
		n.m.RemoveBE(task)
	}
	n.m.Partition(n.m.BECoreCount())
	delete(e.schedOwned, task)
}

// OwnedBE reports whether any scheduler owns the task's lifecycle.
func (e *Engine) OwnedBE(task *machine.BETask) bool { return e.schedOwned[task] }

// AttachBE starts a best-effort task on node i, which must run a
// controller, as a be-arrive event does. The task inherits the controller's current enablement, so a task
// landing mid-emergency or mid-cooldown stays parked until the
// controller re-enables BE execution; the machine's own state covers the
// window before the controller's first enable, when construction-time BE
// tasks are running. The node's dedicated cores are re-partitioned.
func (e *Engine) AttachBE(i int, wl *workload.BE, pk workload.PlacementKind) {
	n := e.nodes[i]
	enabled := n.ctl.BEEnabled() || n.m.BEEnabled()
	task := n.m.AddBE(wl, pk)
	task.Enabled = enabled
	n.m.Partition(n.m.BECoreCount())
}

// DetachBE removes node i's best-effort tasks running the named workload,
// as a be-depart event does, and returns how many it removed. Tasks a
// scheduler owns (this engine's or an external one, see StartSchedBE) are left
// alone: their jobs end through the scheduler, never by workload name.
func (e *Engine) DetachBE(i int, name string) int {
	n := e.nodes[i]
	// Collect first: RemoveBE splices the live task list.
	var departing []*machine.BETask
	for _, be := range n.m.BEs() {
		if be.WL.Spec.Name == name && !e.OwnedBE(be) {
			departing = append(departing, be)
		}
	}
	for _, be := range departing {
		n.m.RemoveBE(be)
	}
	if len(departing) > 0 {
		n.m.Partition(n.m.BECoreCount())
	}
	return len(departing)
}

// NodeState builds the scheduler's view of one node from the previous
// epoch's telemetry and the controller's enablement — the "slack
// advertised upward" half of the feedback loop. Both the engine's own
// scheduler tick and the live control plane's fleet dispatcher read
// nodes through this.
func (e *Engine) NodeState(i int) sched.NodeState {
	n := e.nodes[i]
	if e.NodeDown(i) {
		// A crashed node advertises nothing: no BE admission, no slack.
		// Its running jobs were already force-evicted at crash time.
		return sched.NodeState{ID: i, MaxBECores: n.m.MaxBECores()}
	}
	tel := n.m.Last()
	slack := 0.0
	if slo := n.m.SLO(); slo > 0 && tel.Time > 0 {
		slack = (slo.Seconds() - tel.TailLatency.Seconds()) / slo.Seconds()
	}
	// Burn-rate admission (DESIGN.md §15): while this node's fast-burn
	// page fires, raise the admission hold so the scheduler places no new
	// best-effort work here until the error budget recovers. Jobs already
	// running stay under the controller's own enablement — the hold
	// throttles, it never evicts.
	hold := e.sloNodes != nil && e.cfg.SLO.Admission && e.sloNodes[i].Page()
	return sched.NodeState{
		ID:         i,
		BEAllowed:  n.ctl != nil && n.ctl.BEEnabled(),
		AdmitHold:  hold,
		Slack:      slack,
		EMU:        tel.EMU,
		Load:       n.m.Load(),
		MaxBECores: n.m.MaxBECores(),
	}
}

// pushSLO feeds one violation bit to a tracker and appends any alert
// edges it produced to the per-Step transition scratch. node -1 is the
// cluster-wide tracker.
func (e *Engine) pushSLO(tr *slo.Tracker, node int, bad bool, epoch uint64) {
	p0, t0 := tr.Page(), tr.Ticket()
	tr.Push(bad)
	if p := tr.Page(); p != p0 {
		e.sloTrans = append(e.sloTrans, slo.Transition{Epoch: int(epoch), Node: node, Alert: slo.AlertPage, Firing: p})
	}
	if tk := tr.Ticket(); tk != t0 {
		e.sloTrans = append(e.sloTrans, slo.Transition{Epoch: int(epoch), Node: node, Alert: slo.AlertTicket, Firing: tk})
	}
}

// Step resolves one epoch: faults, scenario events and the scheduler tick
// apply first, then the offered load, then every machine and controller
// step in node order, then the epoch statistics reduce in node order.
func (e *Engine) Step() EpochResult {
	t := e.t
	res := EpochResult{Epoch: e.epochIdx + 1, At: t, Tel: e.telBuf}
	phase := time.Now()

	// Faults resolve first in the sequential window: a crash firing this
	// epoch must evict its jobs before the scheduler tick observes the
	// node, and a blackout must blind the controller before it polls.
	res.FaultsApplied = e.stepFaults(t)

	load := math.NaN() // NaN = manual mode, leave each machine's load alone
	if e.run != nil {
		st := t - e.run.t0
		if st >= e.run.sc.Duration {
			res.ScenarioDone = e.run.sc.Name
			e.run = nil
		} else {
			for _, ev := range e.run.cursor.Due(st) {
				e.applyEvent(ev)
				res.EventsApplied++
			}
			load = e.run.sc.LoadAt(st) * e.run.loadScale
			if load > 1 {
				load = 1
			}
		}
	}

	now := time.Now()
	res.Spans.EventsNs = now.Sub(phase).Nanoseconds()
	phase = now

	// The scheduler ticks in the same sequential window as the events,
	// against the previous epoch's telemetry: the slack each controller
	// advertised is what steers placement.
	if e.schd != nil {
		for i := range e.nodes {
			e.nodeStates[i] = e.NodeState(i)
		}
		actions := e.schd.Tick(t, e.nodeStates, e.progressFn)
		for _, a := range actions {
			e.applySchedAction(a)
		}
	}

	now = time.Now()
	res.Spans.SchedNs = now.Sub(phase).Nanoseconds()
	phase = now

	// Nodes step one at a time: their machines share stage records, so a
	// leaf handed the epoch another has just solved copies the answer.
	for i := range e.nodes {
		e.stepNode(i, t, load)
	}

	now = time.Now()
	res.Spans.NodesNs = now.Sub(phase).Nanoseconds()
	phase = now

	if e.sloNodes != nil {
		e.sloTrans = e.sloTrans[:0]
	}
	var (
		emu   float64
		worst float64
		viol  int
		down  int
	)
	for i := range e.nodes {
		if e.nf != nil && e.nf[i].downUntil > t {
			// A dark node is the worst possible violation: count it as
			// one, and pin LeafWorst at least to "at the SLO".
			down++
			viol++
			if worst < 1 {
				worst = 1
			}
			if e.sloNodes != nil {
				e.pushSLO(e.sloNodes[i], i, true, res.Epoch)
			}
			continue
		}
		frac := e.telBuf[i].TailLatency.Seconds() / e.cfg.LC.SLO.Seconds()
		emu += e.telBuf[i].EMU
		if frac > worst {
			worst = frac
		}
		if frac > 1 {
			viol++
		}
		if e.sloNodes != nil {
			e.pushSLO(e.sloNodes[i], i, frac > 1, res.Epoch)
		}
	}
	if e.sloCluster != nil {
		e.pushSLO(e.sloCluster, -1, viol > 0, res.Epoch)
		if len(e.sloTrans) > 0 {
			res.SLOTransitions = e.sloTrans
		}
	}
	stat := EpochStat{
		At:         t,
		EMU:        emu / float64(len(e.nodes)),
		LeafWorst:  worst,
		Violations: viol,
		Down:       down,
	}
	if math.IsNaN(load) {
		stat.Load = e.nodes[0].m.Load()
	} else {
		stat.Load = load
	}
	if e.cfg.RootSamples > 0 {
		mean := e.root.Mean(e.leafTail)
		stat.RootMean = mean
		stat.RootFrac = mean.Seconds() / e.slo.Seconds()
		e.adjustTargets(t, mean)
	}
	if e.schd != nil {
		stat.SchedQueue = e.schd.QueueDepth()
		stat.SchedRunning = e.schd.Running()
	}
	res.Stat = stat
	res.Spans.ReduceNs = time.Since(phase).Nanoseconds()

	e.epochIdx++
	e.t += e.epoch
	return res
}

// stepNode advances node i one epoch starting at t, at the offered load
// (NaN leaves the machine's own), filling its reduction slots.
func (e *Engine) stepNode(i int, t time.Duration, load float64) {
	n := e.nodes[i]
	if e.nf != nil && e.nf[i].downUntil > t {
		// The node is dark: its wall clock still advances, but it
		// serves nothing and reports nothing. Requests routed to it
		// fail upward — the reduction books it as a violation.
		n.m.Clock().Advance(e.epoch)
		e.telBuf[i] = machine.Telemetry{}
		e.leafTail[i] = lat.EpochStats{}
		return
	}
	if !math.IsNaN(load) {
		n.m.SetLoad(load)
	}
	tel := n.m.Step()
	if n.ctl != nil {
		n.ctl.Step(n.m.Clock().Now())
	}
	e.telBuf[i] = tel
	e.leafTail[i] = tel.Lat
}

// adjustTargets is the centralized root controller (§5.3 future work):
// convert root-level slack into looser per-node targets, and tighten
// quickly when the root approaches its SLO.
func (e *Engine) adjustTargets(t time.Duration, mean time.Duration) {
	if !e.cfg.DynamicTargets || !e.cfg.Heracles {
		return
	}
	if e.rootEWMA == 0 {
		e.rootEWMA = mean.Seconds()
	} else {
		e.rootEWMA = 0.2*mean.Seconds() + 0.8*e.rootEWMA
	}
	if t-e.lastAdjust < e.cfg.AdjustPeriod {
		return
	}
	e.lastAdjust = t
	rootSlack := (e.slo.Seconds() - e.rootEWMA) / e.slo.Seconds()
	switch {
	case rootSlack < 0.05:
		e.leafScale -= 0.05
	case rootSlack > 0.15:
		e.leafScale += 0.02
	}
	if e.leafScale < 0.5 {
		e.leafScale = 0.5
	}
	if e.leafScale > 0.90 {
		e.leafScale = 0.90
	}
	for _, n := range e.nodes {
		n.m.SetSLOScale(e.leafScale)
	}
}

// applyEvent applies one scenario event to the targeted nodes. BE churn
// applies only to controller-managed nodes: the baseline configuration
// models no colocation, so arrivals have nowhere to run. Scheduler-owned
// tasks are off-limits to scripted departures (DetachBE) — a scheduler is
// the sole owner of its jobs' lifecycle, otherwise a depart event would
// freeze a job's progress forever while the scheduler still believes it
// is running.
func (e *Engine) applyEvent(ev scenario.Event) {
	for i, n := range e.nodes {
		if ev.Leaf != scenario.AllLeaves && ev.Leaf != i {
			continue
		}
		switch ev.Kind {
		case scenario.EventBEArrive:
			if n.ctl != nil {
				e.AttachBE(i, e.lookupBE(ev.Workload), workload.PlaceDedicated)
			}
		case scenario.EventBEDepart:
			if n.ctl != nil {
				e.DetachBE(i, ev.Workload)
			}
		case scenario.EventLeafDegrade:
			n.m.SetDegrade(ev.Factor)
		case scenario.EventSLOScale:
			n.m.SetSLOScale(ev.Factor)
		}
	}
	switch ev.Kind {
	case scenario.EventLoadScale:
		if e.run != nil {
			e.run.loadScale = ev.Factor
		}
	case scenario.EventSLOScale:
		if ev.Leaf == scenario.AllLeaves {
			e.leafScale = ev.Factor
		}
	}
}

// applySchedAction executes one scheduler instruction on the fleet:
// dispatch starts the job's task, the stop kinds retire it (StartSchedBE,
// StopSchedBE).
func (e *Engine) applySchedAction(a sched.Action) {
	switch a.Kind {
	case sched.ActionDispatch:
		// The scheduler filters eligibility before placement, so a
		// dispatch onto a BE-disabled node is a scheduler bug, not a
		// runtime condition: fail loudly (the invariant the tests pin).
		if ctl := e.nodes[a.Node].ctl; ctl == nil || !ctl.BEEnabled() {
			panic(fmt.Sprintf("engine: scheduler dispatched job %d to node %d whose controller has BE disabled", a.Job, a.Node))
		}
		task := e.StartSchedBE(a.Node, e.lookupBE(a.Workload))
		e.schedTasks[a.Job] = schedTask{node: a.Node, task: task}
	case sched.ActionEvict, sched.ActionFail, sched.ActionComplete:
		st, ok := e.schedTasks[a.Job]
		if !ok {
			return
		}
		e.StopSchedBE(a.Node, st.task, a.Kind == sched.ActionComplete)
		delete(e.schedTasks, a.Job)
	}
}

// rootLatencyAt computes the baseline root mean latency at the given load.
func rootLatencyAt(cfg Config, load float64) time.Duration {
	m := machine.New(cfg.HW)
	m.SetLC(cfg.LC)
	m.SetLoad(load)
	var tel machine.Telemetry
	for i := 0; i < 8; i++ {
		tel = m.Step()
	}
	return new(RootSampler).Mean(slices.Repeat([]lat.EpochStats{tel.Lat}, cfg.Nodes))
}
