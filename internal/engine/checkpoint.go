package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"heracles/internal/core"
	"heracles/internal/fault"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/slo"
	"heracles/internal/workload"
)

// CheckpointVersion is the current checkpoint format version. Restore
// rejects other versions; bump it on any incompatible change to the
// layout (and document the change in DESIGN.md §11). Version 2 replaced
// each machine's "recent" ring of full telemetry records with "last" (one
// record) and "window" (the poll history as time/tail pairs).
const CheckpointVersion = 2

// Checkpoint is the engine's complete serializable state: machines,
// controllers, scheduler, scenario cursor position, the epoch index that
// roots the per-epoch RNG streams, and the dynamic-target latches.
// Restoring it (with the same Config and scenario value) continues the
// run bit-identically to one that was never interrupted.
//
// The scenario itself does not travel in the checkpoint — load shapes
// are arbitrary code — only its name and cursor position do; the caller
// re-supplies the scenario on Restore (the live control plane persists
// its JSON ScenarioSpec alongside for exactly this purpose).
type Checkpoint struct {
	Version int `json:"version"`

	Epoch uint64        `json:"epoch"`
	Now   time.Duration `json:"now_ns"`
	SLO   time.Duration `json:"slo_ns,omitempty"`

	LeafScale  float64       `json:"leaf_scale,omitempty"`
	LastAdjust time.Duration `json:"last_adjust_ns,omitempty"`
	RootEWMA   float64       `json:"root_ewma,omitempty"`

	Scenario *ScenarioState `json:"scenario,omitempty"`

	Machines    []machine.Snapshot      `json:"machines"`
	Controllers []*core.ControllerState `json:"controllers,omitempty"`

	Sched         *sched.State   `json:"sched,omitempty"`
	SchedBindings []SchedBinding `json:"sched_bindings,omitempty"`

	// Faults carries the fault schedule with its cursor and the open
	// per-node fault windows. Omitted entirely on fault-free engines, so
	// pre-fault checkpoints restore unchanged.
	Faults *FaultState `json:"faults,omitempty"`

	// Budget carries the error-budget engine's trackers (DESIGN.md §15).
	// Omitted when Config.SLO is nil, so older checkpoints restore
	// unchanged and an SLO-enabled engine restoring one simply starts
	// its windows empty.
	Budget *SLOState `json:"slo_budget,omitempty"`
}

// SLOState is the serialized error-budget engine: one burn-rate tracker
// per node plus the cluster-wide tracker.
type SLOState struct {
	Nodes   []slo.TrackerState `json:"nodes"`
	Cluster slo.TrackerState   `json:"cluster"`
}

// FaultState is the engine's serialized fault-injection state.
type FaultState struct {
	Schedule []fault.Fault    `json:"schedule,omitempty"`
	Next     int              `json:"next"`
	Applied  int              `json:"applied"`
	Pending  []fault.Fault    `json:"pending,omitempty"`
	Nodes    []NodeFaultState `json:"nodes,omitempty"`
}

// NodeFaultState is one node's open fault windows (absolute deadlines in
// simulated time; zero = closed).
type NodeFaultState struct {
	DownUntil     time.Duration `json:"down_until_ns,omitempty"`
	BlackoutUntil time.Duration `json:"blackout_until_ns,omitempty"`
	ActFailUntil  time.Duration `json:"act_fail_until_ns,omitempty"`
	SlowUntil     time.Duration `json:"slow_until_ns,omitempty"`
}

// ScenarioState is the active scenario's cursor position.
type ScenarioState struct {
	Name      string        `json:"name,omitempty"`
	T0        time.Duration `json:"t0_ns"`
	Delivered int           `json:"delivered"`
	LoadScale float64       `json:"load_scale"`
}

// SchedBinding reconnects one running job to its live BE task: Task is
// the index into the node machine's BE list at snapshot time.
type SchedBinding struct {
	Job  int `json:"job"`
	Node int `json:"node"`
	Task int `json:"task"`
}

// Snapshot serializes the engine's state. Call it between Steps (from
// the stepping goroutine's context); every buffer is deep-copied, so the
// checkpoint stays valid while the engine continues.
//
// Tasks owned by an external scheduler (OwnBE) are captured as plain
// machine state — their owning scheduler lives outside the engine, so a
// restored engine does not re-mark them; the external scheduler re-
// establishes ownership when it re-dispatches.
func (e *Engine) Snapshot() *Checkpoint {
	cp := &Checkpoint{
		Version:    CheckpointVersion,
		Epoch:      e.epochIdx,
		Now:        e.t,
		SLO:        e.slo,
		LeafScale:  e.leafScale,
		LastAdjust: e.lastAdjust,
		RootEWMA:   e.rootEWMA,
	}
	if e.run != nil {
		cp.Scenario = &ScenarioState{
			Name:      e.run.sc.Name,
			T0:        e.run.t0,
			Delivered: e.run.cursor.Delivered(),
			LoadScale: e.run.loadScale,
		}
	}
	cp.Machines = make([]machine.Snapshot, len(e.nodes))
	hasCtl := false
	for i, n := range e.nodes {
		cp.Machines[i] = n.m.Snapshot()
		if n.ctl != nil {
			hasCtl = true
		}
	}
	if hasCtl {
		cp.Controllers = make([]*core.ControllerState, len(e.nodes))
		for i, n := range e.nodes {
			if n.ctl != nil {
				st := n.ctl.Snapshot()
				cp.Controllers[i] = &st
			}
		}
	}
	if e.schd != nil {
		st := e.schd.Snapshot()
		cp.Sched = &st
		jobs := make([]int, 0, len(e.schedTasks))
		for id := range e.schedTasks {
			jobs = append(jobs, id)
		}
		sort.Ints(jobs)
		for _, id := range jobs {
			st := e.schedTasks[id]
			idx := -1
			for ti, be := range e.nodes[st.node].m.BEs() {
				if be == st.task {
					idx = ti
					break
				}
			}
			if idx < 0 {
				continue // task already retired; the scheduler will notice
			}
			cp.SchedBindings = append(cp.SchedBindings, SchedBinding{Job: id, Node: st.node, Task: idx})
		}
	}
	if len(e.faults) > 0 || e.faultCount > 0 || len(e.pendingFaults) > 0 || e.nf != nil {
		fs := &FaultState{
			Next:    e.faultNext,
			Applied: e.faultCount,
		}
		fs.Schedule = append([]fault.Fault(nil), e.faults...)
		fs.Pending = append([]fault.Fault(nil), e.pendingFaults...)
		if e.nf != nil {
			fs.Nodes = make([]NodeFaultState, len(e.nf))
			for i, nf := range e.nf {
				fs.Nodes[i] = NodeFaultState{
					DownUntil:     nf.downUntil,
					BlackoutUntil: nf.blackoutUntil,
					ActFailUntil:  nf.actFailUntil,
					SlowUntil:     nf.slowUntil,
				}
			}
		}
		cp.Faults = fs
	}
	if e.sloNodes != nil {
		bs := &SLOState{Cluster: e.sloCluster.State()}
		bs.Nodes = make([]slo.TrackerState, len(e.sloNodes))
		for i, tr := range e.sloNodes {
			bs.Nodes[i] = tr.State()
		}
		cp.Budget = bs
	}
	return cp
}

// Restore rebuilds an engine from a checkpoint. cfg must describe the
// same fleet the checkpoint was taken from (node count, hardware,
// workloads, scheduler policy); cfg.InitialBEs and cfg.Load are ignored
// — machine state comes from the checkpoint. sc re-supplies the active
// scenario when the checkpoint recorded one (matched by name); pass nil
// when none was active.
func Restore(cfg Config, cp *Checkpoint, sc *scenario.Scenario) (*Engine, error) {
	if cp == nil {
		return nil, fmt.Errorf("engine: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("engine: checkpoint version %d, this build reads version %d", cp.Version, CheckpointVersion)
	}
	if len(cp.Machines) == 0 {
		return nil, fmt.Errorf("engine: checkpoint has no machines")
	}
	cfg.Nodes = len(cp.Machines)
	e := newEngine(&cfg, false)

	// Rebuild every node from its snapshot. The LC workload is resolved
	// against cfg.LC (by name — a checkpoint for a different workload is
	// an error, not a silent mismatch); BE names resolve through the
	// usual catalogue.
	lcByName := func(name string) *workload.LC {
		if cfg.LC != nil && cfg.LC.Spec.Name == name {
			return cfg.LC
		}
		return nil
	}
	beByName := func(name string) *workload.BE {
		if cfg.LookupBE == nil {
			return nil
		}
		return cfg.LookupBE(name)
	}
	for i := range cp.Machines {
		if cp.Machines[i].HW != cfg.HW {
			return nil, fmt.Errorf("engine: checkpoint machine %d hardware differs from Config.HW", i)
		}
		m, err := machine.RestoreMachine(cp.Machines[i], lcByName, beByName)
		if err != nil {
			return nil, err
		}
		n := buildNode(m, &cfg)
		if i < len(cp.Controllers) && cp.Controllers[i] != nil {
			if n.ctl == nil {
				return nil, fmt.Errorf("engine: checkpoint node %d has controller state but Config.Heracles is false", i)
			}
			n.ctl.Restore(*cp.Controllers[i])
		} else if n.ctl != nil {
			return nil, fmt.Errorf("engine: Config.Heracles is true but checkpoint node %d has no controller state", i)
		}
		e.nodes[i] = n
	}

	e.epoch = e.nodes[0].m.Epoch()
	e.epochIdx = cp.Epoch
	e.t = cp.Now
	e.slo = cp.SLO
	e.leafScale = cp.LeafScale
	e.lastAdjust = cp.LastAdjust
	e.rootEWMA = cp.RootEWMA
	e.initSLO()
	if cp.Budget != nil {
		if cfg.SLO == nil {
			return nil, fmt.Errorf("engine: checkpoint has SLO budget state but Config.SLO is nil")
		}
		if len(cp.Budget.Nodes) != len(e.nodes) {
			return nil, fmt.Errorf("engine: checkpoint SLO state covers %d nodes of a %d-node fleet", len(cp.Budget.Nodes), len(e.nodes))
		}
		for i, st := range cp.Budget.Nodes {
			tr, err := slo.RestoreTracker(*cfg.SLO, e.epoch, st)
			if err != nil {
				return nil, fmt.Errorf("engine: node %d: %w", i, err)
			}
			e.sloNodes[i] = tr
		}
		tr, err := slo.RestoreTracker(*cfg.SLO, e.epoch, cp.Budget.Cluster)
		if err != nil {
			return nil, err
		}
		e.sloCluster = tr
	}

	if cp.Scenario != nil {
		if sc == nil {
			return nil, fmt.Errorf("engine: checkpoint has active scenario %q but none was supplied to Restore", cp.Scenario.Name)
		}
		if sc.Name != cp.Scenario.Name {
			return nil, fmt.Errorf("engine: checkpoint scenario %q does not match supplied scenario %q", cp.Scenario.Name, sc.Name)
		}
		cursor := sc.Cursor()
		cursor.Skip(cp.Scenario.Delivered)
		e.run = &runState{sc: *sc, cursor: cursor, t0: cp.Scenario.T0, loadScale: cp.Scenario.LoadScale}
	}

	if cp.Sched != nil {
		s, err := sched.RestoreScheduler(*cp.Sched)
		if err != nil {
			return nil, err
		}
		e.attachScheduler(s)
		for _, b := range cp.SchedBindings {
			if b.Node < 0 || b.Node >= len(e.nodes) {
				return nil, fmt.Errorf("engine: sched binding for job %d names node %d of %d", b.Job, b.Node, len(e.nodes))
			}
			bes := e.nodes[b.Node].m.BEs()
			if b.Task < 0 || b.Task >= len(bes) {
				return nil, fmt.Errorf("engine: sched binding for job %d names BE task %d of %d on node %d", b.Job, b.Task, len(bes), b.Node)
			}
			task := bes[b.Task]
			e.schedTasks[b.Job] = schedTask{node: b.Node, task: task}
			e.schedOwned[task] = b.Job
		}
	}

	if cp.Faults != nil {
		fs := cp.Faults
		if fs.Next < 0 || fs.Next > len(fs.Schedule) {
			return nil, fmt.Errorf("engine: checkpoint fault cursor %d outside its %d-entry schedule", fs.Next, len(fs.Schedule))
		}
		e.faults = append([]fault.Fault(nil), fs.Schedule...)
		e.faultNext = fs.Next
		e.faultCount = fs.Applied
		e.pendingFaults = append([]fault.Fault(nil), fs.Pending...)
		if len(fs.Nodes) > 0 {
			if len(fs.Nodes) != len(e.nodes) {
				return nil, fmt.Errorf("engine: checkpoint fault state covers %d nodes of a %d-node fleet", len(fs.Nodes), len(e.nodes))
			}
			e.nf = make([]nodeFault, len(e.nodes))
			for i, ns := range fs.Nodes {
				e.nf[i] = nodeFault{
					downUntil:     ns.DownUntil,
					blackoutUntil: ns.BlackoutUntil,
					actFailUntil:  ns.ActFailUntil,
					slowUntil:     ns.SlowUntil,
				}
				// Re-arm the interposition flags for windows still open at
				// the restore point; SlowMachine needs nothing here (the
				// degrade factor travels in the machine snapshot).
				if fe := e.nodes[i].fenv; fe != nil {
					fe.SetBlackout(ns.BlackoutUntil > e.t)
					fe.SetActuationFail(ns.ActFailUntil > e.t)
				}
			}
		}
	}
	return e, nil
}

// Encode writes the checkpoint as indented JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cp)
}

// DecodeCheckpoint reads a JSON checkpoint.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("engine: decoding checkpoint: %w", err)
	}
	return &cp, nil
}

// WriteFile atomically persists the checkpoint (write-then-rename, so a
// crash mid-write never corrupts an existing checkpoint).
func (cp *Checkpoint) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := cp.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a checkpoint persisted with WriteFile.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
