package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/slo"
	"heracles/internal/workload"
)

// ErrStopped is returned by mutation calls against an instance that has
// been stopped (deleted instance or server shutdown).
var ErrStopped = errors.New("serve: instance stopped")

// Instance states reported in Status.State.
const (
	StateRunning = "running"
	StateDone    = "done"
	// StateCrashed: the driver panicked; the supervisor is restarting it
	// from the last checkpoint.
	StateCrashed = "crashed"
	// StateQuarantined: the supervisor's circuit breaker opened after
	// repeated crashes; the instance is inspectable but frozen.
	StateQuarantined = "quarantined"
)

// SpeedMax requests free-running simulation: the scheduler advances
// epochs as fast as the machine model resolves them, with no wall-clock
// pacing.
const SpeedMax = -1

// BEAttachment names one best-effort task to run on an instance.
type BEAttachment struct {
	Workload string `json:"workload"`
	// Placement is "dedicated" (default), "ht-sibling" or "os-shared".
	Placement string `json:"placement,omitempty"`
}

// InstanceSpec configures a new live instance. The zero value of each
// field selects the documented default, so a minimal create request is
// just `{}`.
type InstanceSpec struct {
	Name string `json:"name,omitempty"` // display name; ids are assigned
	// LC is the latency-critical workload name (default "websearch").
	LC string `json:"lc,omitempty"`
	// BEs are the best-effort tasks installed at creation.
	BEs []BEAttachment `json:"bes,omitempty"`
	// Load is the initial offered LC load as a fraction of peak QPS.
	Load float64 `json:"load,omitempty"`
	// SLOScale tightens (< 1) or relaxes the controller-visible latency
	// target; 0 leaves the workload SLO unscaled.
	SLOScale float64 `json:"slo_scale,omitempty"`
	// Speed is the tick rate in simulated seconds per wall-clock second:
	// 1 is real time, 60 compresses a minute into a second, SpeedMax (-1)
	// free-runs. 0 selects the server default (or, when restoring from a
	// checkpoint, the checkpointed instance's speed).
	Speed float64 `json:"speed,omitempty"`
	// MaxEpochs stops the simulation after that many epochs (the
	// instance stays inspectable until deleted); 0 runs until deleted.
	MaxEpochs int `json:"max_epochs,omitempty"`
	// Compact places the instance on the single-socket efficiency
	// hardware generation instead of the reference dual-socket server.
	Compact bool `json:"compact,omitempty"`
	// Scenario, when set, drives the instance declaratively from epoch 0.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`

	// Restore rebuilds the instance from a checkpoint taken with
	// POST /api/v1/instances/{id}/checkpoint: the simulation (machine,
	// controller, scenario position) continues bit-identically from the
	// snapshot, which is how instances pause/resume and migrate between
	// registries. LC, BEs, Load, SLOScale and Scenario must be unset —
	// that state comes from the checkpoint; Name, Speed and MaxEpochs
	// may override the checkpointed values. A checkpoint of a paced,
	// running instance also carries its place in the tick schedule, which
	// the restored instance continues (at the overriding Speed, if any);
	// such a checkpoint cannot be restored free-running.
	Restore *InstanceCheckpoint `json:"restore,omitempty"`

	// EpochHook, when set, runs in the driver worker after every
	// resolved epoch — the embedding daemon uses it to mirror actuations
	// into kernel-format files. The slices inside tel are the machine's
	// own, refilled by the next epoch: copy what must outlive the call. An
	// instance with a hook always ticks every epoch (the cadence policy
	// never stretches it). Not part of the JSON API.
	EpochHook func(m *machine.Machine, tel machine.Telemetry) `json:"-"`
	// Trace, when set, receives every controller decision synchronously
	// (in addition to the SSE hub). Not part of the JSON API.
	Trace func(core.Event) `json:"-"`

	// wire is the HRCF encoding a shard migration decoded Restore from,
	// its last wireEng bytes the engine payload: the restart point.
	wire    []byte
	wireEng int
}

// EpochUpdate is the per-epoch telemetry summary published on the event
// stream and embedded in Status.Last. Latencies travel in milliseconds,
// utilisations as fractions of 1.
type EpochUpdate struct {
	Instance     string  `json:"instance"`
	Epoch        uint64  `json:"epoch"`
	SimSeconds   float64 `json:"sim_seconds"`
	Load         float64 `json:"load"`
	TailMs       float64 `json:"tail_ms"`
	P95Ms        float64 `json:"p95_ms"`
	SLOMs        float64 `json:"slo_ms"`
	Slack        float64 `json:"slack"`
	EMU          float64 `json:"emu"`
	BEEnabled    bool    `json:"be_enabled"`
	BECores      int     `json:"be_cores"`
	BEWays       int     `json:"be_ways"`
	BEFreqCapGHz float64 `json:"be_freq_cap_ghz,omitempty"`
	// BEAllowed is the controller's verdict (distinct from BEEnabled,
	// which is task-level and false on a machine with no BE tasks): the
	// capacity advertisement the fleet scheduler keys dispatch on.
	BEAllowed bool `json:"be_allowed"`
	// Cumulative CPU time of retired BE tasks, split by disposition
	// (completed jobs vs evicted/departed work) — the machine-side
	// source of truth for goodput accounting.
	BEGoodCPUSec float64 `json:"be_good_cpu_s"`
	BELostCPUSec float64 `json:"be_lost_cpu_s"`
	DRAMUtil     float64 `json:"dram_util"`
	PowerFracTDP float64 `json:"power_frac_tdp"`
	LinkUtil     float64 `json:"link_util"`
}

// ControllerUpdate is one controller decision published on the event
// stream.
type ControllerUpdate struct {
	Instance  string  `json:"instance"`
	AtSeconds float64 `json:"at_seconds"`
	Loop      string  `json:"loop"`
	Action    string  `json:"action"`
	Detail    string  `json:"detail,omitempty"`
}

// LifecycleUpdate marks an instance state transition on the event stream:
// "scenario" (installed), "scenario-done", "restored" (restarted from
// a checkpoint after a crash), "done" (MaxEpochs
// reached), "crashed" (driver panic), "quarantined" (circuit breaker
// opened) or "deleted".
type LifecycleUpdate struct {
	Instance string `json:"instance"`
	State    string `json:"state"`
	Detail   string `json:"detail,omitempty"`
}

// SLOUpdate is the payload of the "slo" SSE event, published whenever an
// alert fires or resolves: the edges of this epoch plus the tracker's
// status after them. Alert edges are pure functions of the violation
// history, so the event sequence is bit-identical across repeats,
// migrations and checkpoint/restore.
type SLOUpdate struct {
	Instance    string           `json:"instance"`
	Epoch       uint64           `json:"epoch"`
	Transitions []slo.Transition `json:"transitions"`
	Status      slo.Status       `json:"status"`
}

// SpanRecord is one epoch's phase timing breakdown, kept in a bounded
// per-instance ring served at GET /api/v1/instances/{id}/trace. All
// fields are wall-clock nanoseconds — operational telemetry outside the
// deterministic simulation state, never checkpointed.
type SpanRecord struct {
	Epoch      uint64  `json:"epoch"`
	SimSeconds float64 `json:"sim_seconds"`
	EventsNs   int64   `json:"events_ns"`
	SchedNs    int64   `json:"sched_ns"`
	NodesNs    int64   `json:"nodes_ns"`
	ReduceNs   int64   `json:"reduce_ns"`
	HookNs     int64   `json:"hook_ns,omitempty"`
	PublishNs  int64   `json:"publish_ns,omitempty"`
}

// traceRingCap bounds the span ring: the newest records win. 128 epochs
// of history costs 4KB, allocated at the first stepped epoch, so parked
// instances pay nothing.
const traceRingCap = 128

// spanSlot is a SpanRecord as the ring keeps it, in 32 bytes: the phases
// in nanoseconds saturating at math.MaxUint32 (~4.29 s), and no
// sim_seconds, which TraceSpans derives from the epoch.
type spanSlot struct {
	epoch                                       uint64
	events, sched, nodes, reduce, hook, publish uint32
}

// spanNs narrows a phase duration to a slot field, saturating.
func spanNs(ns int64) uint32 { return uint32(min(max(ns, 0), math.MaxUint32)) }

// ActionCount aggregates the controller decisions of one (loop, action)
// pair.
type ActionCount struct {
	Loop   string `json:"loop"`
	Action string `json:"action"`
	Count  int64  `json:"count"`
}

// countAction adds one decision to the (loop, action) count, keeping
// Actions sorted by loop, then action.
func (s *Status) countAction(loop, action string) {
	a := ActionCount{Loop: loop, Action: action}
	k, found := slices.BinarySearchFunc(s.Actions, a, func(x, y ActionCount) int {
		return cmp.Or(strings.Compare(x.Loop, y.Loop), strings.Compare(x.Action, y.Action))
	})
	if !found {
		s.Actions = slices.Insert(s.Actions, k, a)
	}
	s.Actions[k].Count++
}

// Status is a point-in-time snapshot of one instance, safe to read while
// the simulation advances.
type Status struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Shard is the instance's placement label, fixed at construction
	// (migration restores into a fresh instance on the target shard).
	Shard         int           `json:"shard"`
	LC            string        `json:"lc"`
	BEs           []string      `json:"bes"`
	Compact       bool          `json:"compact,omitempty"`
	State         string        `json:"state"`
	Speed         float64       `json:"speed"`
	Scenario      string        `json:"scenario,omitempty"`
	Epoch         uint64        `json:"epoch"`
	MaxEpochs     int           `json:"max_epochs,omitempty"`
	Last          EpochUpdate   `json:"last"`
	Actions       []ActionCount `json:"actions,omitempty"`
	DroppedEvents int64         `json:"dropped_events"`

	// SLO is the instance's error-budget snapshot: burn rates per
	// window, budget spent and the alert latches (DESIGN.md §15).
	SLO slo.Status `json:"slo"`

	// Supervisor health summary (see HealthStatus for the full view).
	Health         string `json:"health"`
	Crashes        int    `json:"crashes,omitempty"`
	Restarts       int    `json:"restarts,omitempty"`
	FaultsInjected int64  `json:"faults_injected,omitempty"`
}

// Instance is one live simulated machine with its Heracles controller,
// advanced by the registry's epoch scheduler (DESIGN.md §13): a
// worker pops the instance when its next epoch is due and steps an
// engine.Engine — the same canonical epoch loop the batch cluster runs
// drive — under stepMu, the instance's mailbox lock. All machine and
// controller mutation happens under stepMu (HTTP handlers run closures
// inline through Do), between engine Steps, so the live simulation is
// bit-identical to a batch run by construction. An instance owns no
// goroutine and no timer: parked states (done, quarantined, mid-backoff)
// cost at most one heap entry.
type Instance struct {
	id      string
	name    string
	lcName  string
	compact bool
	lab     *experiment.Lab

	eng *engine.Engine
	m   *machine.Machine
	ctl *core.Controller
	hub *Hub

	speed     float64
	maxEpochs uint64
	epochHook func(*machine.Machine, machine.Telemetry)

	pool   *epochScheduler // the registry's epoch scheduler
	entry  *poolEntry      // this instance's single heap entry (step, restart)
	shard  int             // placement label, fixed at construction
	placed uint64          // its rank in the registry's creation order, set by Put before it is listed

	donec    chan struct{} // closed once Stop completes
	parked   chan struct{} // closed once the status first reads done
	stopOnce sync.Once
	parkOnce sync.Once

	// Supervision wiring, fixed at construction.
	sup     supervisorConfig
	supSeed uint64
	trace   func(core.Event) // re-attached to the fresh controller on restart

	// stepMu is the mailbox: it serialises scheduler slices, Do closures
	// and Stop against the engine. Go's starvation-mode mutex handoff
	// keeps Do callers fair against a free-runner's batched slices.
	stepMu  sync.Mutex
	stopped bool // stepMu-guarded; terminal

	// stepMu-guarded driver state.
	doneRunning  bool
	scenarioSpec *ScenarioSpec // JSON form of the active scenario, for checkpoints
	panicNext    bool          // armed by the driver-panic fault
	// lastCP is the supervisor's restart checkpoint in binary-envelope
	// form: flat bytes instead of a retained object graph, so parked
	// instances anchor one buffer each in the heap, and the buffer is
	// reused across refreshes; its last lastEng bytes are the engine
	// payload. stateGen counts stepped epochs and Do calls, cpGen its
	// value when lastCP was made.
	lastCP             []byte
	lastEng            int
	stateGen, cpGen    uint64
	epochsSinceRestart int
	cad                cadence // the tick schedule
	recentFault        bool    // a fault applied in the last slice tightens cadence

	// status is the mu-guarded snapshot; the supervisor keeps its health
	// counters in it, the controller its action counts (sorted).
	mu     sync.Mutex
	status Status
	gen    uint64        // counts status writes: each writer ends with notifyLocked
	rows   *instanceRows // the last scrape's (metrics.go), under the server's scrape lock
	// spans is the bounded epoch span-timing ring (mu-guarded): made at
	// traceRingCap by the first record, filled, then overwritten
	// oldest-first at spanHead. The machine clock moves by one epoch
	// length per engine epoch, so an epoch's simulated time is spanBase +
	// epoch × spanEpoch, both set by mirrorEngineLocked.
	spans     []spanSlot
	spanHead  int
	spanBase  time.Duration
	spanEpoch time.Duration
	// notec is the observable-change notification: made when a waiter
	// asks, closed at the next change of status or health, so tests wait
	// on events instead of sleep-polling.
	notec chan struct{}

	// Supervisor state beyond status's health counters, mu-guarded.
	// pendingRestart marks a scheduled restart slice. The crash gate is
	// status.State: crashed or quarantined until the restart rebuilds
	// the engine.
	pendingRestart bool
	consec         int
	lastErr        string
	lastCrashEpoch uint64
}

// engineConfig is the single-node engine configuration every instance
// (fresh or restored) runs on.
func engineConfig(lab *experiment.Lab, lcName string) engine.Config {
	return engine.Config{
		Nodes:    1,
		HW:       lab.Cfg,
		LC:       lab.LC(lcName),
		Heracles: true,
		Model:    lab.DRAMModel(lcName),
		LookupBE: lab.BE,
		// Every live instance carries the error-budget tracker
		// (DESIGN.md §15), and its firing fast-burn page throttles fleet
		// dispatch onto the instance via the AdmitHold advertisement. The
		// tracker state travels in checkpoints, so burn rates and alert
		// latches survive restore and migration bit-identically.
		SLO: &slo.Config{Admission: true},
	}
}

// newInstance builds an instance on shard and schedules its first slice
// on pool, the registry's epoch scheduler. The caller has validated the
// spec (workload names, placement names, numeric ranges, checkpoint
// contents) and resolved the lab for the requested hardware generation;
// speed is the resolved tick rate (SpeedMax for free-running), sup the
// crash-supervision tunables.
func newInstance(id string, shard int, spec InstanceSpec, lab *experiment.Lab, speed float64, sup supervisorConfig, pool *epochScheduler) (*Instance, error) {
	lcName := spec.LC
	if lcName == "" {
		lcName = "websearch"
	}
	maxEpochs := spec.MaxEpochs
	name := spec.Name
	compact := spec.Compact
	if cp := spec.Restore; cp != nil {
		lcName = cp.LC
		compact = cp.Compact
		if name == "" {
			name = cp.Name
		}
		if maxEpochs == 0 {
			maxEpochs = cp.MaxEpochs
		}
	}
	// The supervisor's RNG seed is the id's FNV-1a hash: restart jitter
	// is deterministic per instance but uncorrelated across the fleet.
	seed := fnv.New64a()
	seed.Write([]byte(id))
	i := &Instance{
		id:        id,
		name:      name,
		lcName:    lcName,
		compact:   compact,
		lab:       lab,
		hub:       NewHub(),
		speed:     speed,
		maxEpochs: uint64(max(maxEpochs, 0)),
		epochHook: spec.EpochHook,
		pool:      pool,
		shard:     shard,
		donec:     make(chan struct{}),
		parked:    make(chan struct{}),

		sup:     sup.withDefaults(),
		supSeed: seed.Sum64(),
		trace:   spec.Trace,
	}
	i.entry = pool.newEntry(i)

	if cp := spec.Restore; cp != nil {
		if err := i.adopt(cp); err != nil {
			return nil, err
		}
	} else {
		cfg := engineConfig(lab, lcName)
		cfg.Load = spec.Load
		cfg.SLOScale = spec.SLOScale
		if len(spec.BEs) > 0 {
			atts := make([]engine.BEAttach, 0, len(spec.BEs))
			for _, att := range spec.BEs {
				pk, err := placementByName(att.Placement)
				if err != nil {
					return nil, err
				}
				atts = append(atts, engine.BEAttach{WL: lab.BE(att.Workload), Placement: pk})
			}
			cfg.InitialBEs = func(int) []engine.BEAttach { return atts }
		}
		i.bind(engine.New(cfg))
	}

	i.cad = newCadence(speed, i.m.Epoch())

	i.status = Status{
		ID:        id,
		Name:      name,
		Shard:     shard,
		LC:        lcName,
		Compact:   compact,
		Speed:     speed,
		MaxEpochs: maxEpochs,
		Health:    HealthHealthy,
	}
	i.mirrorEngineLocked()
	if spec.Restore == nil {
		// No epoch has resolved yet: there is no telemetry to show.
		i.status.Last = EpochUpdate{Instance: id, SLOMs: 1e3 * i.m.SLO().Seconds(), Load: i.m.Load()}
		if spec.Scenario != nil {
			sc, err := spec.Scenario.Build()
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			i.warmScenarioWorkloads(sc)
			i.installScenario(sc, spec.Scenario)
		}
	}

	// Seed the supervisor's restart checkpoint before the first slice:
	// even a crash on the very first epoch has a state to restart from.
	// A migration's copy adopts the wire bytes while they are current.
	i.lastCP, i.lastEng = spec.wire, spec.wireEng
	i.refreshRestartCheckpoint()

	// Schedule the first slice. Shard migration, REST restore, peer
	// migration and fed rebalance all arrive here, and a paced instance
	// continues the tick schedule its checkpoint carries (cadence.start).
	// A restored-as-done instance parks without ever entering the heap.
	if !i.doneRunning {
		pool.schedule(i.entry, i.cad.start(time.Now(), spec.Restore))
	}
	return i, nil
}

// adopt makes the engine checkpointed in cp this instance's, closing the
// one it had: the one restore path, taken by a created, migrated or
// crash-restarted instance alike. It builds cp's scenario (warming the
// workloads its events name), restores the engine, drops the tasks the
// origin's fleet scheduler owned — their jobs stayed with, and were
// requeued by, that scheduler — and binds the result. Runs during
// construction or in the restart slice under stepMu; the caller follows
// with mirrorEngineLocked.
func (i *Instance) adopt(cp *InstanceCheckpoint) error {
	var sc *scenario.Scenario
	if cp.Scenario != nil {
		built, err := cp.Scenario.Build()
		if err != nil {
			return fmt.Errorf("restore scenario: %w", err)
		}
		i.warmScenarioWorkloads(built)
		sc = &built
	}
	rs := time.Now()
	eng, err := engine.Restore(engineConfig(i.lab, i.lcName), cp.Engine, sc)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	restoreHist.Observe(time.Since(rs))
	if len(cp.FleetTasks) > 0 {
		i.stateGen++ // pruned: the engine no longer matches cp's bytes
	}
	pruneFleetTasks(eng, cp)
	i.scenarioSpec = cp.Scenario.clone()
	i.bind(eng)
	return nil
}

// bind installs eng as the instance's engine, subscribes the instance and
// the spec's trace hook to its controller, and notes whether the engine
// is already at the instance's last epoch.
func (i *Instance) bind(eng *engine.Engine) {
	i.eng = eng
	i.m = eng.Machine(0)
	i.ctl = eng.Controller(0)
	i.ctl.OnEvent(i.onControllerEvent)
	if i.trace != nil {
		i.ctl.OnEvent(i.trace)
	}
	i.doneRunning = i.maxEpochs > 0 && eng.Epoch() >= i.maxEpochs
}

// mirrorEngineLocked copies into Status what it shows of a newly bound
// engine; Last comes from the engine's telemetry, so status is meaningful
// before the first epoch after a restore resolves. It also sets the line
// the span ring's simulated times lie on, which a crash restart's
// checkpoint shares. i.mu is held, or the instance is not published yet.
func (i *Instance) mirrorEngineLocked() {
	i.notifyLocked()
	i.status.State = StateRunning
	if i.doneRunning {
		i.status.State = StateDone
		i.parkOnce.Do(func() { close(i.parked) })
	}
	i.spanEpoch = i.m.Epoch()
	i.spanBase = i.m.Clock().Now() - time.Duration(i.eng.Epoch())*i.spanEpoch
	i.status.Epoch = i.eng.Epoch()
	i.status.Scenario = i.eng.ScenarioName()
	i.status.Last = i.epochUpdate(i.m.Last(), i.eng.Epoch())
	i.status.BEs = beNames(i.m)
	i.status.SLO = i.eng.SLONodeStatus(0)
}

// beNames lists the machine's BE task workload names.
func beNames(m *machine.Machine) []string {
	names := make([]string, 0, len(m.BEs()))
	for _, be := range m.BEs() {
		names = append(names, be.WL.Spec.Name)
	}
	return names
}

// placementByName parses a BE placement name.
func placementByName(name string) (workload.PlacementKind, error) {
	switch name {
	case "", workload.PlaceDedicated.String():
		return workload.PlaceDedicated, nil
	case workload.PlaceHTSibling.String():
		return workload.PlaceHTSibling, nil
	case workload.PlaceOSShared.String():
		return workload.PlaceOSShared, nil
	}
	return 0, fmt.Errorf("unknown placement %q (want dedicated, ht-sibling or os-shared)", name)
}

// ID returns the registry-assigned instance id.
func (i *Instance) ID() string { return i.id }

// Status returns a point-in-time snapshot.
func (i *Instance) Status() Status {
	i.mu.Lock()
	s := i.status
	s.BEs = append([]string(nil), i.status.BEs...)
	s.Actions = slices.Clone(i.status.Actions)
	i.mu.Unlock()
	s.DroppedEvents = i.hub.Dropped()
	return s
}

// Stop removes the instance from the epoch heap — cancelling any queued
// step or mid-backoff restart slice — waits out an in-flight slice and
// closes the event hub. Safe to call more than once.
func (i *Instance) Stop() {
	i.stopOnce.Do(func() {
		i.pool.remove(i.entry)
		i.stepMu.Lock()
		i.stopped = true
		i.stepMu.Unlock()
		i.hub.Close()
		close(i.donec)
	})
	<-i.donec
}

// Do runs fn under the instance's mailbox lock, between engine Steps,
// and returns its error. This is the only mutation path: it serialises
// API writes with the simulation so telemetry seen before and after the
// call is causally consistent. Returns ErrStopped if the instance has
// been stopped, ErrCrashed while a crashed instance waits out its
// restart backoff, and ErrQuarantined once the circuit breaker has
// opened. A panicking closure books a supervisor crash, exactly like a
// panic inside an epoch step.
func (i *Instance) Do(fn func() error) error {
	start := time.Now()
	defer func() { mailboxHist.Observe(time.Since(start)) }()
	i.stepMu.Lock()
	if i.stopped {
		i.stepMu.Unlock()
		return ErrStopped
	}
	i.mu.Lock()
	state := i.status.State
	i.mu.Unlock()
	if gate, ok := crashGate[state]; ok {
		i.stepMu.Unlock()
		return gate
	}
	var err error
	crash := i.guard(func() { err = fn() })
	i.stateGen++ // after fn, so a call that encodes finds the restart point as it was
	i.stepMu.Unlock()
	if crash != nil {
		// Completed asynchronously: the fleet dispatch tick calls Do while
		// holding the scheduler lock, and finishCrash's eviction callback
		// needs that same lock — synchronous completion would self-deadlock.
		// The crash gate is already closed (bookCrash ran under stepMu), so
		// callers see ErrCrashed immediately either way.
		go i.finishCrash(crash)
		return fmt.Errorf("serve: instance %s driver panicked: %v", i.id, crash.msg)
	}
	return err
}

// notifyLocked follows every write to status: it moves the generation a
// scrape compares (metrics.go) and wakes changed waiters. i.mu is held.
func (i *Instance) notifyLocked() {
	i.gen++
	if i.notec != nil {
		close(i.notec)
		i.notec = nil
	}
}

// SetLoad changes the offered LC load target mid-flight.
func (i *Instance) SetLoad(load float64) error {
	return i.Do(func() error {
		i.m.SetLoad(load)
		return nil
	})
}

// SetSLOScale changes the controller-visible latency target mid-flight
// and returns the new effective SLO.
func (i *Instance) SetSLOScale(scale float64) (time.Duration, error) {
	var slo time.Duration
	err := i.Do(func() error {
		i.m.SetSLOScale(scale)
		slo = i.m.SLO()
		return nil
	})
	return slo, err
}

// SetDegrade injects (factor > 1) or clears (factor <= 1) LC service-time
// degradation.
func (i *Instance) SetDegrade(factor float64) error {
	return i.Do(func() error {
		i.m.SetDegrade(factor)
		return nil
	})
}

// AttachBE adds a best-effort task mid-flight by the engine's be-arrive
// rule (engine.AttachBE). The workload is resolved (and, on first use,
// calibrated) in the caller's goroutine so a cold calibration never
// stalls the tick loop.
func (i *Instance) AttachBE(att BEAttachment) error {
	pk, err := placementByName(att.Placement)
	if err != nil {
		return err
	}
	wl := i.lab.BE(att.Workload)
	return i.Do(func() error {
		i.eng.AttachBE(0, wl, pk)
		i.refreshBEs()
		return nil
	})
}

// DetachBE removes every BE task running the named workload by the
// engine's be-depart rule (engine.DetachBE: scheduler-owned tasks are
// off-limits, jobs are cancelled through the job API) and returns how
// many were removed.
func (i *Instance) DetachBE(name string) (int, error) {
	var n int
	err := i.Do(func() error {
		if n = i.eng.DetachBE(0, name); n > 0 {
			i.refreshBEs()
		}
		return nil
	})
	return n, err
}

// InstallScenario starts driving the instance by the scenario from the
// next epoch, replacing any active scenario. BE workloads referenced by
// arrival events are resolved (calibrating on first use) in the caller's
// goroutine, so a be-arrive firing mid-run never stalls the tick loop.
// spec, when non-nil, is the scenario's JSON form, persisted into
// checkpoints so a restored instance can rebuild the cursor.
func (i *Instance) InstallScenario(sc scenario.Scenario, spec *ScenarioSpec) error {
	i.warmScenarioWorkloads(sc)
	return i.Do(func() error {
		i.installScenario(sc, spec)
		return nil
	})
}

// warmScenarioWorkloads pre-calibrates every BE workload the scenario's
// arrival events reference.
func (i *Instance) warmScenarioWorkloads(sc scenario.Scenario) {
	for _, ev := range sc.Events {
		if ev.Kind == scenario.EventBEArrive {
			i.lab.BE(ev.Workload)
		}
	}
}

// installScenario runs under stepMu (or during construction, before the
// instance is scheduled).
func (i *Instance) installScenario(sc scenario.Scenario, spec *ScenarioSpec) {
	i.eng.InstallScenario(sc)
	i.scenarioSpec = spec.clone()
	i.mu.Lock()
	i.status.Scenario = sc.Name
	i.notifyLocked()
	i.mu.Unlock()
	i.publishLifecycle("scenario", sc.Name)
}

// refreshBEs rebuilds the status BE name list; stepMu is held.
func (i *Instance) refreshBEs() {
	names := beNames(i.m)
	i.mu.Lock()
	i.status.BEs = names
	i.notifyLocked()
	i.mu.Unlock()
}

// onControllerEvent counts the decision and publishes it to subscribers.
// It runs inside the controller's Step — under stepMu, during an engine
// Step.
func (i *Instance) onControllerEvent(e core.Event) {
	i.mu.Lock()
	i.status.countAction(e.Loop, e.Action)
	i.notifyLocked()
	i.mu.Unlock()
	publishEvent(i, "controller", i.eng.Epoch(), ControllerUpdate{
		Instance:  i.id,
		AtSeconds: e.At.Seconds(),
		Loop:      e.Loop,
		Action:    e.Action,
		Detail:    e.Detail,
	})
}

// publishLifecycle announces a lifecycle transition.
func (i *Instance) publishLifecycle(state, detail string) {
	publishNow(i, "lifecycle", LifecycleUpdate{Instance: i.id, State: state, Detail: detail})
}

// publishNow publishes v with the status snapshot's epoch as its id. It
// may be called with or without stepMu held (the "deleted" transition
// comes straight from an HTTP goroutine, scheduler decisions from the
// dispatch tick), so it reads the mutex-guarded snapshot, never
// stepMu-guarded driver state, and takes the lock only when someone
// listens.
func publishNow[T any](i *Instance, event string, v T) {
	if !i.hub.HasSubscribers() {
		return
	}
	i.mu.Lock()
	ep := i.status.Epoch
	i.mu.Unlock()
	publishEvent(i, event, ep, v)
}

// publishEvent is the one way an event reaches the instance's SSE
// subscribers: v, JSON-encoded, as event with id ep. With no subscriber
// it returns before encoding. It is generic rather than a method taking
// an any, so v is boxed only when someone listens: every controller
// decision would otherwise cost an allocation.
func publishEvent[T any](i *Instance, event string, ep uint64, v T) {
	if !i.hub.HasSubscribers() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	i.hub.Publish(Message{Event: event, ID: ep, Data: data})
}

// runSlice is the epoch scheduler's entry point (epochTask): it
// advances the instance by one catch-up batch of epochs — or performs a
// pending crash restart — under the mailbox lock, then reports when the
// next slice is due. Returning ok=false parks the instance (stopped,
// done, crashed or quarantined): no heap entry, no timer, no goroutine.
// A crash in the slice is finished after the lock is released.
func (i *Instance) runSlice() (time.Time, bool) {
	next, ok, crash := i.stepSlice()
	if crash != nil {
		i.finishCrash(crash)
	}
	return next, ok
}

// stepSlice is runSlice under stepMu.
func (i *Instance) stepSlice() (next time.Time, ok bool, crash *crashInfo) {
	i.stepMu.Lock()
	defer i.stepMu.Unlock()
	if i.stopped {
		return
	}
	i.mu.Lock()
	restart := i.pendingRestart
	i.pendingRestart = false
	state := i.status.State
	i.mu.Unlock()

	switch {
	case state == StateQuarantined:
		return
	case restart:
		if err := i.rebuildFromCheckpoint(); err != nil {
			i.quarantine(fmt.Sprintf("restart failed: %v", err))
			return
		}
		// Resume ticking from the restored epoch on a fresh cadence, as a
		// fresh instance does: the restart checkpoint's schedule went
		// stale with the crash. A restored-as-done instance parks.
		return i.cad.start(time.Now(), nil), !i.doneRunning, nil
	case state == StateCrashed, i.doneRunning:
		// crashed: a stale step slice racing its own crash booking; the
		// restart slice owns the entry now.
		return
	}

	batch := i.cad.slice()
	i.recentFault = false
	stepped := 0
	crash = i.guard(func() {
		for k := 0; k < batch && !i.doneRunning; k++ {
			i.step()
			stepped++
		}
	})
	if stepped > 0 {
		i.pool.epochs.Add(int64(stepped))
	}
	if crash != nil || i.doneRunning {
		return time.Time{}, false, crash
	}
	return i.cad.next(time.Now(), i.tight()), true, nil
}

// tight reports whether anything wants the instance watched every epoch —
// a subscriber on the stream, an epoch hook, a controller out of its
// steady state, thin SLO slack, a recent fault or crash — so its cadence
// does not stretch; stepMu is held.
func (i *Instance) tight() bool {
	if i.recentFault || i.epochHook != nil || i.hub.HasSubscribers() {
		return true
	}
	i.mu.Lock()
	healthy := i.status.Health == HealthHealthy
	slack := i.status.Last.Slack
	i.mu.Unlock()
	return !healthy || slack < cadenceSlackFloor || i.ctl.TelemetryState() != core.StaleOK
}

// epochUpdate renders one epoch's telemetry as the wire summary.
func (i *Instance) epochUpdate(tel machine.Telemetry, epoch uint64) EpochUpdate {
	slo := i.m.SLO().Seconds()
	up := EpochUpdate{
		Instance:     i.id,
		Epoch:        epoch,
		SimSeconds:   i.m.Clock().Now().Seconds(),
		Load:         tel.LCLoad,
		TailMs:       1e3 * tel.TailLatency.Seconds(),
		P95Ms:        1e3 * tel.Lat.P95.Seconds(),
		SLOMs:        1e3 * slo,
		EMU:          tel.EMU,
		BEEnabled:    tel.BEEnabled,
		BECores:      tel.BECores,
		BEWays:       tel.BEWays,
		BEFreqCapGHz: tel.BEFreqCap,
		BEAllowed:    i.ctl.BEEnabled(),
		BEGoodCPUSec: tel.BEGoodCPUSec,
		BELostCPUSec: tel.BELostCPUSec,
		DRAMUtil:     tel.DRAMUtil,
		PowerFracTDP: tel.PowerFracTDP,
		LinkUtil:     tel.LinkUtil,
	}
	if slo > 0 {
		up.Slack = (slo - tel.TailLatency.Seconds()) / slo
	}
	return up
}

// step advances the engine by one epoch — scenario events, the offered
// load, Machine.Step and the controller all resolve inside engine.Step,
// in exactly the order the batch layers use — then publishes the status
// snapshot and the event stream. stepMu is held.
func (i *Instance) step() {
	i.stateGen++
	if i.panicNext {
		i.panicNext = false
		panic(fmt.Sprintf("injected driver panic on %s", i.id))
	}
	er := i.eng.Step()
	tel := er.Tel[0]

	if er.ScenarioDone != "" {
		i.scenarioSpec = nil
		i.mu.Lock()
		i.status.Scenario = ""
		i.notifyLocked()
		i.mu.Unlock()
		i.publishLifecycle("scenario-done", er.ScenarioDone)
	}
	if er.EventsApplied > 0 || er.FaultsApplied > 0 {
		i.refreshBEs()
	}

	if er.FaultsApplied > 0 {
		i.recentFault = true
	}

	up := i.epochUpdate(tel, er.Epoch)
	done := i.maxEpochs > 0 && er.Epoch >= i.maxEpochs
	sloStatus := i.eng.SLONodeStatus(0)
	i.mu.Lock()
	i.status.Epoch = er.Epoch
	i.status.Last = up
	i.status.SLO = sloStatus
	i.status.FaultsInjected += int64(er.FaultsApplied)
	if done {
		i.status.State = StateDone
		i.parkOnce.Do(func() { close(i.parked) })
	}
	i.notifyLocked()
	i.mu.Unlock()

	// Supervisor bookkeeping: refresh the restart checkpoint on its
	// cadence and close the stability window.
	i.epochsSinceRestart++
	if i.epochsSinceRestart%i.sup.ckptEvery == 0 {
		i.refreshRestartCheckpoint()
	}
	i.markStable()

	var hookNs, publishNs int64
	if i.epochHook != nil {
		hs := time.Now()
		i.epochHook(i.m, tel)
		hookNs = int64(time.Since(hs))
	}
	if i.hub.HasSubscribers() { // only a published epoch has a publish span
		ps := time.Now()
		publishEvent(i, "epoch", er.Epoch, up)
		if len(er.SLOTransitions) > 0 {
			publishEvent(i, "slo", er.Epoch, SLOUpdate{
				Instance:    i.id,
				Epoch:       er.Epoch,
				Transitions: er.SLOTransitions,
				Status:      sloStatus,
			})
		}
		publishNs = int64(time.Since(ps))
	}

	i.recordSpan(spanSlot{
		epoch:   er.Epoch,
		events:  spanNs(er.Spans.EventsNs),
		sched:   spanNs(er.Spans.SchedNs),
		nodes:   spanNs(er.Spans.NodesNs),
		reduce:  spanNs(er.Spans.ReduceNs),
		hook:    spanNs(hookNs),
		publish: spanNs(publishNs),
	})

	if done {
		i.doneRunning = true
		i.publishLifecycle("done", fmt.Sprintf("max_epochs %d reached", i.maxEpochs))
	}
}

// recordSpan appends one epoch's phase timings to the bounded ring.
func (i *Instance) recordSpan(s spanSlot) {
	i.mu.Lock()
	if i.spans == nil {
		i.spans = make([]spanSlot, 0, traceRingCap)
	}
	if len(i.spans) < traceRingCap {
		i.spans = append(i.spans, s)
	} else {
		i.spans[i.spanHead] = s
		i.spanHead = (i.spanHead + 1) % traceRingCap
	}
	i.mu.Unlock()
}

// TraceSpans snapshots the span ring, oldest record first.
func (i *Instance) TraceSpans() []SpanRecord {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]SpanRecord, len(i.spans))
	for k := range out {
		s := &i.spans[(i.spanHead+k)%len(i.spans)]
		out[k] = SpanRecord{
			Epoch:      s.epoch,
			SimSeconds: (i.spanBase + time.Duration(s.epoch)*i.spanEpoch).Seconds(),
			EventsNs:   int64(s.events),
			SchedNs:    int64(s.sched),
			NodesNs:    int64(s.nodes),
			ReduceNs:   int64(s.reduce),
			HookNs:     int64(s.hook),
			PublishNs:  int64(s.publish),
		}
	}
	return out
}

// --- Fleet-scheduler hooks --------------------------------------------
//
// The control plane's job scheduler treats each instance as one node of
// the fleet. Every hook funnels through Do, so scheduler activity obeys
// the same between-epochs mutation contract as the rest of the API.

// schedProbe reads the node state the dispatch loop keys on — the same
// slack/EMU advertisement the engine's own scheduler tick uses.
func (i *Instance) schedProbe() (sched.NodeState, string, error) {
	var ns sched.NodeState
	err := i.Do(func() error {
		ns = i.eng.NodeState(0)
		return nil
	})
	i.mu.Lock()
	state := i.status.State
	i.mu.Unlock()
	return ns, state, err
}

// startSchedTask starts a scheduler-dispatched job by the engine's rule
// (engine.StartSchedBE: scripted depart events and name-based detaches
// cannot pull the task out from under the scheduler). It re-checks the
// controller's enablement inside the mailbox — the live fleet's
// enforcement of the never-dispatch-while-disabled invariant, since the
// controller may have flipped between the snapshot and the apply — and
// returns an error (the driver aborts the dispatch) instead of parking
// the job on a machine that will not run it.
func (i *Instance) startSchedTask(wlName string) (*machine.BETask, error) {
	wl := i.lab.BE(wlName) // calibrate outside the mailbox
	var task *machine.BETask
	err := i.Do(func() error {
		if !i.ctl.BEEnabled() {
			return fmt.Errorf("controller has BE disabled on %s", i.id)
		}
		task = i.eng.StartSchedBE(0, wl)
		i.refreshBEs()
		return nil
	})
	return task, err
}

// stopSchedTask retires a scheduler-owned task by engine.StopSchedBE and
// returns its accrued CPU time: completed banks it as goodput, otherwise
// it is charged as lost.
func (i *Instance) stopSchedTask(task *machine.BETask, completed bool) (float64, error) {
	var cpu float64
	err := i.Do(func() error {
		cpu = task.CPUSec
		i.eng.StopSchedBE(0, task, completed)
		i.refreshBEs()
		return nil
	})
	return cpu, err
}

// taskCPUSec reads a running task's accrued CPU time between epochs.
func (i *Instance) taskCPUSec(task *machine.BETask) (float64, error) {
	var cpu float64
	err := i.Do(func() error {
		cpu = task.CPUSec
		return nil
	})
	return cpu, err
}
