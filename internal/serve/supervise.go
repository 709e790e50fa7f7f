package serve

import (
	"errors"
	"fmt"
	"time"

	"heracles/internal/engine"
	"heracles/internal/fault"
	"heracles/internal/machine"
	"heracles/internal/sim"
)

// ErrCrashed is returned by mutation calls against an instance whose
// driver has crashed and is restarting from its last checkpoint.
var ErrCrashed = errors.New("serve: instance crashed, restart in progress")

// ErrQuarantined is returned by mutation calls against an instance the
// supervisor has given up restarting (the circuit breaker opened after
// repeated consecutive crashes). Delete the instance or restore its
// checkpoint into a fresh one.
var ErrQuarantined = errors.New("serve: instance quarantined after repeated crashes")

// Supervisor health states reported by GET /api/v1/instances/{id}/health.
const (
	// HealthHealthy: no crash since the last stability window.
	HealthHealthy = "healthy"
	// HealthDegraded: restarted after a crash, not yet stable again.
	HealthDegraded = "degraded"
	// HealthQuarantined: the circuit breaker opened; the driver is parked
	// and every mutation fails with ErrQuarantined.
	HealthQuarantined = "quarantined"
)

// supervisorConfig tunes an instance's crash supervision; the server
// builds one per instance from its Config.
type supervisorConfig struct {
	backoff   time.Duration   // base restart delay, doubled per consecutive crash
	maxConsec int             // quarantine when consecutive crashes exceed this
	ckptEvery int             // epochs between restart-checkpoint refreshes
	stable    int             // crash-free epochs that clear the degraded state
	onCrash   func(*Instance) // crash callback (fleet scheduler eviction)
}

func (c supervisorConfig) withDefaults() supervisorConfig {
	if c.backoff <= 0 {
		c.backoff = 250 * time.Millisecond
	}
	if c.maxConsec <= 0 {
		c.maxConsec = 5
	}
	if c.ckptEvery <= 0 {
		c.ckptEvery = 30
	}
	if c.stable <= 0 {
		c.stable = 120
	}
	return c
}

// HealthStatus is the wire form of GET /api/v1/instances/{id}/health.
type HealthStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // healthy | degraded | quarantined
	// Crashes counts driver crashes over the instance's lifetime;
	// Restarts counts successful restarts from checkpoint.
	Crashes  int `json:"crashes"`
	Restarts int `json:"restarts"`
	// ConsecutiveCrashes is the circuit breaker's position: it grows with
	// each crash, resets after a stability window, and opens the breaker
	// (quarantine) past the configured limit.
	ConsecutiveCrashes int    `json:"consecutive_crashes"`
	LastError          string `json:"last_error,omitempty"`
	LastCrashEpoch     uint64 `json:"last_crash_epoch,omitempty"`
	// FaultsInjected counts faults applied to this instance — engine
	// faults and driver panics — via API injection or fault schedules.
	FaultsInjected int64 `json:"faults_injected"`
}

// Health reports the supervisor's view of the instance. Safe to call
// from any goroutine, in any health state.
func (i *Instance) Health() HealthStatus {
	i.mu.Lock()
	defer i.mu.Unlock()
	return HealthStatus{
		ID:                 i.id,
		State:              i.healthState,
		Crashes:            i.crashes,
		Restarts:           i.restarts,
		ConsecutiveCrashes: i.consec,
		LastError:          i.lastErr,
		LastCrashEpoch:     i.lastCrashEpoch,
		FaultsInjected:     i.faultsInjected,
	}
}

// FaultDriverPanic is the serve-layer fault kind: the next epoch step
// panics inside the driver worker, exercising the supervisor's
// recover/restart path rather than the engine's simulated fault model.
const FaultDriverPanic = "driver-panic"

// FaultRequest is the JSON body of POST /api/v1/instances/{id}/faults.
type FaultRequest struct {
	// Kind is a fault.Kind wire name (leaf-crash, telemetry-blackout,
	// slow-machine, actuation-fail, be-kill) or "driver-panic".
	Kind string `json:"kind"`
	// DurationS bounds window faults in simulated seconds (defaults:
	// leaf-crash 30, telemetry-blackout 60, slow-machine 60,
	// actuation-fail 30).
	DurationS float64 `json:"duration_s,omitempty"`
	// Factor is the slow-machine service-time inflation (default 1.5).
	Factor float64 `json:"factor,omitempty"`
	// Workload narrows be-kill to one workload name; empty kills every
	// BE task.
	Workload string `json:"workload,omitempty"`
}

// check validates the request without touching the instance.
func (r FaultRequest) check() error {
	if r.Kind == FaultDriverPanic {
		return nil
	}
	if _, ok := fault.KindByName(r.Kind); !ok {
		return fmt.Errorf("unknown fault kind %q", r.Kind)
	}
	if r.DurationS < 0 {
		return fmt.Errorf("duration_s %v must not be negative", r.DurationS)
	}
	if r.Factor != 0 && r.Factor < 1 {
		return fmt.Errorf("slow-machine factor %v must be >= 1", r.Factor)
	}
	return nil
}

// fault renders the request as an engine fault with the defaults filled
// in. Only valid after check, for kinds other than driver-panic.
func (r FaultRequest) fault() fault.Fault {
	k, _ := fault.KindByName(r.Kind)
	f := fault.Fault{Kind: k, Workload: r.Workload}
	dur := func(def time.Duration) time.Duration {
		if r.DurationS > 0 {
			return time.Duration(r.DurationS * float64(time.Second))
		}
		return def
	}
	switch k {
	case fault.LeafCrash:
		f.Duration = dur(30 * time.Second)
	case fault.TelemetryBlackout:
		f.Duration = dur(60 * time.Second)
	case fault.SlowMachine:
		f.Duration = dur(60 * time.Second)
		f.Factor = r.Factor
		if f.Factor < 1 {
			f.Factor = 1.5
		}
	case fault.ActuationFail:
		f.Duration = dur(30 * time.Second)
	}
	return f
}

// InjectFault applies one fault to the instance at the next epoch
// boundary: driver-panic arms the supervisor-level crash, every other
// kind is handed to the engine's injection hook.
func (i *Instance) InjectFault(req FaultRequest) error {
	if err := req.check(); err != nil {
		return err
	}
	if req.Kind == FaultDriverPanic {
		return i.Do(func() error {
			i.panicNext = true
			i.mu.Lock()
			i.faultsInjected++
			i.mu.Unlock()
			return nil
		})
	}
	f := req.fault()
	return i.Do(func() error { return i.eng.InjectFault(f) })
}

// fnvHash derives the instance's supervisor RNG seed from its id
// (FNV-1a), so restart jitter is deterministic per instance but
// uncorrelated across the fleet.
func fnvHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// crashErr is the error Do returns while the instance is not serving:
// quarantine wins over the transient crashed state.
func (i *Instance) crashErr() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.healthState == HealthQuarantined {
		return ErrQuarantined
	}
	return ErrCrashed
}

// crashInfo carries one booked crash from the panic site (stepMu held)
// to finishCrash (stepMu released). The split matters: publishing and
// the fleet-scheduler eviction callback must not run under stepMu, or
// they would deadlock against a dispatch tick that holds the scheduler
// lock while calling Do on this instance.
type crashInfo struct {
	msg        string
	quarantine string        // non-empty: the breaker opened; the reason
	delay      time.Duration // else: backoff before the restart slice
}

// guard runs fn, converting a panic into a booked crash. The caller
// holds stepMu and must hand a non-nil result to finishCrash after
// releasing it.
func (i *Instance) guard(fn func()) (crash *crashInfo) {
	defer func() {
		if v := recover(); v != nil {
			crash = i.bookCrash(v)
		}
	}()
	fn()
	return nil
}

// bookCrash records a driver panic under i.mu — health transition,
// counters, circuit-breaker verdict — and computes the restart backoff.
// From here until the restart slice rebuilds the engine, Do fails fast
// with ErrCrashed and step slices park, so the crashed machine is
// frozen. stepMu is held.
func (i *Instance) bookCrash(v any) *crashInfo {
	msg := fmt.Sprint(v)
	ci := &crashInfo{msg: msg}
	i.mu.Lock()
	i.crashed = true
	i.crashes++
	i.consec++
	i.lastErr = msg
	i.lastCrashEpoch = i.status.Epoch
	if i.healthState == HealthHealthy {
		i.healthState = HealthDegraded
	}
	i.status.State = StateCrashed
	consec, crashes := i.consec, i.crashes
	if consec > i.sup.maxConsec {
		i.healthState = HealthQuarantined
		i.status.State = StateQuarantined
		ci.quarantine = fmt.Sprintf("%d consecutive crashes exceed the limit of %d", consec, i.sup.maxConsec)
	}
	i.notifyLocked()
	i.mu.Unlock()

	if ci.quarantine == "" {
		shift := min(consec-1, 4)
		if shift < 0 {
			shift = 0
		}
		delay := i.sup.backoff << uint(shift)
		// Jitter from the instance's own derived stream: deterministic per
		// (instance, crash count) yet uncorrelated across instances, so a
		// correlated fleet-wide crash does not restart in lockstep.
		delay += time.Duration(sim.DeriveRNG(i.supSeed, uint64(crashes)).Float64() * 0.5 * float64(delay))
		ci.delay = delay
	}
	return ci
}

// finishCrash completes a booked crash with no locks held: it announces
// the crash, lets the fleet scheduler evict the dead machine's jobs —
// all before any restart, so the scheduler sees a consistent world in
// which the instance's tasks are dead — then either schedules the
// restart slice after the jittered backoff or announces quarantine.
// The backoff is a heap entry, not a timer: deleting the instance
// mid-backoff removes the entry, so churn leaks nothing. Runs in
// whichever goroutine hit the panic — a driver worker or an HTTP Do
// caller.
func (i *Instance) finishCrash(ci *crashInfo) {
	i.publishLifecycle("crashed", ci.msg)
	if i.sup.onCrash != nil {
		i.sup.onCrash(i)
	}
	if ci.quarantine != "" {
		i.publishLifecycle("quarantined", ci.quarantine)
		return
	}
	i.mu.Lock()
	i.pendingRestart = true
	i.mu.Unlock()
	i.sched.schedule(i.entry, time.Now().Add(ci.delay))
}

// quarantine opens the circuit breaker: the instance stays inspectable
// (status, health, stream) but every mutation fails until it is deleted.
// A quarantined instance holds no heap entry — parking is free.
func (i *Instance) quarantine(reason string) {
	i.mu.Lock()
	i.healthState = HealthQuarantined
	i.status.State = StateQuarantined
	i.notifyLocked()
	i.mu.Unlock()
	i.publishLifecycle("quarantined", reason)
}

// rebuildFromCheckpoint swaps in a fresh engine restored from the last
// restart checkpoint. Runs in a driver worker's restart slice under
// stepMu, with no concurrent mutation traffic (the crash gate fails Do
// callers fast).
func (i *Instance) rebuildFromCheckpoint() error {
	if len(i.lastCP) == 0 {
		return errors.New("no checkpoint to restart from")
	}
	cp, err := DecodeCheckpointFile(i.lastCP)
	if err != nil {
		return fmt.Errorf("decode restart checkpoint: %w", err)
	}
	if cp.Engine == nil {
		return errors.New("no checkpoint to restart from")
	}
	// The fleet scheduler's jobs died with the crash (finishCrash evicted
	// them), so adopt's pruning keeps the restarted engine from silently
	// double-running requeued work.
	if err := i.adopt(cp); err != nil {
		return err
	}
	i.epochsSinceRestart = 0
	i.panicNext = false

	i.mu.Lock()
	i.crashed = false
	i.restarts++
	i.mirrorEngineLocked()
	i.notifyLocked()
	i.mu.Unlock()
	i.publishLifecycle("restored", fmt.Sprintf("restarted from checkpoint at epoch %d after crash", i.eng.Epoch()))
	return nil
}

// pruneFleetTasks removes the BE tasks a checkpoint marked as
// fleet-scheduler-owned from a freshly restored engine: their jobs live
// with the origin scheduler, which has already evicted and requeued
// them.
func pruneFleetTasks(eng *engine.Engine, cp *InstanceCheckpoint) {
	if len(cp.FleetTasks) == 0 {
		return
	}
	m := eng.Machine(0)
	bes := m.BEs()
	var dead []*machine.BETask
	for _, idx := range cp.FleetTasks {
		if idx >= 0 && idx < len(bes) {
			dead = append(dead, bes[idx])
		}
	}
	for _, be := range dead {
		m.RemoveBE(be)
	}
	if len(dead) > 0 {
		m.Partition(m.BECoreCount())
	}
}

// markStable closes the circuit-breaker window: after enough crash-free
// epochs the consecutive-crash counter resets and a degraded instance
// reads healthy again. stepMu is held.
func (i *Instance) markStable() {
	if i.epochsSinceRestart < i.sup.stable {
		return
	}
	i.mu.Lock()
	if i.consec != 0 || i.healthState == HealthDegraded {
		i.consec = 0
		if i.healthState == HealthDegraded {
			i.healthState = HealthHealthy
		}
		i.notifyLocked()
	}
	i.mu.Unlock()
}
