package engine

import (
	"fmt"
	"sort"
	"time"

	"heracles/internal/core"
	"heracles/internal/fault"
	"heracles/internal/machine"
)

// buildNode assembles one node around a (new or restored) machine. On
// Heracles nodes the controller is bound to a fault environment wrapping
// the machine, so blackout and actuation-failure windows interpose
// between the controller and its server without the machine or the
// controller knowing.
func buildNode(m *machine.Machine, cfg *Config) *node {
	n := &node{m: m}
	if cfg.Heracles {
		n.fenv = fault.Wrap(m)
		n.ctl = core.New(n.fenv, cfg.Model, core.DefaultConfig())
	}
	return n
}

// installFaults validates and installs a fault schedule, sorted stably
// by fire time. Invalid entries panic: fault plans are programmer (or
// pre-validated API) input, exactly like scenario events.
func (e *Engine) installFaults(fs []fault.Fault) {
	if len(fs) == 0 {
		return
	}
	sorted := append([]fault.Fault(nil), fs...)
	for i, f := range sorted {
		if err := f.Validate(len(e.nodes)); err != nil {
			panic(fmt.Sprintf("engine: fault %d: %v", i, err))
		}
	}
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].At < sorted[b].At })
	e.faults = sorted
}

// nodeFault tracks one node's active fault windows as absolute deadlines
// in simulated time; a window is active while its deadline is in the
// future.
type nodeFault struct {
	downUntil     time.Duration
	blackoutUntil time.Duration
	actFailUntil  time.Duration
	slowUntil     time.Duration
}

// InjectFault queues one fault for application at the start of the next
// Step (its At field is ignored — live injection means "now"). This is
// the control plane's injection hook; call it from the stepping
// goroutine's context like any other mutation.
func (e *Engine) InjectFault(f fault.Fault) error {
	if err := f.Validate(len(e.nodes)); err != nil {
		return err
	}
	e.pendingFaults = append(e.pendingFaults, f)
	return nil
}

// NodeDown reports whether node i is inside a crash outage window.
func (e *Engine) NodeDown(i int) bool {
	return e.nf != nil && e.nf[i].downUntil > e.t
}

// ensureNF allocates the per-node window table on first fault use, so
// fault-free engines pay nothing.
func (e *Engine) ensureNF() {
	if e.nf == nil {
		e.nf = make([]nodeFault, len(e.nodes))
	}
}

// stepFaults runs in Step's sequential window at epoch-start time t:
// expire windows that have elapsed, then fire scheduled faults due at t
// and any live-injected ones. Returns how many faults fired.
func (e *Engine) stepFaults(t time.Duration) int {
	if e.nf == nil && e.faultNext >= len(e.faults) && len(e.pendingFaults) == 0 {
		return 0
	}
	e.ensureNF()
	for i := range e.nf {
		e.expireWindows(i, t)
	}
	n := 0
	for e.faultNext < len(e.faults) && e.faults[e.faultNext].At <= t {
		e.applyFault(e.faults[e.faultNext], t)
		e.faultNext++
		n++
	}
	for _, f := range e.pendingFaults {
		e.applyFault(f, t)
		n++
	}
	e.pendingFaults = e.pendingFaults[:0]
	return n
}

// expireWindows closes node i's fault windows whose deadline has passed.
func (e *Engine) expireWindows(i int, t time.Duration) {
	nf := &e.nf[i]
	n := e.nodes[i]
	if nf.downUntil > 0 && nf.downUntil <= t {
		nf.downUntil = 0 // the node restarts: machine state was reset at crash time
	}
	if nf.blackoutUntil > 0 && nf.blackoutUntil <= t {
		nf.blackoutUntil = 0
		if n.fenv != nil {
			n.fenv.SetBlackout(false)
		}
	}
	if nf.actFailUntil > 0 && nf.actFailUntil <= t {
		nf.actFailUntil = 0
		if n.fenv != nil {
			n.fenv.SetActuationFail(false)
		}
	}
	if nf.slowUntil > 0 && nf.slowUntil <= t {
		nf.slowUntil = 0
		n.m.SetDegrade(1)
	}
}

// applyFault applies one fault to its target nodes at time t.
func (e *Engine) applyFault(f fault.Fault, t time.Duration) {
	e.faultCount++
	for i, n := range e.nodes {
		if f.Node != fault.AllNodes && f.Node != i {
			continue
		}
		switch f.Kind {
		case fault.LeafCrash:
			e.crashNode(i, t, t+f.Duration)
		case fault.TelemetryBlackout:
			if until := t + f.Duration; until > e.nf[i].blackoutUntil {
				e.nf[i].blackoutUntil = until
			}
			if n.fenv != nil {
				n.fenv.SetBlackout(true)
			}
		case fault.SlowMachine:
			if until := t + f.Duration; until > e.nf[i].slowUntil {
				e.nf[i].slowUntil = until
			}
			n.m.SetDegrade(f.Factor)
		case fault.ActuationFail:
			if until := t + f.Duration; until > e.nf[i].actFailUntil {
				e.nf[i].actFailUntil = until
			}
			if n.fenv != nil {
				n.fenv.SetActuationFail(true)
			}
		case fault.BEKill:
			e.killBE(i, f.Workload, t)
		}
	}
}

// crashNode takes node i down until the given deadline. Everything on
// the machine dies with it: the engine scheduler's jobs evict through
// the normal retry-budget path (Kill), remaining BE tasks are removed as
// lost work, and the controller restarts cold — when the outage ends the
// node comes back like a freshly booted server, clock still aligned with
// the fleet.
func (e *Engine) crashNode(i int, now, until time.Duration) {
	n := e.nodes[i]
	if until > e.nf[i].downUntil {
		e.nf[i].downUntil = until
	}
	e.killSchedJobs(i, "", now, "leaf crashed")
	for _, be := range append([]*machine.BETask(nil), n.m.BEs()...) {
		n.m.RemoveBE(be)
		delete(e.schedOwned, be)
	}
	n.m.Partition(0)
	n.m.SetDegrade(1)
	n.m.ResetStats()
	e.nf[i].blackoutUntil, e.nf[i].actFailUntil, e.nf[i].slowUntil = 0, 0, 0
	if n.fenv != nil {
		n.fenv.SetBlackout(false)
		n.fenv.SetActuationFail(false)
	}
	if n.ctl != nil {
		// Cold controller: zero latches, with the stale-telemetry clock
		// starting at the crash so the empty post-restart poll window
		// does not read as an instant emergency.
		n.ctl.Restore(core.ControllerState{LastTelemetry: now})
	}
}

// killBE kills node i's best-effort tasks (all, or only those running
// wl). Scheduler-owned jobs evict with retry-budget consumption;
// unmanaged tasks are removed as lost work. Tasks owned by an external
// scheduler are left alone — their owner must kill them through its own
// bookkeeping (the live control plane's fault route does exactly that).
func (e *Engine) killBE(i int, wl string, now time.Duration) {
	n := e.nodes[i]
	e.killSchedJobs(i, wl, now, "task killed by fault")
	var dead []*machine.BETask
	for _, be := range n.m.BEs() {
		if e.OwnedBE(be) {
			continue
		}
		if wl == "" || be.WL.Spec.Name == wl {
			dead = append(dead, be)
		}
	}
	for _, be := range dead {
		n.m.RemoveBE(be)
	}
	if len(dead) > 0 {
		n.m.Partition(n.m.BECoreCount())
	}
}

// killSchedJobs force-evicts the engine scheduler's jobs running on node
// i (narrowed to workload wl when non-empty), in job-id order so the
// eviction sequence is deterministic.
func (e *Engine) killSchedJobs(i int, wl string, now time.Duration, reason string) {
	if e.schd == nil {
		return
	}
	var ids []int
	for id, st := range e.schedTasks {
		if st.node == i && (wl == "" || st.task.WL.Spec.Name == wl) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := e.schedTasks[id]
		for _, a := range e.schd.Kill(id, now, st.task.CPUSec, reason) {
			e.applySchedAction(a)
		}
	}
}
