package serve

import (
	"fmt"
	"time"

	"heracles/internal/engine"
	"heracles/internal/workload"
)

// InstanceCheckpoint is the wire form of one instance's full simulation
// state: the engine checkpoint (machine, controller, scenario cursor,
// epoch index) plus the instance-level metadata needed to rebuild it —
// the LC workload and hardware generation to resolve calibrations
// against, and the active scenario's JSON spec so the restoring side can
// reconstruct the load shape the engine checkpoint only references by
// name. POST /api/v1/instances/{id}/checkpoint produces one; passing it
// as InstanceSpec.Restore on create consumes it, on the same server
// (pause/fast-forward) or a different one (migration).
//
// Tasks dispatched by the fleet job scheduler are captured as plain
// machine state and indexed by FleetTasks; a restore prunes them. Their
// jobs stay with the origin server's scheduler — which evicts and
// requeues them when the origin instance crashes or disappears — so
// keeping the tasks alive would silently double-run the same work.
//
// NextDueUnixNano, Batch and Stretch are the origin's place in its tick
// schedule (DESIGN.md §14), set together for a paced, still-running
// instance and absent otherwise. They are the only wall-clock-derived
// bytes in a checkpoint — Engine stays wall-clock-free, which is what the
// bit-identity pins compare — and every restore path continues the
// schedule from them instead of re-arming one interval out.
type InstanceCheckpoint struct {
	Version   int           `json:"version"`
	Name      string        `json:"name,omitempty"`
	LC        string        `json:"lc"`
	Compact   bool          `json:"compact,omitempty"`
	Speed     float64       `json:"speed,omitempty"`
	MaxEpochs int           `json:"max_epochs,omitempty"`
	Scenario  *ScenarioSpec `json:"scenario,omitempty"`

	// FleetTasks indexes the machine's BE task list at snapshot time,
	// marking tasks owned by the fleet job scheduler.
	FleetTasks []int `json:"fleet_tasks,omitempty"`

	// NextDueUnixNano is the wall-clock instant the origin's next slice is
	// due, Batch the epochs that slice steps and Stretch the cadence
	// factor the slice after it grows from (both 1..stretchMax).
	NextDueUnixNano int64 `json:"next_due_unix_ns,omitempty"`
	Batch           int   `json:"batch,omitempty"`
	Stretch         int   `json:"stretch,omitempty"`

	Engine *engine.Checkpoint `json:"engine"`
}

// paced reports whether the checkpoint carries a tick schedule.
func (cp *InstanceCheckpoint) paced() bool {
	return cp.NextDueUnixNano != 0 || cp.Batch != 0 || cp.Stretch != 0
}

// resumeAt places a restored instance's first slice at the origin's due
// instant, clamped into [now, now + batch×interval]: a checkpoint held
// past its due time ticks now, and one from a daemon whose clock runs
// ahead (or taken at a slower speed than it restores at) waits no longer
// than the slice it carries spans. The result is an offset from now, so it
// keeps now's monotonic reading and a later wall-clock step cannot park
// the instance.
func resumeAt(now time.Time, dueUnixNano int64, batch int, interval time.Duration) time.Time {
	wait := time.Unix(0, dueUnixNano).Sub(now)
	return now.Add(min(max(wait, 0), time.Duration(batch)*interval))
}

// Checkpoint snapshots the instance between epochs — the mailbox
// serialises it with the simulation, so the snapshot is a consistent
// epoch boundary. The instance keeps running; pause it by restoring the
// checkpoint into a fresh instance and deleting this one.
func (i *Instance) Checkpoint() (*InstanceCheckpoint, error) {
	var cp *InstanceCheckpoint
	err := i.Do(func() error {
		cp = i.buildCheckpoint()
		return nil
	})
	return cp, err
}

// buildCheckpoint assembles the checkpoint; stepMu must be held (the
// supervisor also calls it directly, on its restart-checkpoint cadence).
func (i *Instance) buildCheckpoint() *InstanceCheckpoint {
	start := time.Now()
	defer func() { checkpointHist.Observe(time.Since(start)) }()
	var spec *ScenarioSpec
	if i.scenarioSpec != nil {
		s := *i.scenarioSpec
		spec = &s
	}
	cp := &InstanceCheckpoint{
		Version:   engine.CheckpointVersion,
		Name:      i.name,
		LC:        i.lcName,
		Compact:   i.compact,
		Speed:     i.speed,
		MaxEpochs: int(i.maxEpochs),
		Scenario:  spec,
		Engine:    i.eng.Snapshot(),
	}
	for idx, be := range i.m.BEs() {
		if i.eng.OwnedBE(be) {
			cp.FleetTasks = append(cp.FleetTasks, idx)
		}
	}
	// A paced instance with a slice in the heap hands its schedule over
	// (nextAt is still zero while newInstance seeds the restart checkpoint).
	if i.interval > 0 && !i.doneRunning && !i.nextAt.IsZero() {
		cp.NextDueUnixNano, cp.Batch, cp.Stretch = i.nextAt.UnixNano(), i.batch, i.stretch
	}
	return cp
}

// refreshRestartCheckpoint re-snapshots the instance into the
// supervisor's retained restart checkpoint, encoding straight into the
// previous generation's buffer so the steady-state refresh reuses one
// allocation. On an encode failure the previous good checkpoint is kept
// — a stale restart point beats none. stepMu must be held.
func (i *Instance) refreshRestartCheckpoint() {
	data, err := AppendCheckpointFileBinary(i.lastCP[:0], i.buildCheckpoint())
	if err == nil {
		i.lastCP = data
	}
}

// validateCheckpoint rejects a restore request whose checkpoint is
// structurally unusable before any simulation state is built: version
// mismatches, missing engine state, unknown workload names (which would
// otherwise panic inside the calibration catalogue), or a scenario
// recorded in the engine without its JSON spec alongside, or a tick
// schedule no origin could have written.
func validateCheckpoint(cp *InstanceCheckpoint) error {
	if cp.Version != engine.CheckpointVersion {
		return fmt.Errorf("checkpoint version %d, this server reads version %d", cp.Version, engine.CheckpointVersion)
	}
	if cp.Engine == nil {
		return fmt.Errorf("checkpoint missing engine state")
	}
	if len(cp.Engine.Machines) != 1 {
		return fmt.Errorf("instance checkpoint carries %d machines, want 1", len(cp.Engine.Machines))
	}
	if _, ok := workload.LCByName(cp.LC); !ok {
		return fmt.Errorf("unknown LC workload %q", cp.LC)
	}
	m := cp.Engine.Machines[0]
	if m.LC == nil {
		return fmt.Errorf("checkpoint machine has no LC task")
	}
	if m.LC.Workload != cp.LC {
		return fmt.Errorf("checkpoint LC %q does not match machine LC %q", cp.LC, m.LC.Workload)
	}
	for _, be := range m.BEs {
		if err := checkBEName(be.Workload); err != nil {
			return err
		}
	}
	for _, idx := range cp.FleetTasks {
		if idx < 0 || idx >= len(m.BEs) {
			return fmt.Errorf("checkpoint fleet task index %d outside the machine's %d BE tasks", idx, len(m.BEs))
		}
	}
	if cp.Engine.Sched != nil {
		for _, j := range cp.Engine.Sched.Jobs {
			if err := checkBEName(j.Spec.Workload); err != nil {
				return err
			}
		}
	}
	if cp.Engine.Scenario != nil && cp.Scenario == nil {
		return fmt.Errorf("checkpoint has an active scenario (%q) but no scenario spec to rebuild it", cp.Engine.Scenario.Name)
	}
	if cp.paced() {
		if cp.NextDueUnixNano <= 0 {
			return fmt.Errorf("checkpoint next_due_unix_ns %d is not a positive instant beside batch %d, stretch %d", cp.NextDueUnixNano, cp.Batch, cp.Stretch)
		}
		if cp.Batch < 1 || cp.Batch > stretchMax {
			return fmt.Errorf("checkpoint batch %d outside 1..%d", cp.Batch, stretchMax)
		}
		if cp.Stretch < 1 || cp.Stretch > stretchMax {
			return fmt.Errorf("checkpoint stretch %d outside 1..%d", cp.Stretch, stretchMax)
		}
	}
	return nil
}
