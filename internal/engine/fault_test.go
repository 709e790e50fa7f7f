package engine_test

import (
	"testing"
	"time"

	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/fault"
)

// faultSchedule covers every fault kind with deterministic, hand-placed
// times so the tests can assert exactly which epochs are affected.
func faultSchedule() []fault.Fault {
	return []fault.Fault{
		{At: 60 * time.Second, Kind: fault.LeafCrash, Node: 0, Duration: 45 * time.Second},
		{At: 90 * time.Second, Kind: fault.TelemetryBlackout, Node: 1, Duration: 2 * time.Minute},
		{At: 2 * time.Minute, Kind: fault.SlowMachine, Node: 2, Duration: time.Minute, Factor: 1.5},
		{At: 3 * time.Minute, Kind: fault.ActuationFail, Node: 3, Duration: 30 * time.Second},
		{At: 4 * time.Minute, Kind: fault.BEKill, Node: fault.AllNodes},
	}
}

// TestFaultWorkerInvariance extends the engine's determinism claim to
// fault injection: a run with a fault schedule is bit-identical for any
// worker count, and the schedule visibly perturbs the run (down epochs).
func TestFaultWorkerInvariance(t *testing.T) {
	const epochs = 360
	sc := testScenario(epochs * time.Second)

	run := func(workers int) []engine.EpochStat {
		cfg := clusterConfig(workers, testJobs(8))
		cfg.Faults = faultSchedule()
		e := engine.New(cfg)
		defer e.Close()
		e.InstallScenario(sc)
		return runStats(e, epochs)
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d diverged between workers=1 and workers=4 under faults:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
	down := 0
	for _, st := range a {
		down += st.Down
	}
	if down == 0 {
		t.Fatal("no down epochs recorded; the crash fault did not land")
	}
}

// TestFaultWindowsAndStaleLatch steps one engine through the schedule and
// checks the observable effects of each window: the crashed leaf counts
// as down (and as an SLO violation) exactly while its outage lasts, the
// blacked-out leaf's controller walks the stale-telemetry latch to
// emergency and recovers, and the fault counter matches the schedule.
func TestFaultWindowsAndStaleLatch(t *testing.T) {
	cfg := clusterConfig(2, nil)
	cfg.Faults = faultSchedule()
	e := engine.New(cfg)
	defer e.Close()
	sc := testScenario(360 * time.Second)
	e.InstallScenario(sc)

	var stats []engine.EpochStat
	step := func(until time.Duration) {
		for e.Now() < until {
			stats = append(stats, e.Step().Stat)
		}
	}

	step(60 * time.Second)
	if e.NodeDown(0) {
		t.Fatal("node 0 down before its crash fires")
	}
	step(70 * time.Second)
	if !e.NodeDown(0) {
		t.Fatal("node 0 not down inside its outage window")
	}
	last := stats[len(stats)-1]
	if last.Down != 1 {
		t.Fatalf("EpochStat.Down = %d inside the outage, want 1", last.Down)
	}
	if last.Violations == 0 {
		t.Fatal("a down leaf must count as an SLO violation")
	}

	step(110 * time.Second) // outage ends at 105s
	if e.NodeDown(0) {
		t.Fatal("node 0 still down after its outage expired")
	}
	if stats[len(stats)-1].Down != 0 {
		t.Fatalf("EpochStat.Down = %d after recovery, want 0", stats[len(stats)-1].Down)
	}

	// Blackout on node 1 runs 90s-210s; the controller polls every 15s,
	// so by 160s it is 60s stale (4x poll) and must have latched to
	// emergency.
	step(165 * time.Second)
	if st := e.Controller(1).TelemetryState(); st != core.StaleEmergency {
		t.Fatalf("node 1 stale state mid-blackout = %v, want StaleEmergency", st)
	}
	step(240 * time.Second) // blackout over at 210s, next polls see data
	if st := e.Controller(1).TelemetryState(); st != core.StaleOK {
		t.Fatalf("node 1 stale state after blackout = %v, want StaleOK", st)
	}

	step(360 * time.Second)
	if got := e.Snapshot().Faults.Applied; got != len(cfg.Faults) {
		t.Fatalf("faults applied = %d, want %d", got, len(cfg.Faults))
	}
}

// TestFaultCheckpointRestore snapshots a faulted run mid-schedule —
// inside the node-0 outage and the node-1 blackout, with two faults still
// pending — and verifies the restored engine continues bit-identically
// to the uninterrupted run.
func TestFaultCheckpointRestore(t *testing.T) {
	const epochs = 360
	sc := testScenario(epochs * time.Second)

	mkCfg := func() engine.Config {
		cfg := clusterConfig(2, testJobs(8))
		cfg.Faults = faultSchedule()
		return cfg
	}

	ref := engine.New(mkCfg())
	defer ref.Close()
	ref.InstallScenario(sc)
	want := runStats(ref, epochs)

	// Cut at epoch 100: node 0 is down (60s-105s), node 1 blacked out
	// (90s-210s), slow-machine/actfail/be-kill still pending.
	cut := 100
	e := engine.New(mkCfg())
	e.InstallScenario(sc)
	runStats(e, cut)
	if !e.NodeDown(0) {
		t.Fatal("test premise broken: node 0 should be down at the cut")
	}
	cp := e.Snapshot()
	e.Close()

	r, err := engine.Restore(mkCfg(), cp, &sc)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	got := runStats(r, epochs-cut)
	for i := range got {
		if got[i] != want[cut+i] {
			t.Fatalf("epoch %d diverged after restore:\n%+v\nvs uninterrupted\n%+v", cut+i, got[i], want[cut+i])
		}
	}
	if got, want := r.Snapshot().Faults.Applied, ref.Snapshot().Faults.Applied; got != want {
		t.Fatalf("restored run applied %d faults, uninterrupted %d", got, want)
	}
}

// TestInjectFaultValidation: live injection rejects malformed faults and
// schedules valid ones for the next epoch.
func TestInjectFaultValidation(t *testing.T) {
	cfg := clusterConfig(1, nil)
	e := engine.New(cfg)
	defer e.Close()
	e.InstallScenario(testScenario(60 * time.Second))

	if err := e.InjectFault(fault.Fault{Kind: fault.LeafCrash, Node: 99, Duration: time.Second}); err == nil {
		t.Fatal("InjectFault accepted an out-of-range node")
	}
	if err := e.InjectFault(fault.Fault{Kind: fault.LeafCrash, Node: 0}); err == nil {
		t.Fatal("InjectFault accepted a crash without a duration")
	}
	if err := e.InjectFault(fault.Fault{Kind: fault.LeafCrash, Node: 0, Duration: 10 * time.Second}); err != nil {
		t.Fatalf("InjectFault rejected a valid fault: %v", err)
	}
	res := e.Step()
	if res.FaultsApplied != 1 {
		t.Fatalf("FaultsApplied in the epoch after injection = %d, want 1", res.FaultsApplied)
	}
	if !e.NodeDown(0) {
		t.Fatal("node 0 not down after injected crash")
	}
}
