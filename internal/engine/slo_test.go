package engine_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/slo"
)

// sloConfig is a two-node Heracles engine with the error-budget tracker
// attached; admission coupling is off unless a test turns it on.
func sloConfig(admission bool) engine.Config {
	return engine.Config{
		Nodes:    2,
		HW:       testLab.Cfg,
		LC:       testLab.LC("websearch"),
		Heracles: true,
		Model:    testLab.DRAMModel("websearch"),
		LookupBE: testLab.BE,
		Seed:     11,
		SLO:      &slo.Config{Admission: admission},
	}
}

// sloCrowd is a flash crowd with a service-time degradation riding it
// (an overloaded downstream dependency), saturating the fleet long
// enough to walk the full alert ladder: the page fires (~8.6min of
// sustained violation), the ticket fires (~43min), and the page
// resolves about an hour after the crowd passes, once the violations
// age out of its 1h window. The ticket's 3d window drains far beyond
// the horizon, so its resolution is pinned at the unit level.
func sloCrowd(d time.Duration) scenario.Scenario {
	return scenario.Scenario{
		Name:     "slo-crowd",
		Duration: d,
		Load: scenario.Sum(
			scenario.Flat(0.40),
			scenario.FlashCrowd{Start: 2 * time.Minute, Rise: 30 * time.Second,
				Hold: 47 * time.Minute, Fall: 30 * time.Second, Amp: 0.6},
		),
		Events: []scenario.Event{
			scenario.Degrade(150*time.Second, scenario.AllLeaves, 1.3),
			scenario.Degrade(48*time.Minute, scenario.AllLeaves, 1),
		},
	}
}

// runTransitions steps the engine n epochs collecting every alert edge
// (copied out of the engine's scratch).
func runTransitions(e *engine.Engine, n int) []slo.Transition {
	var out []slo.Transition
	for i := 0; i < n; i++ {
		out = append(out, e.Step().SLOTransitions...)
	}
	return out
}

func transitionString(ts []slo.Transition) string {
	var b strings.Builder
	for _, tr := range ts {
		state := "resolve"
		if tr.Firing {
			state = "fire"
		}
		fmt.Fprintf(&b, "%d n%d %s %s\n", tr.Epoch, tr.Node, tr.Alert, state)
	}
	return b.String()
}

// TestSLOAlertSequenceGolden pins the exact alert sequence a FlashCrowd
// scenario produces — the fire/resolve edges, their epochs and their
// order. Any change to the burn-rate math, the violation predicate
// or the reduction order shows up here as a diff.
func TestSLOAlertSequenceGolden(t *testing.T) {
	const epochs = 7200 // 2 sim-hours: the page resolve needs the 1h drain
	sc := sloCrowd(epochs * time.Second)

	e := engine.New(sloConfig(false))
	e.InstallScenario(sc)
	got := runTransitions(e, epochs)

	golden := strings.TrimLeft(`
669 n0 page fire
669 n1 page fire
669 n-1 page fire
2743 n0 ticket fire
2743 n1 ticket fire
2743 n-1 ticket fire
6223 n0 page resolve
6223 n1 page resolve
6223 n-1 page resolve
`, "\n")
	if s := transitionString(got); s != golden {
		t.Fatalf("alert sequence diverged from golden:\ngot:\n%swant:\n%s", s, golden)
	}
}

// TestSLOCheckpointRoundTrip snapshots mid-alert (page firing, ticket
// not yet) through the JSON wire form and requires the restored engine
// to replay the identical remaining alert sequence and land on the
// identical final budget status — window contents, alert latches and
// lifetime counters all travel in the checkpoint.
func TestSLOCheckpointRoundTrip(t *testing.T) {
	const epochs, k = 3600, 800 // k is inside the page-firing window
	sc := sloCrowd(epochs * time.Second)

	ref := engine.New(sloConfig(false))
	defer ref.Close()
	ref.InstallScenario(sc)
	want := runTransitions(ref, epochs)

	pre := engine.New(sloConfig(false))
	pre.InstallScenario(sc)
	prefix := runTransitions(pre, k)
	if !pre.SLOClusterStatus().Page {
		t.Fatalf("snapshot epoch %d should be inside the page-firing window", k)
	}
	cp := pre.Snapshot()
	pre.Close()

	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := engine.DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Restore(sloConfig(false), decoded, &sc)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if !res.SLOClusterStatus().Page {
		t.Fatal("restored engine lost the firing page alert")
	}
	rest := runTransitions(res, epochs-k)

	whole := transitionString(want)
	spliced := transitionString(prefix) + transitionString(rest)
	if whole != spliced {
		t.Fatalf("restored run's alert sequence diverged:\nuninterrupted:\n%sspliced:\n%s", whole, spliced)
	}
	if a, b := ref.SLOClusterStatus(), res.SLOClusterStatus(); a != b {
		t.Fatalf("final budget status diverged:\n%+v\nvs\n%+v", a, b)
	}
	for i := 0; i < ref.Nodes(); i++ {
		if a, b := ref.SLONodeStatus(i), res.SLONodeStatus(i); a != b {
			t.Fatalf("node %d budget status diverged:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// TestSLORestoreRejectsMismatchedConfig: a checkpoint carrying budget
// state cannot restore into an engine without Config.SLO.
func TestSLORestoreRejectsMismatchedConfig(t *testing.T) {
	e := engine.New(sloConfig(false))
	runStats(e, 10)
	cp := e.Snapshot()
	e.Close()
	cfg := sloConfig(false)
	cfg.SLO = nil
	if _, err := engine.Restore(cfg, cp, nil); err == nil {
		t.Fatal("restore without Config.SLO accepted a budget-carrying checkpoint")
	}
}

// sloCrowdShock is the burn-rate-admission acceptance scenario: a flash
// crowd with a degraded dependency (mass violations, fires the page),
// then an hour of aftershock blips — 6s of deg-1.2 every 41s — that
// violate the SLO only when best-effort work is colocated. The
// instantaneous controller re-admits BE five minutes after each caught
// violation and walks into the next blip; the burn-rate gate holds
// admission until the crowd's violations drain from the 1h window,
// riding out the whole aftershock phase.
func sloCrowdShock(d time.Duration) scenario.Scenario {
	evs := []scenario.Event{
		scenario.Degrade(150*time.Second, scenario.AllLeaves, 1.35),
		scenario.Degrade(13*time.Minute, scenario.AllLeaves, 1),
	}
	for t := 800; t < 4400; t += 41 {
		evs = append(evs,
			scenario.Degrade(time.Duration(t)*time.Second, scenario.AllLeaves, 1.2),
			scenario.Degrade(time.Duration(t+6)*time.Second, scenario.AllLeaves, 1))
	}
	return scenario.Scenario{
		Name:     "slo-crowd-shock",
		Duration: d,
		Load: scenario.Sum(
			scenario.Flat(0.70),
			scenario.FlashCrowd{Start: 2 * time.Minute, Rise: 30 * time.Second,
				Hold: 10 * time.Minute, Fall: 30 * time.Second, Amp: 0.30},
		),
		Events: evs,
	}
}

// sloJobs submits a steady stream of best-effort work so admission has
// something to throttle.
func sloJobs(n int) []sched.JobSpec {
	jobs := make([]sched.JobSpec, n)
	for i := range jobs {
		jobs[i] = sched.JobSpec{
			Name: "j", Workload: "brain", Demand: 1 + i%2,
			Work: 45 * time.Second, Retries: 1000,
			Submit: time.Duration(i) * 20 * time.Second,
		}
	}
	return jobs
}

// TestSLOAdmissionBeatsController runs the crowd+aftershock scenario
// twice from the same seed — once with the controller alone, once with
// burn-rate admission coupled in — and requires the gated run to spend
// strictly less error budget at equal goodput: the same jobs complete
// the same work, with fewer evictions and no wasted best-effort CPU,
// because the gate defers dispatch past the shaky aftershock hour
// instead of re-admitting into every blip. It also checks the gate's
// mechanics: AdmitHold is advertised exactly while the page fires, and
// overlaps controller-enabled epochs (the gate binds where the
// controller alone would dispatch).
func TestSLOAdmissionBeatsController(t *testing.T) {
	const epochs = 9000
	type arm struct {
		budget  float64
		overlap int
		acct    sched.Accounting
	}
	run := func(admission bool) arm {
		cfg := sloConfig(admission)
		cfg.SLO = &slo.Config{Objective: 0.999, Admission: admission}
		cfg.Sched = &sched.Config{Policy: sched.SlackGreedy{}, Jobs: sloJobs(24), EvictGrace: 20 * time.Second}
		e := engine.New(cfg)
		defer e.Close()
		e.InstallScenario(sloCrowdShock(epochs * time.Second))
		var a arm
		for i := 0; i < epochs; i++ {
			e.Step()
			for n := 0; n < e.Nodes(); n++ {
				hold := e.NodeState(n).AdmitHold
				page := e.SLONodeStatus(n).Page
				if hold != (admission && page) {
					t.Fatalf("epoch %d node %d: AdmitHold=%v with admission=%v page=%v", i, n, hold, admission, page)
				}
				if hold && e.Controller(n).BEEnabled() {
					a.overlap++
				}
			}
		}
		a.budget = e.SLOClusterStatus().BudgetSpent
		_, acct := e.SchedAccounting()
		a.acct = *acct
		return a
	}

	open := run(false)
	gated := run(true)

	if gated.overlap == 0 {
		t.Fatal("the admission gate never bound: AdmitHold never overlapped a controller-enabled node")
	}
	if gated.budget >= open.budget {
		t.Fatalf("burn-rate admission did not save budget: gated %.4f vs controller-only %.4f", gated.budget, open.budget)
	}
	if gated.acct.Completed < open.acct.Completed || gated.acct.GoodCPUSec < open.acct.GoodCPUSec {
		t.Fatalf("admission sacrificed goodput: gated %d jobs/%.0f cpu-s vs %d jobs/%.0f cpu-s",
			gated.acct.Completed, gated.acct.GoodCPUSec, open.acct.Completed, open.acct.GoodCPUSec)
	}
	if gated.acct.Evictions >= open.acct.Evictions {
		t.Fatalf("admission did not reduce evictions: %d vs %d", gated.acct.Evictions, open.acct.Evictions)
	}
}
