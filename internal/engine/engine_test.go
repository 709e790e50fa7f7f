package engine_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/serve"
	"heracles/internal/workload"
)

// testLab is shared by every test in the package so workload calibration
// and DRAM-model profiling run once.
var testLab = experiment.DefaultLab()

// clusterConfig is a small Heracles fleet with root sampling, dynamic
// targets and a job scheduler — every optional subsystem on, so the
// determinism and checkpoint tests cover all the state there is.
func clusterConfig(jobs []sched.JobSpec) engine.Config {
	brain := testLab.BE("brain")
	sview := testLab.BE("streetview")
	cfg := engine.Config{
		Nodes:          4,
		HW:             testLab.Cfg,
		LC:             testLab.LC("websearch"),
		Heracles:       true,
		Model:          testLab.DRAMModel("websearch"),
		LookupBE:       testLab.BE,
		SLOScale:       0.8,
		RootSamples:    1,
		Seed:           7,
		DynamicTargets: true,
	}
	if jobs != nil {
		cfg.Sched = &sched.Config{Policy: sched.SlackGreedy{}, Jobs: jobs, EvictGrace: 20 * time.Second}
	} else {
		cfg.InitialBEs = func(i int) []engine.BEAttach {
			if i%2 == 0 {
				return []engine.BEAttach{{WL: brain, Placement: workload.PlaceDedicated}}
			}
			return []engine.BEAttach{{WL: sview, Placement: workload.PlaceDedicated}}
		}
	}
	return cfg
}

// testScenario exercises every event kind.
func testScenario(d time.Duration) scenario.Scenario {
	return scenario.Scenario{
		Name:     "mix",
		Duration: d,
		Load: scenario.Sum(
			scenario.Flat(0.35),
			scenario.FlashCrowd{Start: d / 3, Rise: 30 * time.Second, Hold: time.Minute, Fall: 30 * time.Second, Amp: 0.35},
		),
		Events: []scenario.Event{
			scenario.BEArrive(2*time.Minute, 1, "brain"),
			scenario.Degrade(3*time.Minute, 2, 1.2),
			scenario.SLOScale(4*time.Minute, scenario.AllLeaves, 0.75),
			scenario.BEDepart(5*time.Minute, 1, "brain"),
			scenario.LoadScale(6*time.Minute, 1.1),
		},
	}
}

func testJobs(n int) []sched.JobSpec {
	jobs := make([]sched.JobSpec, n)
	for i := range jobs {
		jobs[i] = sched.JobSpec{
			Name: "j", Workload: "brain", Demand: 1 + i%3,
			Work: 90 * time.Second, Retries: 3,
			Submit: time.Duration(i) * 20 * time.Second,
		}
	}
	return jobs
}

// runStats steps the engine n epochs and returns the per-epoch stats.
func runStats(e *engine.Engine, n int) []engine.EpochStat {
	out := make([]engine.EpochStat, n)
	for i := 0; i < n; i++ {
		out[i] = e.Step().Stat
	}
	return out
}

// telPoint is the scalar slice of one epoch compared bit-for-bit by the
// batch-vs-live test.
type telPoint struct {
	tail    time.Duration
	emu     float64
	load    float64
	beCores int
	beWays  int
	dram    float64
	power   float64
}

func point(tel machine.Telemetry) telPoint {
	return telPoint{
		tail:    tel.TailLatency,
		emu:     tel.EMU,
		load:    tel.LCLoad,
		beCores: tel.BECores,
		beWays:  tel.BEWays,
		dram:    tel.DRAMUtil,
		power:   tel.PowerFracTDP,
	}
}

// TestBatchVsMailboxBitIdentical is the engine-level equivalence test
// that replaces the old per-layer batch-vs-live determinism tests: the
// same single-node configuration is run once by stepping the engine
// directly (the batch style internal/cluster drives) and once inside a
// live serve.Instance whose driver goroutine advances its engine under
// the command mailbox — with harmless commands interleaved to exercise
// the mailbox path. Telemetry must match bit-for-bit: the equivalence is
// structural (one engine, two drivers), and this test pins it.
func TestBatchVsMailboxBitIdentical(t *testing.T) {
	const epochs = 240
	scSpec := &serve.ScenarioSpec{
		Name:      "det",
		DurationS: 200,
		Load: &serve.ShapeSpec{Kind: "sum", Terms: []serve.ShapeSpec{
			{Kind: "flat", Value: 0.35},
			{Kind: "flashcrowd", StartS: 80, RiseS: 20, HoldS: 20, FallS: 20, Amp: 0.5},
		}},
		Events: []serve.EventSpec{
			{AtS: 40, Kind: "be-arrive", Workload: "streetview"},
			{AtS: 120, Kind: "slo-scale", Factor: 0.7},
			{AtS: 160, Kind: "be-depart", Workload: "streetview"},
		},
	}
	sc, err := scSpec.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Batch: step the engine directly.
	brain := testLab.BE("brain")
	cfg := engine.Config{
		Nodes:    1,
		HW:       testLab.Cfg,
		LC:       testLab.LC("websearch"),
		Heracles: true,
		Model:    testLab.DRAMModel("websearch"),
		LookupBE: testLab.BE,
		Load:     0.35,
		InitialBEs: func(int) []engine.BEAttach {
			return []engine.BEAttach{{WL: brain, Placement: workload.PlaceDedicated}}
		},
	}
	batchEng := engine.New(cfg)
	defer batchEng.Close()
	batchEng.InstallScenario(sc)
	batch := make([]telPoint, epochs)
	for i := 0; i < epochs; i++ {
		batch[i] = point(batchEng.Step().Tel[0])
	}

	// Live: the same spec inside a mailbox-driven instance.
	srv := serve.New(serve.Config{Lab: testLab})
	defer srv.Close()
	live := make([]telPoint, 0, epochs)
	done := make(chan struct{})
	var once sync.Once
	inst, err := srv.CreateInstance(serve.InstanceSpec{
		BEs:       []serve.BEAttachment{{Workload: "brain"}},
		Load:      0.35,
		Speed:     serve.SpeedMax,
		MaxEpochs: epochs,
		Scenario:  scSpec,
		EpochHook: func(_ *machine.Machine, tel machine.Telemetry) {
			live = append(live, point(tel))
			if len(live) == epochs {
				once.Do(func() { close(done) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave no-op commands through the mailbox while the driver
	// free-runs: the mutation path must not perturb the simulation.
	noops := make(chan struct{})
	go func() {
		defer close(noops)
		for j := 0; j < 50; j++ {
			if _, err := inst.DetachBE("no-such-workload"); err != nil {
				return
			}
			inst.Status()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("live instance resolved %d/%d epochs", len(live), epochs)
	}
	<-noops

	for i := 0; i < epochs; i++ {
		if batch[i] != live[i] {
			t.Fatalf("batch and mailbox-driven runs diverged at epoch %d:\n%+v\nvs\n%+v", i, batch[i], live[i])
		}
	}
}

// TestCheckpointRoundTrip is the checkpoint property test: for several
// snapshot epochs k, running k epochs, serializing a checkpoint through
// its JSON wire form, restoring, and running the remainder must be
// bit-identical — stat for stat — to a run that was never interrupted.
// The configuration has every stateful subsystem on (controllers, job
// scheduler, scenario events, dynamic leaf targets, root sampling), so
// any piece of state missing from the checkpoint fails the comparison.
func TestCheckpointRoundTrip(t *testing.T) {
	const epochs = 480
	sc := testScenario(epochs * time.Second)

	ref := engine.New(clusterConfig(testJobs(8)))
	defer ref.Close()
	ref.InstallScenario(sc)
	want := runStats(ref, epochs)

	for _, k := range []int{60, 240, 419} {
		pre := engine.New(clusterConfig(testJobs(8)))
		pre.InstallScenario(sc)
		prefix := runStats(pre, k)
		for i := range prefix {
			if prefix[i] != want[i] {
				pre.Close()
				t.Fatalf("k=%d: prefix epoch %d diverged before the checkpoint", k, i)
			}
		}
		cp := pre.Snapshot()
		pre.Close()

		// Round-trip the wire format: what restores is the serialized
		// artifact, not the in-memory object graph.
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}
		decoded, err := engine.DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if decoded.Epoch != uint64(k) {
			t.Fatalf("k=%d: checkpoint records epoch %d", k, decoded.Epoch)
		}

		res, err := engine.Restore(clusterConfig(testJobs(8)), decoded, &sc)
		if err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		got := runStats(res, epochs-k)
		_, acct := res.SchedAccounting()
		res.Close()
		for i := range got {
			if got[i] != want[k+i] {
				t.Fatalf("k=%d: restored run diverged at epoch %d (%d after restore):\n%+v\nvs\n%+v",
					k, k+i, i, want[k+i], got[i])
			}
		}
		// The scheduler's lifetime accounting must also survive: the
		// resumed run's equals the uninterrupted run's.
		if _, refAcct := ref.SchedAccounting(); !reflect.DeepEqual(acct, refAcct) {
			t.Fatalf("k=%d: scheduler accounting diverged:\n%+v\nvs\n%+v", k, acct, refAcct)
		}
	}
}

// TestRestoreRejectsMismatches covers the checkpoint validation
// surface: wrong version, missing scenario, wrong scenario name.
func TestRestoreRejectsMismatches(t *testing.T) {
	sc := testScenario(120 * time.Second)
	e := engine.New(clusterConfig(nil))
	e.InstallScenario(sc)
	runStats(e, 10)
	cp := e.Snapshot()
	e.Close()

	bad := *cp
	bad.Version = 99
	if _, err := engine.Restore(clusterConfig(nil), &bad, &sc); err == nil {
		t.Fatal("version mismatch accepted")
	}
	if _, err := engine.Restore(clusterConfig(nil), cp, nil); err == nil {
		t.Fatal("missing scenario accepted")
	}
	other := sc
	other.Name = "other"
	if _, err := engine.Restore(clusterConfig(nil), cp, &other); err == nil {
		t.Fatal("scenario name mismatch accepted")
	}
}
