package serve

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/experiment"
	"heracles/internal/machine"
)

// testLab is shared by every test in the package so workload calibration
// and DRAM-model profiling run once.
var testLab = experiment.DefaultLab()

func testServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Lab: testLab})
	t.Cleanup(s.Close)
	return s
}

func TestHubFanOutAndDrop(t *testing.T) {
	h := NewHub()
	a := h.Subscribe(2)
	b := h.Subscribe(2)
	for i := 0; i < 3; i++ {
		h.Publish(Message{Event: "epoch", ID: uint64(i + 1)})
	}
	// Each subscriber holds 2 of the 3 messages; one drop per subscriber.
	if got := h.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if m := <-a.Ch(); m.ID != 1 {
		t.Fatalf("first message id = %d, want 1", m.ID)
	}
	b.Close()
	// A closed subscriber still drains its buffer, then reports closed.
	n := 0
	for range b.Ch() {
		n++
	}
	if n != 2 {
		t.Fatalf("closed subscriber drained %d messages, want 2", n)
	}
	h.Close()
	// Hub close closes the remaining subscriber after its buffer drains.
	for range a.Ch() {
	}
	// Subscribing after close yields an already-closed channel.
	c := h.Subscribe(1)
	if _, open := <-c.Ch(); open {
		t.Fatal("subscribe after close returned an open channel")
	}
}

func TestRegistryOrderAndRemove(t *testing.T) {
	s := testServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 1})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids = append(ids, inst.ID())
	}
	sts := s.Registry().Statuses()
	if len(sts) != 3 {
		t.Fatalf("Statuses len = %d, want 3", len(sts))
	}
	for i, st := range sts {
		if st.ID != ids[i] {
			t.Fatalf("Statuses[%d].ID = %s, want %s (creation order)", i, st.ID, ids[i])
		}
	}
	inst, _, ok := s.Registry().Remove(ids[1])
	if !ok {
		t.Fatal("Remove of live instance failed")
	}
	inst.Stop()
	if got := s.Registry().Len(); got != 2 {
		t.Fatalf("Len after remove = %d, want 2", got)
	}
	if _, ok := s.Registry().Get(ids[1]); ok {
		t.Fatal("removed instance still resolvable")
	}
}

// TestInstanceCapExactUnderConcurrentCreates races many creates against
// a small cap: the reservation protocol must never overshoot it.
func TestInstanceCapExactUnderConcurrentCreates(t *testing.T) {
	s := New(Config{Lab: testLab, MaxInstances: 3})
	t.Cleanup(s.Close)
	const attempts = 12
	var created atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < attempts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 1}); err == nil {
				created.Add(1)
			}
		}()
	}
	wg.Wait()
	if created.Load() != 3 || s.Registry().Len() != 3 {
		t.Fatalf("created %d instances (pool %d), want exactly 3", created.Load(), s.Registry().Len())
	}
}

func TestValidateSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		spec InstanceSpec
		want string
	}{
		{"bad lc", InstanceSpec{LC: "nosuch"}, "unknown LC workload"},
		{"bad be", InstanceSpec{BEs: []BEAttachment{{Workload: "nosuch"}}}, "unknown BE workload"},
		{"bad placement", InstanceSpec{BEs: []BEAttachment{{Workload: "brain", Placement: "floaty"}}}, "unknown placement"},
		{"bad load", InstanceSpec{Load: 1.5}, "outside [0, 1]"},
		{"bad slo", InstanceSpec{SLOScale: -0.5}, "must not be negative"},
		{"bad speed", InstanceSpec{Speed: -7}, "invalid"},
		{"bad epochs", InstanceSpec{MaxEpochs: -1}, "must not be negative"},
	}
	for _, tc := range cases {
		err := validateSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := validateSpec(InstanceSpec{}); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

func TestScenarioSpecBuild(t *testing.T) {
	good := ScenarioSpec{
		Name:      "mix",
		DurationS: 120,
		Load: &ShapeSpec{
			Kind: "sum",
			Terms: []ShapeSpec{
				{Kind: "flat", Value: 0.3},
				{Kind: "flashcrowd", StartS: 60, RiseS: 10, HoldS: 10, FallS: 10, Amp: 0.4},
			},
			Clamp: &ClampSpec{Lo: 0, Hi: 0.85},
		},
		Events: []EventSpec{
			{AtS: 30, Kind: "be-arrive", Workload: "brain"},
			{AtS: 60, Kind: "slo-scale", Factor: 0.8},
			{AtS: 90, Kind: "be-depart", Workload: "brain"},
		},
	}
	sc, err := good.Build()
	if err != nil {
		t.Fatalf("good spec: %v", err)
	}
	if sc.Duration != 2*time.Minute || len(sc.Events) != 3 {
		t.Fatalf("built scenario = %v duration, %d events", sc.Duration, len(sc.Events))
	}
	if load := sc.LoadAt(75 * time.Second); load <= 0.3 {
		t.Fatalf("flash crowd missing: load(75s) = %v", load)
	}

	bad := []ScenarioSpec{
		{DurationS: 0, Load: &ShapeSpec{Kind: "flat", Value: 0.3}},
		{DurationS: 60, Load: nil},
		{DurationS: 60, Load: &ShapeSpec{Kind: "wavy"}},
		{DurationS: 60, Load: &ShapeSpec{Kind: "steps"}},
		{DurationS: 60, Load: &ShapeSpec{Kind: "flat", Value: 0.3},
			Events: []EventSpec{{AtS: 10, Kind: "be-arrive", Workload: "nosuch"}}},
		{DurationS: 60, Load: &ShapeSpec{Kind: "flat", Value: 0.3},
			Events: []EventSpec{{AtS: 10, Kind: "explode"}}},
	}
	for i, sp := range bad {
		if _, err := sp.Build(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestRoutesUniqueAndDocumentedInTable(t *testing.T) {
	rs := Routes()
	if len(rs) == 0 {
		t.Fatal("no routes registered")
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r] {
			t.Errorf("duplicate route %q", r)
		}
		seen[r] = true
	}
	for _, rt := range routeTable {
		if rt.Doc == "" {
			t.Errorf("route %s %s has no doc string", rt.Method, rt.Pattern)
		}
	}
}

// telPoint is the scalar slice of one epoch compared by the checkpoint
// test. (Batch-vs-live determinism itself is pinned at the engine level,
// in internal/engine, which every instance's scheduler slices advance.)
type telPoint struct {
	tail    time.Duration
	emu     float64
	load    float64
	beCores int
	beWays  int
	dram    float64
	power   float64
}

func pointOf(tel machine.Telemetry) telPoint {
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

// runToPark creates a free-running instance that parks at maxEpochs,
// recording every epoch's telemetry, and waits for it to finish.
func runToPark(t *testing.T, s *Server, spec InstanceSpec, maxEpochs int) (*Instance, []telPoint) {
	t.Helper()
	var trace []telPoint
	done := make(chan struct{})
	var once sync.Once
	spec.Speed = SpeedMax
	spec.MaxEpochs = maxEpochs
	prevHook := spec.EpochHook
	spec.EpochHook = func(m *machine.Machine, tel machine.Telemetry) {
		if prevHook != nil {
			prevHook(m, tel)
		}
		trace = append(trace, pointOf(tel))
		if len(trace) == maxEpochs-prestepped(spec) {
			once.Do(func() { close(done) })
		}
	}
	inst, err := s.CreateInstance(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("instance %s resolved %d epochs, want %d", inst.ID(), len(trace), maxEpochs)
	}
	return inst, trace
}

// prestepped returns how many epochs a spec's instance starts at (its
// checkpoint's epoch when restoring, 0 otherwise).
func prestepped(spec InstanceSpec) int {
	if spec.Restore != nil {
		return int(spec.Restore.Engine.Epoch)
	}
	return 0
}

// TestCheckpointRestoreContinuesBitIdentical is the live layer's
// checkpoint round-trip: run an instance to epoch k, checkpoint it over
// the JSON wire form, restore into a fresh instance (as a migration
// would), run the remainder, and require telemetry bit-identical to an
// instance that ran the full horizon uninterrupted — scenario cursor,
// controller latches and telemetry ring all restored mid-flight.
func TestCheckpointRestoreContinuesBitIdentical(t *testing.T) {
	s := testServer(t)
	const k, total = 120, 240
	scSpec := &ScenarioSpec{
		Name:      "det",
		DurationS: 200,
		Load: &ShapeSpec{Kind: "sum", Terms: []ShapeSpec{
			{Kind: "flat", Value: 0.35},
			{Kind: "flashcrowd", StartS: 80, RiseS: 20, HoldS: 20, FallS: 20, Amp: 0.5},
		}},
		Events: []EventSpec{
			{AtS: 40, Kind: "be-arrive", Workload: "streetview"},
			{AtS: 100, Kind: "slo-scale", Factor: 0.7},
			{AtS: 160, Kind: "be-depart", Workload: "streetview"},
		},
	}
	spec := InstanceSpec{
		BEs:      []BEAttachment{{Workload: "brain"}},
		Load:     0.35,
		Scenario: scSpec,
	}

	// The uninterrupted reference.
	_, want := runToPark(t, s, spec, total)

	// Interrupted run: park at k, checkpoint, restore, run the rest.
	instA, prefix := runToPark(t, s, spec, k)
	for i := range prefix {
		if prefix[i] != want[i] {
			t.Fatalf("prefix diverged at epoch %d before the checkpoint", i)
		}
	}
	cp, err := instA.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	wire, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded InstanceCheckpoint
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Engine.Epoch != k {
		t.Fatalf("checkpoint records epoch %d, want %d", decoded.Engine.Epoch, k)
	}
	if decoded.Scenario == nil {
		t.Fatal("checkpoint lost the active scenario spec")
	}

	instB, rest := runToPark(t, s, InstanceSpec{Restore: &decoded}, total)
	if st := instB.Status(); st.LC != "websearch" || st.Epoch != total {
		t.Fatalf("restored instance status: %+v", st)
	}
	if len(rest) != total-k {
		t.Fatalf("restored run resolved %d epochs, want %d", len(rest), total-k)
	}
	for i := range rest {
		if rest[i] != want[k+i] {
			t.Fatalf("restored run diverged at epoch %d (%d after restore):\n%+v\nvs\n%+v",
				k+i, i, want[k+i], rest[i])
		}
	}
}

// TestConcurrentInstancesDoNotPerturbEachOther runs the same spec on
// several concurrent free-running instances and requires bit-identical
// telemetry: engines are per-instance, but the lab, registry and hub
// plumbing are shared, and none of it may leak into the simulation
// (the docs/API.md determinism contract promises this "for any number
// of concurrent instances").
func TestConcurrentInstancesDoNotPerturbEachOther(t *testing.T) {
	s := testServer(t)
	const n = 3
	const epochs = 200
	spec := InstanceSpec{
		BEs:   []BEAttachment{{Workload: "brain"}},
		Load:  0.35,
		Speed: SpeedMax,
		Scenario: &ScenarioSpec{
			Name: "det", DurationS: 180,
			Load: &ShapeSpec{Kind: "ramp", From: 0.3, To: 0.7, EndS: 150},
			Events: []EventSpec{
				{AtS: 60, Kind: "be-arrive", Workload: "streetview"},
				{AtS: 120, Kind: "slo-scale", Factor: 0.8},
			},
		},
	}

	traces := make([][]telPoint, n)
	dones := make([]chan struct{}, n)
	for k := 0; k < n; k++ {
		k := k
		dones[k] = make(chan struct{})
		var once sync.Once
		sp := spec
		sp.MaxEpochs = epochs
		sp.EpochHook = func(_ *machine.Machine, tel machine.Telemetry) {
			traces[k] = append(traces[k], pointOf(tel))
			if len(traces[k]) == epochs {
				once.Do(func() { close(dones[k]) })
			}
		}
		if _, err := s.CreateInstance(sp); err != nil {
			t.Fatalf("create %d: %v", k, err)
		}
	}
	for k := 0; k < n; k++ {
		select {
		case <-dones[k]:
		case <-time.After(30 * time.Second):
			t.Fatalf("instance %d resolved %d/%d epochs", k, len(traces[k]), epochs)
		}
	}
	for k := 1; k < n; k++ {
		for e := 0; e < epochs; e++ {
			if traces[k][e] != traces[0][e] {
				t.Fatalf("instance %d diverges from instance 0 at epoch %d:\n%+v\nvs\n%+v",
					k, e, traces[k][e], traces[0][e])
			}
		}
	}
}

// TestCompactCheckpointRestore: a compact-generation instance restores
// onto the compact lab (the checkpoint carries the hardware generation).
func TestCompactCheckpointRestore(t *testing.T) {
	s := testServer(t)
	inst, trace := runToPark(t, s, InstanceSpec{Load: 0.3, Compact: true}, 30)
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Compact {
		t.Fatal("checkpoint lost the hardware generation")
	}
	restored, rest := runToPark(t, s, InstanceSpec{Restore: cp}, 60)
	if st := restored.Status(); !st.Compact || st.Epoch != 60 {
		t.Fatalf("restored compact instance status: %+v", st)
	}
	_, full := runToPark(t, s, InstanceSpec{Load: 0.3, Compact: true}, 60)
	for i := range rest {
		if rest[i] != full[len(trace)+i] {
			t.Fatalf("compact restore diverged at epoch %d", len(trace)+i)
		}
	}
}

// TestRestoreSpecValidation: restore conflicts with the state-bearing
// spec fields, and broken checkpoints are rejected at create time.
func TestRestoreSpecValidation(t *testing.T) {
	s := testServer(t)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 5, Load: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "instance parked", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if err := validateSpec(InstanceSpec{Restore: cp, LC: "websearch"}); err == nil {
		t.Error("restore+lc accepted")
	}
	if err := validateSpec(InstanceSpec{Restore: cp, Load: 0.5}); err == nil {
		t.Error("restore+load accepted")
	}
	if err := validateSpec(InstanceSpec{Restore: cp, Compact: true}); err == nil {
		t.Error("restore+compact accepted")
	}
	bad := *cp
	bad.Version = 42
	if err := validateSpec(InstanceSpec{Restore: &bad}); err == nil {
		t.Error("bad version accepted")
	}
	noEngine := *cp
	noEngine.Engine = nil
	if err := validateSpec(InstanceSpec{Restore: &noEngine}); err == nil {
		t.Error("missing engine state accepted")
	}
	if err := validateSpec(InstanceSpec{Restore: cp}); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

// TestInstanceDoneParksAndStillServes checks MaxEpochs semantics: the
// simulation stops, the instance stays inspectable and mutable, and the
// status reports done.
func TestInstanceDoneParksAndStillServes(t *testing.T) {
	s := testServer(t)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 50, Load: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "instance done", func() bool {
		return inst.Status().State == StateDone
	})
	st := inst.Status()
	if st.Epoch != 50 {
		t.Fatalf("epoch = %d, want exactly 50", st.Epoch)
	}
	// Mutations still apply (no deadlock against a parked loop).
	if err := inst.SetLoad(0.7); err != nil {
		t.Fatalf("SetLoad on done instance: %v", err)
	}
	if st2 := inst.Status(); st2.Epoch != 50 {
		t.Fatalf("done instance stepped after SetLoad: epoch %d", st2.Epoch)
	}
}

func TestDoAfterStopReturnsErrStopped(t *testing.T) {
	s := testServer(t)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	inst.Stop()
	if err := inst.SetLoad(0.5); err != ErrStopped {
		t.Fatalf("SetLoad after Stop = %v, want ErrStopped", err)
	}
}

// TestMetricNamesMatchRenderers checks that MetricNames — read off a
// rendering of the empty pool, and what the docs check holds docs/API.md
// to — is the family set a populated scrape emits: a family that printed
// its header only when it had series would be missing from it.
func TestMetricNamesMatchRenderers(t *testing.T) {
	rendered := map[string]bool{}
	for _, name := range goldenScrape().Names() {
		rendered[name] = true
	}
	declared := map[string]bool{}
	for _, name := range MetricNames() {
		declared[name] = true
		if !rendered[name] {
			t.Errorf("MetricNames lists %q but the renderers never emit it", name)
		}
	}
	for name := range rendered {
		if !declared[name] {
			t.Errorf("renderers emit %q but MetricNames does not list it", name)
		}
	}
	if len(declared) < 50 {
		t.Errorf("MetricNames lists only %d families", len(declared))
	}
}

func TestWriteMetricsRendersAllFamilies(t *testing.T) {
	var b strings.Builder
	sts := []Status{{
		ID: "i1", State: StateRunning, Epoch: 12,
		Last: EpochUpdate{Load: 0.4, EMU: 0.6, SLOMs: 12, TailMs: 9, Slack: 0.25},
		Actions: []ActionCount{
			{Loop: "top", Action: "ENABLE_BE", Count: 2},
		},
	}}
	WriteMetrics(&b, sts)
	out := b.String()
	for _, want := range []string{
		"heracles_instances 1",
		`heracles_instance_emu{instance="i1"} 0.6`,
		`heracles_instance_slo_slack{instance="i1"} 0.25`,
		`heracles_instance_epochs_total{instance="i1"} 12`,
		`heracles_controller_actions_total{instance="i1",loop="top",action="ENABLE_BE"} 2`,
		"heracles_fleet_emu_mean 0.6",
		"heracles_fleet_slo_slack_min 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
