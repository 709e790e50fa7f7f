package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/machine"
)

// migrationSpec is a state-rich run: a flash crowd on top of flat load,
// a BE task arriving and departing, and an SLO tightening — so the
// engine state a migration must carry is far from trivial.
func migrationSpec(speed float64) InstanceSpec {
	return InstanceSpec{
		Load:      0.3,
		Speed:     speed,
		MaxEpochs: 130,
		Scenario: &ScenarioSpec{
			Name:      "migration-mix",
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
		},
	}
}

// migrationPace runs an epoch every ~2ms of wall time: slow enough that
// the test migrates the instance mid-run, fast enough that 130 epochs
// finish in well under a second.
const migrationPace = 500

// finalEngineJSON waits for the instance to finish and returns its full
// engine checkpoint — telemetry rings, controller state, scenario
// cursor, BE scheduler accounting — as canonical JSON. Byte equality of
// this blob is the bit-identity pin.
func finalEngineJSON(t *testing.T, inst *Instance) []byte {
	t.Helper()
	awaitInstance(t, inst, "run complete", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	b, err := json.Marshal(cp.Engine)
	if err != nil {
		t.Fatalf("marshal engine state: %v", err)
	}
	return b
}

// referenceEngineJSON free-runs the migration spec to completion on an
// untouched single-shard server.
func referenceEngineJSON(t *testing.T) []byte {
	t.Helper()
	ref := New(Config{Lab: testLab})
	t.Cleanup(ref.Close)
	inst, err := ref.CreateInstance(migrationSpec(SpeedMax))
	if err != nil {
		t.Fatalf("reference create: %v", err)
	}
	return finalEngineJSON(t, inst)
}

// TestMigrateCrossShardBitIdentical migrates a paced instance across
// shards twice mid-run and pins its final engine state — telemetry and
// scheduler accounting included — bit-identical to a run that never
// moved. The engine is deterministic and wall-clock-free, so a correct
// checkpoint/restore migration must not perturb a single byte.
func TestMigrateCrossShardBitIdentical(t *testing.T) {
	want := referenceEngineJSON(t)

	s := New(Config{Lab: testLab, Shards: 4})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(migrationSpec(migrationPace))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cur := inst
	for hop, minEpoch := range []uint64{30, 80} {
		awaitInstance(t, cur, "mid-run epoch reached", func() bool {
			return cur.Status().Epoch >= minEpoch
		})
		from := cur.Status().Shard
		target := (from + 1) % s.Registry().ShardCount()
		res, err := s.MigrateToShard(cur.ID(), target)
		if err != nil {
			t.Fatalf("hop %d: migrate: %v", hop, err)
		}
		if res.FromShard != from || res.ToShard != target {
			t.Fatalf("hop %d: migrated %d -> %d, want %d -> %d", hop, res.FromShard, res.ToShard, from, target)
		}
		next, ok := s.Registry().Get(res.To)
		if !ok {
			t.Fatalf("hop %d: restored instance %s not in registry", hop, res.To)
		}
		if got := next.Status().Shard; got != target {
			t.Fatalf("hop %d: restored instance reports shard %d, want %d", hop, got, target)
		}
		for _, sh := range s.Registry().ShardStatuses() {
			want := 0
			if sh.Shard == target {
				want = 1
			}
			if sh.Instances != want {
				t.Fatalf("hop %d: shard %d counts %d instances, want %d", hop, sh.Shard, sh.Instances, want)
			}
		}
		if _, ok := s.Registry().Get(res.From); ok {
			t.Fatalf("hop %d: origin instance %s still registered", hop, res.From)
		}
		cur = next
	}
	if got := s.Registry().Migrations(); got != 2 {
		t.Fatalf("migration counter = %d, want 2", got)
	}
	got := finalEngineJSON(t, cur)
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-shard migration diverged from the unmigrated run:\n got  %d bytes %s\n want %d bytes %s",
			len(got), trimJSON(got), len(want), trimJSON(want))
	}
}

// TestMigrateCrossDaemonBitIdentical migrates a paced instance from one
// in-process daemon to a second over HTTP mid-run, then back again, and
// pins the final engine state bit-identical to a run that never moved.
func TestMigrateCrossDaemonBitIdentical(t *testing.T) {
	want := referenceEngineJSON(t)

	s1 := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s1.Close)
	s2 := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s2.Close)
	ts1 := httptest.NewServer(s1.Handler())
	t.Cleanup(ts1.Close)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	inst, err := s1.CreateInstance(migrationSpec(migrationPace))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	awaitInstance(t, inst, "mid-run epoch reached", func() bool {
		return inst.Status().Epoch >= 30
	})
	res, err := s1.MigrateToPeer(inst.ID(), ts2.URL)
	if err != nil {
		t.Fatalf("migrate to peer: %v", err)
	}
	if res.Peer != ts2.URL {
		t.Fatalf("result peer = %q, want %q", res.Peer, ts2.URL)
	}
	if _, ok := s1.Registry().Get(res.From); ok {
		t.Fatalf("origin instance %s still registered on the source daemon", res.From)
	}
	hosted, ok := s2.Registry().Get(res.To)
	if !ok {
		t.Fatalf("restored instance %s not on the peer daemon", res.To)
	}

	// And back: the second hop starts from the restored copy's state, so
	// surviving it proves the shipped checkpoint was complete.
	awaitInstance(t, hosted, "mid-run epoch reached on peer", func() bool {
		return hosted.Status().Epoch >= 80
	})
	res, err = s2.MigrateToPeer(hosted.ID(), ts1.URL)
	if err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	home, ok := s1.Registry().Get(res.To)
	if !ok {
		t.Fatalf("twice-migrated instance %s not back on the first daemon", res.To)
	}
	if s1.Registry().Migrations() != 1 || s2.Registry().Migrations() != 1 {
		t.Fatalf("migration counters = %d/%d, want 1/1",
			s1.Registry().Migrations(), s2.Registry().Migrations())
	}
	got := finalEngineJSON(t, home)
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-daemon migration diverged from the unmigrated run:\n got  %d bytes %s\n want %d bytes %s",
			len(got), trimJSON(got), len(want), trimJSON(want))
	}
}

// TestMigrateKeepsPacingClock bounces a paced instance between two
// shards four times per tick interval. The restored copy must inherit the
// origin's schedule: restarting the clock at now+interval on every move
// (what newInstance does for a fresh instance) means the instance never
// steps at all.
func TestMigrateKeepsPacingClock(t *testing.T) {
	const speed = 20 // one epoch per 50ms of wall time
	interval := time.Second / speed

	s := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s.Close)
	// The hook travels with in-process migrations, so the count spans
	// every copy; it also keeps the cadence at one epoch per slice.
	var epochs atomic.Int64
	inst, err := s.CreateInstance(InstanceSpec{
		Load:      0.3,
		Speed:     speed,
		EpochHook: func(*machine.Machine, machine.Telemetry) { epochs.Add(1) },
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id, shard := inst.ID(), inst.Status().Shard
	for start := time.Now(); time.Since(start) < 20*interval; time.Sleep(interval / 4) {
		shard = 1 - shard
		res, err := s.MigrateToShard(id, shard)
		if err != nil {
			t.Fatalf("migrate %s to shard %d: %v", id, shard, err)
		}
		id = res.To
	}
	if got := epochs.Load(); got < 19 {
		t.Fatalf("instance migrated every %v advanced %d epochs in 20 intervals of %v, want >= 19",
			interval/4, got, interval)
	}
}

func readCadence(in *Instance) cadence {
	in.stepMu.Lock()
	defer in.stepMu.Unlock()
	return in.cad
}

// TestMigrateHandsOverCadence pins the hand-over itself, without a clock:
// the checkpoint carries the origin's due time, batch and stretch, and a
// restore through the create API continues them exactly as a shard
// migration does. A document without the fields, and an HRCF version 1
// file from a build that never wrote them, start a fresh schedule.
func TestMigrateHandsOverCadence(t *testing.T) {
	s := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.3, Speed: 1})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Three of the slice's four intervals out: inside the clamp, so the
	// instant must survive to the nanosecond.
	want := cadence{nextAt: time.Now().Add(3 * time.Second), batch: 4, stretch: 8}
	inst.stepMu.Lock()
	inst.cad.nextAt, inst.cad.batch, inst.cad.stretch = want.nextAt, want.batch, want.stretch
	inst.stepMu.Unlock()
	continues := func(how string, in *Instance) {
		t.Helper()
		got := readCadence(in)
		if got.nextAt.UnixNano() != want.nextAt.UnixNano() || got.batch != want.batch || got.stretch != want.stretch {
			t.Fatalf("%s: cadence = %+v, want the origin's %+v", how, got, want)
		}
		if got.nextAt == got.nextAt.Round(0) {
			t.Fatalf("%s: restored due time %v has no monotonic reading", how, got.nextAt)
		}
	}
	fresh := func(how string, spec InstanceSpec) {
		t.Helper()
		before := time.Now()
		in, err := s.CreateInstance(spec)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		got := readCadence(in)
		if got.stretch != 1 || got.batch != 1 || got.nextAt.Before(before.Add(time.Second)) || got.nextAt.After(time.Now().Add(time.Second)) {
			t.Fatalf("%s: cadence = %+v, want a first tick one interval out at stretch 1", how, got)
		}
	}

	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cp.NextDueUnixNano != want.nextAt.UnixNano() || cp.Batch != want.batch || cp.Stretch != want.stretch {
		t.Fatalf("checkpoint carries due %d batch %d stretch %d, want %+v", cp.NextDueUnixNano, cp.Batch, cp.Stretch, want)
	}
	viaAPI, err := s.CreateInstance(InstanceSpec{Restore: cp})
	if err != nil {
		t.Fatalf("restore through create: %v", err)
	}
	continues("restore through create", viaAPI)

	// A speed sent beside the restore resolves the interval the clamp uses:
	// at 50x the carried slice spans 80 ms, not four seconds.
	fast, err := s.CreateInstance(InstanceSpec{Restore: cp, Speed: 50})
	if err != nil {
		t.Fatalf("restore at speed 50: %v", err)
	}
	if got := readCadence(fast); got.batch != want.batch || got.stretch != want.stretch || time.Until(got.nextAt) > 80*time.Millisecond {
		t.Fatalf("restore at speed 50: cadence = %+v, want the origin's batch and stretch due within 80ms", got)
	}

	bare := *cp
	bare.NextDueUnixNano, bare.Batch, bare.Stretch = 0, 0, 0
	fresh("document without pacing", InstanceSpec{Restore: &bare})
	v1, err := DecodeCheckpointFile(corpusSeed(t, "binary-valid-v2-long"))
	if err != nil {
		t.Fatalf("HRCF version 1 seed: %v", err)
	}
	fresh("HRCF version 1 file", InstanceSpec{Restore: v1, Speed: 1, MaxEpochs: 1000})

	res, err := s.MigrateToShard(inst.ID(), 1-inst.Status().Shard)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	moved, ok := s.Registry().Get(res.To)
	if !ok {
		t.Fatalf("restored instance %s not in registry", res.To)
	}
	continues("shard migration", moved)
}

// trimJSON keeps failure output readable: engine checkpoints run to
// hundreds of KB.
func trimJSON(b []byte) string {
	const max = 512
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "..."
}

// TestFailedMigrationKeepsCreationOrder moves the first of three
// instances to a peer that refuses it. The instance is reinstated, and
// List and Statuses, which promise creation order, must still put it
// first, not last.
func TestFailedMigrationKeepsCreationOrder(t *testing.T) {
	s := New(Config{Lab: testLab})
	t.Cleanup(s.Close)
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no room", http.StatusServiceUnavailable)
	}))
	t.Cleanup(refuse.Close)
	var want []string
	for range 3 {
		inst, err := s.CreateInstance(InstanceSpec{Load: 0.5, MaxEpochs: 5})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		want = append(want, inst.ID())
	}
	if _, err := s.MigrateToPeer(want[0], refuse.URL); err == nil {
		t.Fatal("migration to a refusing peer succeeded")
	}
	var list, statuses []string
	for _, inst := range s.Registry().List() {
		list = append(list, inst.ID())
	}
	for _, st := range s.Registry().Statuses() {
		statuses = append(statuses, st.ID)
	}
	if !slices.Equal(list, want) || !slices.Equal(statuses, want) {
		t.Fatalf("after a failed migration List reads %v and Statuses %v, want creation order %v", list, statuses, want)
	}
}
