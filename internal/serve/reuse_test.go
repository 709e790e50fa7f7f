package serve

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The restart point as the instance's one encoding (DESIGN.md §12): a
// shard move ships it while it is current, the copy adopts the wire
// bytes, and whatever moves the engine makes it stale.

// reuseServer is a two-shard server whose instances are due once a
// simulated year has passed and whose job driver ticks once an hour:
// only the test steps or probes them.
func reuseServer(t *testing.T, dir string) *Server {
	t.Helper()
	s := New(Config{Lab: testLab, Shards: 2, restartBackoff: time.Hour, checkpointEpochs: 30,
		schedInterval: time.Hour, CheckpointDir: dir, CheckpointEvery: time.Hour})
	t.Cleanup(s.Close)
	return s
}

// freshEncoding encodes a fresh snapshot of inst, bypassing its restart
// point.
func freshEncoding(t *testing.T, inst *Instance) []byte {
	t.Helper()
	inst.stepMu.Lock()
	defer inst.stepMu.Unlock()
	data, err := AppendCheckpointFileBinary(nil, inst.buildCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restartPoint returns a copy of inst's restart point and whether it is
// current.
func restartPoint(inst *Instance) ([]byte, bool) {
	inst.stepMu.Lock()
	defer inst.stepMu.Unlock()
	return bytes.Clone(inst.lastCP), inst.cpCurrent()
}

// shardMove moves inst to its other shard and returns the copy.
func shardMove(t *testing.T, s *Server, inst *Instance) *Instance {
	t.Helper()
	res, err := s.MigrateToShard(inst.ID(), 1-inst.shard)
	if err != nil {
		t.Fatal(err)
	}
	copy, ok := s.reg.Get(res.To)
	if !ok {
		t.Fatalf("copy %s not registered", res.To)
	}
	return copy
}

// TestShippedEncodingMatchesFreshUnderMutations runs each way an engine
// changes between two shard moves. The bytes each move ships, which the
// copy keeps as its restart point, must equal a fresh encode of the
// origin's state, and the copy's restart point must be current.
func TestShippedEncodingMatchesFreshUnderMutations(t *testing.T) {
	s := reuseServer(t, "")
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1e-8, BEs: []BEAttachment{{Workload: "brain"}}})
	if err != nil {
		t.Fatal(err)
	}
	// slice runs one scheduler slice of n epochs.
	slice := func(n int) {
		inst.stepMu.Lock()
		inst.cad.batch = n
		inst.stepMu.Unlock()
		inst.runSlice()
	}
	call := func(method, path, body string) {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(method, "/api/v1/instances/"+inst.ID()+path, strings.NewReader(body)))
		if w.Code >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body)
		}
	}
	slice(30) // to a refresh at the slice's end; the controller allows BE work

	for _, c := range []struct {
		name   string
		mutate func()
	}{
		{"nothing", func() {}},
		{"PUT load", func() { call("PUT", "/load", `{"load":0.55}`) }},
		{"PUT slo", func() { call("PUT", "/slo", `{"scale":0.8}`) }},
		{"PUT degrade", func() { call("PUT", "/degrade", `{"factor":1.3}`) }},
		{"POST bes", func() { call("POST", "/bes", `{"workload":"streetview"}`) }},
		{"DELETE bes", func() { call("DELETE", "/bes/streetview", "") }},
		{"POST scenario", func() {
			call("POST", "/scenario", `{"name":"steps","duration_s":30,"load":{"kind":"steps","levels":[{"at_s":0,"load":0.3},{"at_s":15,"load":0.6}]}}`)
		}},
		{"POST faults", func() { call("POST", "/faults", `{"kind":"slow-machine","duration_s":60}`) }},
		{"job task start", func() {
			if _, err := inst.startSchedTask("brain"); err != nil {
				t.Fatal(err)
			}
		}},
		{"stepped epoch", func() { slice(1) }},
		{"slice refreshing mid-slice", func() {
			before := inst.Status().Epoch
			slice(45) // the copy refreshes at its 30th epoch
			point, _ := restartPoint(inst)
			cp, err := DecodeCheckpointFile(point)
			if err != nil || cp.Engine.Epoch != before+30 || inst.Status().Epoch != before+45 {
				t.Fatalf("slice: restart point at %v (%v), instance at %d; want %d and %d",
					cp.Engine.Epoch, err, inst.Status().Epoch, before+30, before+45)
			}
		}},
	} {
		c.mutate()
		want := freshEncoding(t, inst)
		inst.stepMu.Lock()
		pruned := len(inst.envelope().FleetTasks) > 0
		inst.stepMu.Unlock()
		copy := shardMove(t, s, inst)
		// The copy keeps the shipped bytes, unless it dropped the fleet
		// task and refreshed a restart point of its own.
		shipped, current := restartPoint(copy)
		if !current || !pruned && !bytes.Equal(shipped, want) {
			t.Fatalf("after %s: copy's restart point current %v, the shipped bytes equal to a fresh encode %v", c.name, current, bytes.Equal(shipped, want))
		}
		// What the copy would ship next is its own state: the restore
		// the adopted bytes stand for is exact.
		copy.stepMu.Lock()
		next, _, err := copy.encode(nil)
		copy.stepMu.Unlock()
		if err != nil || !bytes.Equal(next, freshEncoding(t, copy)) {
			t.Fatalf("after %s: the copy's next shipment differs from a fresh encode of it (%v)", c.name, err)
		}
		inst = copy
	}
}

// TestSecondMoveCarriesNoPrunedTask moves an instance running a fleet
// task twice with no step between the moves. The first copy prunes the
// task, so the wire bytes no longer describe it; if it kept them as its
// restart point, the second move would ship the task back to life.
func TestSecondMoveCarriesNoPrunedTask(t *testing.T) {
	s := reuseServer(t, "")
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	inst.stepMu.Lock()
	for range 40 {
		inst.step()
	}
	inst.stepMu.Unlock()
	// A task the job driver started and has not yet been told to evict,
	// as when a dispatch races the move.
	if _, err := inst.startSchedTask("brain"); err != nil {
		t.Fatal(err)
	}
	first := shardMove(t, s, inst)
	second := shardMove(t, s, first)
	for _, in := range []*Instance{first, second} {
		if bes := in.Status().BEs; len(bes) != 0 {
			t.Fatalf("%s holds BE tasks %v after the moves, want none", in.ID(), bes)
		}
	}
}

// TestCopyCrashRestartsAtMigrationEpoch crashes a shard move's copy
// before it has refreshed a restart point of its own: the wire bytes it
// adopted are that point.
func TestCopyCrashRestartsAtMigrationEpoch(t *testing.T) {
	s := reuseServer(t, "")
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	inst.stepMu.Lock()
	for range 47 { // the origin's own restart point is epoch 30's
		inst.step()
	}
	inst.stepMu.Unlock()
	copy := shardMove(t, s, inst)
	if err := copy.InjectFault(FaultRequest{Kind: FaultDriverPanic}); err != nil {
		t.Fatal(err)
	}
	copy.runSlice() // the panic, booked as a crash; the restart is an hour out
	copy.runSlice() // the restart slice
	if st := copy.Status(); st.Restarts != 1 || st.Epoch != 47 || st.State != StateRunning {
		t.Fatalf("after the restart: restarts %d, epoch %d, state %s; want 1, 47, running", st.Restarts, st.Epoch, st.State)
	}
}

// TestCheckpointerWritesTheSharedEncoding: the disk pass writes an
// instance whose restart point is current byte for byte as a fresh
// encode, with the instance's current tick schedule.
func TestCheckpointerWritesTheSharedEncoding(t *testing.T) {
	dir := t.TempDir()
	s := reuseServer(t, dir)
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	copy := shardMove(t, s, inst)
	if _, current := restartPoint(copy); !current {
		t.Fatal("the copy's restart point is not current")
	}
	want := freshEncoding(t, copy)
	s.ckpt.mu.Lock()
	s.ckpt.write(copy)
	s.ckpt.mu.Unlock()
	got, err := os.ReadFile(filepath.Join(dir, copy.ID()+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the disk pass wrote other bytes than a fresh encode")
	}
}
