package serve

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/machine"
)

// TestRestoreCheckpointsDirectory drives the crash-resume scan over a
// directory holding one good file, one whose primary generation is
// corrupt, and one holding the JSON envelope daemons stored before the
// binary one: the first two restore (the second from its rotated
// generation, its corrupt primary set aside as *.failed so the sweep's
// write keeps that generation), the JSON file is logged, set aside as
// *.failed, and survives the checkpointer's sweep.
func TestRestoreCheckpointsDirectory(t *testing.T) {
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); inst.Status().State != StateDone; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("seed instance never finished")
		}
	}
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file, err := AppendCheckpointFileBinary(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := EncodeCheckpointFile(cp)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	good, rotated, old := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt"), filepath.Join(dir, "c.ckpt")
	for _, w := range []struct {
		path string
		data []byte
	}{{good, file}, {rotated, file}, {rotated, file[:len(file)-1]}, {old, legacy}} {
		if err := engine.WriteFile(w.path, w.data); err != nil {
			t.Fatal(err)
		}
	}

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	fresh := New(Config{Lab: testLab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	defer fresh.Close()
	if n, _ := fresh.resume(InstanceSpec{}, 0); n != 2 {
		t.Fatalf("restored %d instances, want 2; log:\n%s", n, &logs)
	}
	for _, want := range []string{
		"from " + good + " (epoch 3)",
		rotated + " failed verification, falling back to previous generation " + rotated + ".1",
		"restoring " + old + `: not a checkpoint file: missing "HRCF" magic (kept as ` + old + ".failed)",
	} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, &logs)
		}
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("%s still in the restore scan: %v", old, err)
	}

	// The restored instances keep the files' ids, so the first
	// checkpointer pass writes their files over the ones they came from,
	// rotating those to .1; the set-aside file is not among them.
	checkpointPasses(fresh)
	for path, want := range map[string]bool{good: true, good + ".1": true, rotated: true, rotated + ".1": true, rotated + ".failed": true, old + ".failed": true} {
		if _, err := os.Stat(path); (err == nil) != want {
			t.Errorf("after the sweep, %s exists = %t, want %t", path, err == nil, want)
		}
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != 2 {
		t.Errorf("after the sweep the directory holds %v, want the two restored instances' files", ckpts)
	}
}

// TestRestoreKeepsCheckpointIDs: a checkpoint directory resumes each
// instance under its file's stem — a federated f7 stays f7, where the
// router looks for it, and a minted i2 stays i2 — and the next minted id
// is past every restored one. A stem that is no instance id is set aside.
// The directory is resumed free-running, so f7, checkpointed while paced,
// resumes with its tick schedule dropped.
func TestRestoreKeepsCheckpointIDs(t *testing.T) {
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	dir := t.TempDir()
	for _, f := range []struct {
		stem  string
		speed float64
	}{{"f7", 1}, {"i2", SpeedMax}, {"-x", SpeedMax}} {
		inst, err := srv.CreateInstance(InstanceSpec{Speed: f.speed, MaxEpochs: 3})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := inst.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		file, err := AppendCheckpointFileBinary(nil, cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteFile(filepath.Join(dir, f.stem+".ckpt"), file); err != nil {
			t.Fatal(err)
		}
	}

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	fresh := New(Config{Lab: testLab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	defer fresh.Close()
	if n, _ := fresh.resume(InstanceSpec{Speed: SpeedMax}, 5); n != 2 {
		t.Fatalf("restored %d instances, want 2; log:\n%s", n, &logs)
	}
	for _, id := range []string{"f7", "i2"} {
		inst, ok := fresh.Registry().Get(id)
		if !ok {
			t.Fatalf("no instance %s after the restore; log:\n%s", id, &logs)
		}
		awaitDone(t, inst)
	}
	next, err := fresh.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "i3" {
		t.Errorf("the first create after restoring i2 minted %s, want i3", next.ID())
	}
	if _, err := os.Stat(filepath.Join(dir, "-x.ckpt.failed")); err != nil {
		t.Errorf("the file whose stem is no instance id was not set aside: %v; log:\n%s", err, &logs)
	}
}

// awaitDone waits for an instance to park at its max_epochs.
func awaitDone(t *testing.T, inst *Instance) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); inst.Status().State != StateDone; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("instance %s never finished", inst.ID())
		}
	}
}

// TestRestoreResumesBetweenRenames: a daemon that died between
// engine.WriteFile's two renames leaves a stem with its previous
// generation as <id>.ckpt.1 and the replacement as <id>.ckpt.tmp, but no
// <id>.ckpt. The scan resumes the instance from the previous generation,
// and the checkpointer's first pass writes it a primary again. A stem
// with only a .tmp never finished a write: nothing resumes from it, and
// the pass sweeps it.
func TestRestoreResumesBetweenRenames(t *testing.T) {
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, inst)
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file, err := AppendCheckpointFileBinary(nil, cp)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	if err := engine.WriteFile(path, file); err != nil {
		t.Fatal(err)
	}
	// The first rename done, the second not: the primary is .1 and the
	// replacement waits as .tmp.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.ckpt.tmp", "z.ckpt.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	fresh := New(Config{Lab: testLab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	defer fresh.Close()
	if n, _ := fresh.resume(InstanceSpec{}, 0); n != 1 {
		t.Fatalf("restored %d instances, want 1; log:\n%s", n, &logs)
	}
	if _, ok := fresh.Registry().Get("a"); !ok {
		t.Fatalf("no instance a after the restore; log:\n%s", &logs)
	}
	for _, want := range []string{
		path + " is missing, falling back to previous generation " + path + ".1",
		"restored instance a from " + path + " (epoch 3)",
	} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, &logs)
		}
	}

	checkpointPasses(fresh)
	for name, want := range map[string]bool{"a.ckpt": true, "a.ckpt.1": true, "a.ckpt.tmp": false, "z.ckpt.tmp": false} {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != want {
			t.Errorf("after the sweep, %s exists = %t, want %t", name, err == nil, want)
		}
	}
}

// TestCheckpointerKeepsRegisteredInstancesFiles: the checkpointer's
// sweep removes only the files of instances that are no longer
// registered. An instance whose write fails (its <id>.ckpt.tmp is a
// directory that cannot be replaced) and one that refuses a checkpoint
// while it waits out a crash's restart backoff both keep the two
// generations they have on disk; a stem with no instance is swept.
func TestCheckpointerKeepsRegisteredInstancesFiles(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Lab: testLab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	defer srv.Close()
	stuck, err := srv.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := srv.CreateInstance(InstanceSpec{Speed: SpeedMax})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, stuck)
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	checkpointPasses(srv) // two passes: <id>.ckpt and <id>.ckpt.1
	gone := filepath.Join(dir, "gone.ckpt")
	for _, path := range []string{gone, gone + ".1"} {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := os.MkdirAll(filepath.Join(dir, stuck.ID()+".ckpt.tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := crashed.InjectFault(FaultRequest{Kind: FaultDriverPanic}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); crashed.Status().State != StateCrashed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the armed driver panic never crashed the instance")
		}
	}
	checkpointPasses(srv)
	if st := crashed.Status(); st.State != StateCrashed {
		t.Logf("instance %s restarted before the passes ended (state %s): the refused checkpoint may not have been exercised", crashed.ID(), st.State)
	}
	for path, want := range map[string]bool{
		stuck.ID() + ".ckpt": true, stuck.ID() + ".ckpt.1": true,
		crashed.ID() + ".ckpt": true, crashed.ID() + ".ckpt.1": true,
		"gone.ckpt": false, "gone.ckpt.1": false,
	} {
		if _, err := os.Stat(filepath.Join(dir, path)); (err == nil) != want {
			t.Errorf("after the sweep, %s exists = %t, want %t; log:\n%s", path, err == nil, want, &logs)
		}
	}
	if !strings.Contains(logs.String(), "checkpoint "+stuck.ID()+": ") {
		t.Errorf("the failed write was not logged:\n%s", &logs)
	}
}

// checkpointPasses runs two whole checkpointer passes under its lock, as
// a daemon's first pass and its final pass on Close do.
func checkpointPasses(s *Server) {
	s.ckpt.mu.Lock()
	defer s.ckpt.mu.Unlock()
	for range 2 {
		for s.ckpt.todo = nil; s.ckpt.step(); {
		}
	}
}

// awaitAllDone waits for AllDone's channel.
func awaitAllDone(t *testing.T, s *Server) {
	t.Helper()
	select {
	case <-s.AllDone():
	case <-time.After(30 * time.Second):
		t.Fatal("the headless wait never fired")
	}
}

// TestHeadlessResumeRunsToHorizon is the daemon's headless resume: one
// server runs its boot instance to a horizon and leaves it in the
// checkpoint directory on Close; a second server started over the
// directory resumes it under the same id with a later horizon and the
// boot spec's hook instead of bootstrapping, and its done wait fires
// once the resumed instance parks there. The boot instance's status
// carries the whole run's epoch count.
func TestHeadlessResumeRunsToHorizon(t *testing.T) {
	dir := t.TempDir()
	first := New(Config{Lab: testLab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	spec := InstanceSpec{Name: "boot", Speed: SpeedMax, MaxEpochs: 40}
	restored, boot, err := first.Start(spec, true, spec.MaxEpochs)
	if err != nil || restored != 0 || boot == nil {
		t.Fatalf("fresh start: restored %d, boot %v, err %v", restored, boot, err)
	}
	awaitAllDone(t, first)
	first.Close()
	if _, err := os.Stat(filepath.Join(dir, boot.ID()+".ckpt")); err != nil {
		t.Fatalf("the final pass left no file for %s: %v", boot.ID(), err)
	}

	var hooked atomic.Int64
	spec.MaxEpochs = 90
	spec.EpochHook = func(*machine.Machine, machine.Telemetry) { hooked.Add(1) }
	second := New(Config{Lab: testLab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	defer second.Close()
	restored, resumed, err := second.Start(spec, true, spec.MaxEpochs)
	if err != nil || restored != 1 || resumed == nil || resumed.ID() != boot.ID() {
		t.Fatalf("resume: restored %d, boot %v, err %v; want %s resumed", restored, resumed, err, boot.ID())
	}
	awaitAllDone(t, second)
	if n := second.Registry().Len(); n != 1 {
		t.Errorf("the resumed server holds %d instances, want 1: a resume skips the bootstrap", n)
	}
	if st := resumed.Status(); st.State != StateDone || st.Epoch != 90 {
		t.Errorf("resumed boot ended %s at epoch %d, want done at 90", st.State, st.Epoch)
	}
	second.Close() // joins the last epoch's hook
	if n := hooked.Load(); n != 50 {
		t.Errorf("the boot hook ran %d times, want 50: epochs 41 to 90", n)
	}
}

// TestStartKeepsRestoredFiles: a server started over a directory of
// checkpoints resumes every one of them and, after its first pass and
// its final one, still holds each one's two generations. At the scan's
// first log line the test runs every slice already due on the one
// worker, so a checkpointer armed before the scan would have swept the
// stems not yet restored.
func TestStartKeepsRestoredFiles(t *testing.T) {
	seed := testServer(t)
	inst, err := seed.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, inst)
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file, err := AppendCheckpointFileBinary(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stems := []string{"f0", "f1", "f2", "f3"}
	for _, stem := range stems {
		if err := engine.WriteFile(filepath.Join(dir, stem+".ckpt"), file); err != nil {
			t.Fatal(err)
		}
	}

	srv := New(Config{Lab: testLab, Drivers: 1, CheckpointDir: dir, CheckpointEvery: time.Hour})
	var logs bytes.Buffer
	var gated atomic.Bool
	log.SetOutput(writerFunc(func(p []byte) (int, error) {
		if gated.CompareAndSwap(false, true) {
			// A no-op slice due now runs after every slice due before it.
			var left atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			srv.reg.pool.schedule(srv.reg.pool.newEntry(&benchTask{left: &left, wg: &wg}), time.Now())
			wg.Wait()
		}
		return logs.Write(p)
	}))
	defer log.SetOutput(os.Stderr)
	restored, _, err := srv.Start(InstanceSpec{}, false, 0)
	srv.Close()
	if err != nil || restored != len(stems) {
		t.Fatalf("restored %d of %d checkpoints (err %v); log:\n%s", restored, len(stems), err, &logs)
	}
	for _, stem := range stems {
		for _, name := range []string{stem + ".ckpt", stem + ".ckpt.1"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("after the final pass: %v", err)
			}
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
