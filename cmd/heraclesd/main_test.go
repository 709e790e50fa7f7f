package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/actuate"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/machine"
	"heracles/internal/serve"
)

// TestRestoreCheckpointsDirectory drives the crash-resume scan over a
// directory holding one good file, one whose primary generation is
// corrupt, and one holding the JSON envelope daemons stored before the
// binary one: the first two restore (the second from its rotated
// generation, its corrupt primary set aside as *.failed so the sweep's
// write keeps that generation), the JSON file is logged, set aside as
// *.failed, and survives the checkpointer's sweep.
func TestRestoreCheckpointsDirectory(t *testing.T) {
	srv := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer srv.Close()
	inst, err := srv.CreateInstance(serve.InstanceSpec{Speed: serve.SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); inst.Status().State != serve.StateDone; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("seed instance never finished")
		}
	}
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file, err := serve.EncodeCheckpointFileBinary(cp)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := serve.EncodeCheckpointFile(cp)
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
	fresh := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer fresh.Close()
	if n := restoreCheckpoints(fresh, dir, 0, 0, nil); n != 2 {
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
	startCheckpointer(fresh, dir, time.Hour)()
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
	srv := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer srv.Close()
	dir := t.TempDir()
	for _, f := range []struct {
		stem  string
		speed float64
	}{{"f7", 1}, {"i2", serve.SpeedMax}, {"-x", serve.SpeedMax}} {
		inst, err := srv.CreateInstance(serve.InstanceSpec{Speed: f.speed, MaxEpochs: 3})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := inst.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		file, err := serve.EncodeCheckpointFileBinary(cp)
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
	fresh := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer fresh.Close()
	if n := restoreCheckpoints(fresh, dir, serve.SpeedMax, 5, nil); n != 2 {
		t.Fatalf("restored %d instances, want 2; log:\n%s", n, &logs)
	}
	for _, id := range []string{"f7", "i2"} {
		inst, ok := fresh.Registry().Get(id)
		if !ok {
			t.Fatalf("no instance %s after the restore; log:\n%s", id, &logs)
		}
		awaitDone(t, inst)
	}
	next, err := fresh.CreateInstance(serve.InstanceSpec{Speed: serve.SpeedMax, MaxEpochs: 1})
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

// TestRestoredBootKeepsMirror checkpoints an instance named as the flag
// bootstrap names it, then restores it with a boot spec whose epoch hook
// is the bootstrap's, mirroring into an -fsroot directory: the resumed
// instance must keep writing the kernel-format files, while an instance
// of another name restored beside it gets no hook. The checkpoint is
// taken at epoch 97, off a whole minute, so the headless summary must
// still print on the simulated minute (t=2m0s) and nowhere else.
func TestRestoredBootKeepsMirror(t *testing.T) {
	lab := experiment.DefaultLab()
	srv := serve.New(serve.Config{Lab: lab})
	defer srv.Close()
	dir := t.TempDir()
	for _, name := range []string{"boot", "other"} {
		inst, err := srv.CreateInstance(serve.InstanceSpec{Name: name, Speed: serve.SpeedMax, MaxEpochs: 97})
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, inst)
		cp, err := inst.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		file, err := serve.EncodeCheckpointFileBinary(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteFile(filepath.Join(dir, name+".ckpt"), file); err != nil {
			t.Fatal(err)
		}
	}

	root := t.TempDir()
	fs := actuate.NewFS(root, actuate.DefaultLayout())
	var hooked atomic.Int64
	var summary bytes.Buffer
	watch := bootHook(fs, lab.Cfg, &summary)
	boot := serve.InstanceSpec{Name: "boot", EpochHook: func(m *machine.Machine, tel machine.Telemetry) {
		watch(m, tel)
		hooked.Add(1)
	}}
	fresh := serve.New(serve.Config{Lab: lab})
	defer fresh.Close()
	if n := restoreCheckpoints(fresh, dir, serve.SpeedMax, 125, &boot); n != 2 {
		t.Fatalf("restored %d instances, want 2", n)
	}
	for _, inst := range fresh.Registry().List() {
		awaitDone(t, inst)
	}
	fresh.Close() // joins the last epoch's hook, which runs after Status reads done
	if n := hooked.Load(); n != 28 {
		t.Errorf("the boot hook ran %d times, want 28: epochs 98 to 125 of the boot instance only", n)
	}
	if lines := strings.Split(strings.TrimSuffix(summary.String(), "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "t=2m0s ") {
		t.Errorf("headless summary after resuming at epoch 97 = %q, want one line at t=2m0s", summary.String())
	}
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		t.Fatalf("the resumed boot instance wrote no mirror files under %s", root)
	}
}

// awaitDone waits for an instance to park at its max_epochs.
func awaitDone(t *testing.T, inst *serve.Instance) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); inst.Status().State != serve.StateDone; time.Sleep(time.Millisecond) {
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
	srv := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer srv.Close()
	inst, err := srv.CreateInstance(serve.InstanceSpec{Speed: serve.SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, inst)
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file, err := serve.EncodeCheckpointFileBinary(cp)
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
	fresh := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer fresh.Close()
	if n := restoreCheckpoints(fresh, dir, 0, 0, nil); n != 1 {
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

	startCheckpointer(fresh, dir, time.Hour)()
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
	srv := serve.New(serve.Config{Lab: experiment.DefaultLab()})
	defer srv.Close()
	stuck, err := srv.CreateInstance(serve.InstanceSpec{Speed: serve.SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := srv.CreateInstance(serve.InstanceSpec{Speed: serve.SpeedMax})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, stuck)
	dir := t.TempDir()
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	startCheckpointer(srv, dir, time.Hour)() // two passes: <id>.ckpt and <id>.ckpt.1
	gone := filepath.Join(dir, "gone.ckpt")
	for _, path := range []string{gone, gone + ".1"} {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := os.MkdirAll(filepath.Join(dir, stuck.ID()+".ckpt.tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := crashed.InjectFault(serve.FaultRequest{Kind: serve.FaultDriverPanic}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); crashed.Status().State != serve.StateCrashed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the armed driver panic never crashed the instance")
		}
	}
	startCheckpointer(srv, dir, time.Hour)()
	if st := crashed.Status(); st.State != serve.StateCrashed {
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
