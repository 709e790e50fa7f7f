package main

import (
	"bytes"
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
		file, err := serve.AppendCheckpointFileBinary(nil, cp)
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
	boot := serve.InstanceSpec{Name: "boot", Speed: serve.SpeedMax, EpochHook: func(m *machine.Machine, tel machine.Telemetry) {
		watch(m, tel)
		hooked.Add(1)
	}}
	fresh := serve.New(serve.Config{Lab: lab, CheckpointDir: dir, CheckpointEvery: time.Hour})
	defer fresh.Close()
	if n, _, err := fresh.Start(boot, false, 125); n != 2 || err != nil {
		t.Fatalf("restored %d instances, want 2 (err %v)", n, err)
	}
	<-fresh.AllDone()
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
