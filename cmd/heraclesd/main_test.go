package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/serve"
)

// TestRestoreCheckpointsDirectory drives the crash-resume scan over a
// directory holding one good file, one whose primary generation is
// corrupt, and one JSON-enveloped file of the kind daemons stored before
// the binary envelope: the first two restore (the second from its
// rotated generation), the JSON file is logged, set aside as *.failed,
// and survives the checkpointer's sweep.
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
	good, rotated, old := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt"), filepath.Join(dir, "c.json")
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
	if n := restoreCheckpoints(fresh, dir, 0, 0); n != 2 {
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

	// The first checkpointer pass writes the restored instances' files and
	// sweeps the superseded ones; the set-aside file is not among them.
	startCheckpointer(fresh, dir, time.Hour)()
	for path, want := range map[string]bool{good: false, rotated: false, rotated + ".1": false, old + ".failed": true} {
		if _, err := os.Stat(path); (err == nil) != want {
			t.Errorf("after the sweep, %s exists = %t, want %t", path, err == nil, want)
		}
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != 2 {
		t.Errorf("after the sweep the directory holds %v, want the two restored instances' files", ckpts)
	}
}
