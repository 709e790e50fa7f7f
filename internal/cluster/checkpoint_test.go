package cluster

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
)

// TestResumeFromCheckpointBitIdentical is the batch layer's round trip:
// a run checkpointed mid-flight to a file and resumed from it with
// RunScenarioFrom must produce exactly the epochs the uninterrupted run
// produced after the snapshot point — including the scheduler's goodput
// accounting.
func TestResumeFromCheckpointBitIdentical(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Heracles = true
	cfg.Sched = &sched.Config{
		Policy: sched.SlackGreedy{},
		Jobs: []sched.JobSpec{
			{Name: "a", Workload: "brain", Demand: 2, Work: 2 * time.Minute, Retries: 3, Submit: 30 * time.Second},
			{Name: "b", Workload: "streetview", Demand: 1, Work: 3 * time.Minute, Retries: 3, Submit: 2 * time.Minute},
		},
	}
	sc := scenario.Scenario{
		Name:     "resume",
		Duration: 8 * time.Minute,
		Load:     scenario.Ramp{From: 0.3, To: 0.55, Start: 0, End: 6 * time.Minute},
		Events: []scenario.Event{
			scenario.BEArrive(3*time.Minute, 0, "brain"),
			scenario.SLOScale(5*time.Minute, scenario.AllLeaves, 0.75),
		},
	}

	full := RunScenario(cfg, sc)

	// The checkpoint takes the file hop cmd/cluster's -checkpoint/-resume
	// takes. The JSON view of the same state is not a stored format.
	dir := t.TempDir()
	path, jsonPath := filepath.Join(dir, "run.hrcb"), filepath.Join(dir, "run.json")
	ckCfg := cfg
	ckCfg.CheckpointAt = 4 * time.Minute
	ckCfg.OnCheckpoint = func(c *engine.Checkpoint) {
		if err := engine.WriteFile(path, c.EncodeBinary()); err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := c.Encode(&doc); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteFile(jsonPath, doc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	interrupted := RunScenario(ckCfg, sc)
	cp, err := engine.ReadFile(path)
	if err != nil {
		t.Fatalf("OnCheckpoint never fired, or its file does not read back: %v", err)
	}
	if _, err := engine.ReadFile(jsonPath); err == nil || !strings.Contains(err.Error(), `"HRCB"`) {
		t.Fatalf("reading a JSON engine checkpoint file: %v, want a refusal naming the HRCB magic", err)
	}
	// The checkpointing run itself must be unperturbed by the snapshot.
	if len(interrupted.Epochs) != len(full.Epochs) {
		t.Fatalf("checkpointing run epochs = %d, want %d", len(interrupted.Epochs), len(full.Epochs))
	}
	for i := range full.Epochs {
		if interrupted.Epochs[i] != full.Epochs[i] {
			t.Fatalf("snapshotting perturbed the run at epoch %d", i)
		}
	}

	resumed, err := RunScenarioFrom(cfg, sc, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	skip := int(cp.Epoch)
	if want := len(full.Epochs) - skip; len(resumed.Epochs) != want {
		t.Fatalf("resumed epochs = %d, want %d (checkpoint at epoch %d)", len(resumed.Epochs), want, skip)
	}
	for i := range resumed.Epochs {
		if resumed.Epochs[i] != full.Epochs[skip+i] {
			t.Fatalf("resumed run diverged at epoch %d:\n%+v\nvs\n%+v",
				skip+i, full.Epochs[skip+i], resumed.Epochs[i])
		}
	}
	if resumed.SLO != full.SLO {
		t.Fatalf("resumed SLO %v, want %v", resumed.SLO, full.SLO)
	}
	if resumed.Sched == nil || full.Sched == nil {
		t.Fatal("scheduler accounting missing")
	}
	if *resumed.Sched != *full.Sched {
		t.Fatalf("scheduler accounting diverged:\n%+v\nvs\n%+v", *resumed.Sched, *full.Sched)
	}
}
