// Checkpoint: snapshot a Heracles cluster run mid-flight and resume it
// bit-identically — the mechanism behind cmd/cluster -checkpoint/-resume,
// the control plane's pause/migrate routes and heraclesd's crash
// recovery (DESIGN.md §11).
//
// The run is a 20-minute flash-crowd scenario with the BE job scheduler
// attached. At minute 8 the engine's full state — machines, controllers,
// scheduler, scenario cursor — is stored as the binary engine checkpoint
// (the same bytes heraclesd nests in its files and shard migration ships);
// the resumed run replays only the remaining epochs, and the example
// verifies every one of them matches the uninterrupted reference exactly.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"heracles"
)

func main() {
	lab := heracles.DefaultLab()

	sc := heracles.Scenario{
		Name:     "flashcrowd",
		Duration: 20 * time.Minute,
		Load: heracles.SumShapes(
			heracles.FlatLoad(0.35),
			heracles.FlashCrowdLoad{
				Start: 10 * time.Minute, Rise: time.Minute,
				Hold: 2 * time.Minute, Fall: time.Minute, Amp: 0.4,
			},
		),
	}
	cfg := heracles.ClusterConfig{
		Leaves:   8,
		Heracles: true,
		HW:       lab.Cfg,
		LC:       lab.LC("websearch"),
		Brain:    lab.BE("brain"),
		SView:    lab.BE("streetview"),
		Seed:     7,
		Model:    lab.DRAMModel("websearch"),
		Warmup:   2 * time.Minute,
		Sched: &heracles.SchedConfig{
			Jobs: heracles.SyntheticJobs(12, 20*time.Minute, 7,
				[]string{"brain", "streetview"}),
		},
	}

	// Reference: the uninterrupted run.
	full := heracles.RunClusterScenario(cfg, sc)

	// Interrupted run: snapshot at minute 8, persisted like a real
	// operator would (atomic write-then-rename).
	path := filepath.Join(os.TempDir(), "heracles-example.hrcb")
	ckCfg := cfg
	ckCfg.CheckpointAt = 8 * time.Minute
	ckCfg.OnCheckpoint = func(cp *heracles.EngineCheckpoint) {
		if err := heracles.WriteCheckpoint(path, cp.EncodeBinary()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint at t=%v -> %s (%d machines, epoch %d)\n",
			cp.Now, path, len(cp.Machines), cp.Epoch)
	}
	heracles.RunClusterScenario(ckCfg, sc)

	// Resume from the file. Same config, same scenario: the checkpoint
	// carries the state, the caller re-supplies the code.
	cp, err := heracles.ReadCheckpoint(path)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := heracles.RunClusterScenarioFrom(cfg, sc, cp)
	if err != nil {
		log.Fatal(err)
	}

	// Every resumed epoch must equal the uninterrupted run's.
	skip := int(cp.Epoch)
	diverged := 0
	for i, e := range resumed.Epochs {
		if e != full.Epochs[skip+i] {
			diverged++
		}
	}
	fmt.Printf("resumed %d epochs after the checkpoint: %d diverged from the uninterrupted run\n",
		len(resumed.Epochs), diverged)

	fs, rs := full.Summarize(), resumed.Summarize()
	fmt.Printf("full run:    meanEMU=%5.1f%% violations=%d sched goodput=%.1f%%\n",
		100*fs.MeanEMU, fs.Violations, 100*fs.Sched.GoodputFrac())
	fmt.Printf("resumed run: jobs completed %d/%d, goodput %.1f%% (accounting continued across the restore)\n",
		rs.Sched.Completed, rs.Sched.Submitted, 100*rs.Sched.GoodputFrac())
	os.Remove(path)
}
