// Command cluster runs the websearch minicluster experiment of §5.3
// (Figure 8): a fan-out cluster replaying a 12-hour diurnal trace, with
// Heracles colocating brain on half of the leaves and streetview on the
// other half, compared against the no-colocation baseline.
//
// -checkpoint snapshots the Heracles run's full simulation state to a
// file once the simulated clock reaches -checkpoint-at; -resume restores
// such a file and replays only the remaining epochs of the Heracles run
// (the baseline arm is skipped), continuing bit-identically to an
// uninterrupted run. A resumed run must use the same flags (leaves,
// hours, step, seed) as the run that wrote the checkpoint: the scenario
// is regenerated from them, while the checkpoint carries the state.
//
// The fault flags inject a deterministic failure schedule (leaf crashes,
// telemetry blackouts, slow machines, actuation failures, BE kills) that
// both arms replay identically, so the baseline/Heracles comparison
// isolates the controller's resilience; see internal/fault.
//
// Usage:
//
//	cluster [-leaves 20] [-hours 12] [-step 1s] [-seed 42] [-workers 0]
//	        [-checkpoint ckpt.json -checkpoint-at 6h] [-resume ckpt.json]
//	        [-crashes N] [-blackouts N] [-slowdowns N] [-actfails N]
//	        [-bekills N] [-fault-seed 7]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"heracles/internal/cluster"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/fault"
	"heracles/internal/scenario"
	"heracles/internal/trace"
)

func main() {
	leaves := flag.Int("leaves", 20, "number of leaf servers")
	hours := flag.Float64("hours", 12, "trace duration in hours")
	step := flag.Duration("step", time.Second, "trace step")
	seed := flag.Uint64("seed", 42, "random seed (drives the trace's noise and spikes)")
	workers := flag.Int("workers", 0, "concurrent leaves per epoch (0 = GOMAXPROCS, 1 = sequential)")
	ckptPath := flag.String("checkpoint", "", "write a simulation checkpoint of the Heracles run to this file")
	ckptAt := flag.Duration("checkpoint-at", 6*time.Hour, "simulated time at which -checkpoint snapshots")
	resume := flag.String("resume", "", "resume the Heracles run from this checkpoint file (skips the baseline arm)")
	crashes := flag.Int("crashes", 0, "leaf crashes to inject over the run (deterministic schedule from -fault-seed)")
	blackouts := flag.Int("blackouts", 0, "telemetry blackouts to inject")
	slowdowns := flag.Int("slowdowns", 0, "slow-machine episodes to inject")
	actfails := flag.Int("actfails", 0, "actuation failures to inject")
	bekills := flag.Int("bekills", 0, "BE-task kills to inject")
	faultSeed := flag.Uint64("fault-seed", 0, "seed of the injected fault schedule (0 = use -seed)")
	flag.Parse()

	lab := experiment.DefaultLab()
	tr := trace.Diurnal(trace.DiurnalConfig{
		Duration: time.Duration(*hours * float64(time.Hour)),
		Step:     *step,
		Seed:     *seed,
	})

	// The fault schedule is generated once and shared by both arms, so the
	// baseline and Heracles runs absorb the identical failure history and
	// the comparison isolates the controller.
	var faults []fault.Fault
	if *crashes+*blackouts+*slowdowns+*actfails+*bekills > 0 {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed
		}
		plan := fault.Generate(fault.GenConfig{
			Seed:           fs,
			Nodes:          *leaves,
			Horizon:        time.Duration(*hours * float64(time.Hour)),
			Crashes:        *crashes,
			Blackouts:      *blackouts,
			Slowdowns:      *slowdowns,
			ActuationFails: *actfails,
			BEKills:        *bekills,
		})
		faults = plan.Faults
		fmt.Printf("injecting %d fault(s) (seed %d)\n", len(faults), fs)
	}

	baseCfg := func(heraclesOn bool) cluster.Config {
		return cluster.Config{
			Leaves:   *leaves,
			Heracles: heraclesOn,
			HW:       lab.Cfg,
			LC:       lab.LC("websearch"),
			Brain:    lab.BE("brain"),
			SView:    lab.BE("streetview"),
			Seed:     *seed,
			Model:    lab.DRAMModel("websearch"),
			Workers:  *workers,
			Faults:   faults,
		}
	}
	report := func(mode string, s cluster.Summary) {
		fmt.Printf("%-8s  SLO(µ/30s)=%v  meanEMU=%5.1f%%  minEMU=%5.1f%%  meanLatency=%5.1f%%SLO  maxWindow=%5.1f%%SLO  violations=%d",
			mode, s.SLO.Round(time.Microsecond), 100*s.MeanEMU, 100*s.MinEMU,
			100*s.MeanRootFrac, 100*s.MaxRootFrac, s.Violations)
		if s.DownEpochs > 0 {
			fmt.Printf("  downEpochs=%d maxDown=%d", s.DownEpochs, s.MaxDown)
		}
		fmt.Println()
	}

	if *resume != "" {
		cp, err := engine.ReadFile(*resume)
		if err != nil {
			log.Fatalf("cluster: reading checkpoint: %v", err)
		}
		res, err := cluster.RunScenarioFrom(baseCfg(true), scenario.FromTrace("trace", tr), cp)
		if err != nil {
			log.Fatalf("cluster: resuming: %v", err)
		}
		fmt.Printf("resumed at t=%v (%d epochs remained)\n",
			cp.Now.Round(time.Second), len(res.Epochs))
		report("heracles", res.Summarize())
		return
	}

	for _, heraclesOn := range []bool{false, true} {
		cfg := baseCfg(heraclesOn)
		mode := "baseline"
		if heraclesOn {
			mode = "heracles"
			if *ckptPath != "" {
				cfg.CheckpointAt = *ckptAt
				cfg.OnCheckpoint = func(cp *engine.Checkpoint) {
					if err := cp.WriteFile(*ckptPath); err != nil {
						log.Fatalf("cluster: writing checkpoint: %v", err)
					}
					fmt.Printf("checkpoint written to %s at t=%v\n", *ckptPath, cp.Now.Round(time.Second))
				}
			}
		}
		res := cluster.Run(cfg, tr)
		report(mode, res.Summarize())
	}
}
