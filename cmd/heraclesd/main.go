// Command heraclesd runs the Heracles controller as a long-lived daemon.
//
// With -addr it serves the control plane: an HTTP API to create, inspect,
// reconfigure and delete live simulated machine instances, an SSE
// telemetry stream per instance, a best-effort job scheduler dispatching
// over the pool (-sched-policy; job routes under /api/v1/jobs), and a
// Prometheus /metrics endpoint (see docs/API.md). The workload flags
// become the spec of one bootstrapped instance, so the daemon starts
// with a machine already running; -noboot starts with an empty pool
// instead.
//
// On SIGINT/SIGTERM the daemon drains: every instance driver stops
// between epochs and all SSE subscribers are closed (clients see a
// final "stream closed" comment) before the HTTP listener shuts down.
//
// Without -addr it runs headless: one instance advances as fast as the
// simulation resolves, logging every controller decision and printing a
// per-simulated-minute summary, then exits when -minutes elapse. With
// -minutes 0 the daemon runs until interrupted in either mode.
//
// In both modes -fsroot mirrors each epoch's actuations into a
// filesystem tree with the real kernel interface formats (resctrl
// schemata, cgroup cpusets, cpufreq caps, HTB ceilings) so the decision
// stream can be inspected or replayed.
//
// -checkpoint-dir enables crash recovery: every -checkpoint-every
// (default 30s) the daemon snapshots each live instance's full
// simulation state into <dir>/<id>.ckpt (atomically, write-then-rename,
// wrapped in a checksummed binary envelope; the previous generation
// rotates to <id>.ckpt.1). On startup the daemon restores every
// checkpoint found in the directory — an older daemon's <id>.json files
// included — each resumes bit-identically from its snapshot
// epoch — and skips the flag-bootstrapped instance when it restored at
// least one. A file that fails its checksum (crash mid-write, disk
// corruption) is refused and the rotated previous generation restores
// instead. Restored instances get fresh ids; the superseded files are
// removed once their replacements are written.
//
// Usage:
//
//	heraclesd [-addr :8080] [-lc websearch] [-be brain] [-load 0.4]
//	          [-minutes 10] [-speed 0] [-fsroot /tmp/heracles-fs]
//	          [-trace] [-noboot] [-sched-policy slack-greedy]
//	          [-drivers 0] [-max-instances 64]
//	          [-checkpoint-dir /var/lib/heracles] [-checkpoint-every 30s]
//	          [-pprof-addr localhost:6060]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"heracles/internal/actuate"
	"heracles/internal/core"
	"heracles/internal/debughttp"
	"heracles/internal/experiment"
	"heracles/internal/hw"
	"heracles/internal/isolation"
	"heracles/internal/machine"
	"heracles/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "HTTP listen address for the control-plane API (empty = headless run)")
	lcName := flag.String("lc", "websearch", "latency-critical workload name")
	beName := flag.String("be", "brain", "best-effort workload name (empty = none)")
	load := flag.Float64("load", 0.4, "LC load fraction of peak QPS")
	minutes := flag.Int("minutes", 10, "simulated minutes to run (0 = run until interrupted)")
	speed := flag.Float64("speed", 0, "simulated seconds per wall-clock second (0 = auto: as fast as possible headless, real time with -addr; -1 = as fast as possible)")
	fsroot := flag.String("fsroot", "", "mirror actuations into kernel-format files under this directory")
	traceFlag := flag.Bool("trace", true, "log controller decisions")
	noboot := flag.Bool("noboot", false, "with -addr, start with an empty instance pool instead of bootstrapping one from the flags")
	schedPolicy := flag.String("sched-policy", "slack-greedy", "fleet job scheduler placement policy (slack-greedy, bin-pack, spread, random)")
	drivers := flag.Int("drivers", 0, "epoch-scheduler worker pool size: goroutines stepping instance epochs (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "control-plane shards: independent epoch-scheduler/hub/fleet-scheduler domains with work-stealing between their pools")
	maxInstances := flag.Int("max-instances", 0, "instance pool cap; creates beyond it fail with 503 (0 = default 64)")
	ckptDir := flag.String("checkpoint-dir", "", "periodically snapshot every instance into this directory and crash-resume from it on startup")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "wall-clock cadence of -checkpoint-dir snapshots")
	pprofAddr := flag.String("pprof-addr", "", "separate listen address for pprof profiles and Go runtime metrics (empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		dbg, err := debughttp.Start(*pprofAddr)
		if err != nil {
			log.Fatalf("heraclesd: %v", err)
		}
		defer dbg.Close()
		log.Printf("heraclesd: profiling listener on %s (/debug/pprof, runtime /metrics)", dbg.Addr)
	}

	serving := *addr != ""
	lab := experiment.DefaultLab()

	// -speed 0 is "auto": a headless run free-runs like the offline
	// experiments, a served daemon advances in real time.
	instSpeed := *speed
	if instSpeed == 0 {
		if serving {
			instSpeed = 1
		} else {
			instSpeed = serve.SpeedMax
		}
	}

	srv := serve.New(serve.Config{
		Lab:          lab,
		DefaultSpeed: instSpeed,
		SchedPolicy:  *schedPolicy,
		Drivers:      *drivers,
		Shards:       *shards,
		MaxInstances: *maxInstances,
	})
	defer srv.Close()

	var fs *actuate.FSActuator
	if *fsroot != "" {
		fs = actuate.NewFS(*fsroot, actuate.DefaultLayout())
	}

	maxEpochs := *minutes * 60
	runDone := make(chan struct{})
	// The hook runs in the instance's driver goroutine while main reads
	// the count on interrupt, so it must be atomic.
	var epochs atomic.Int64
	spec := serve.InstanceSpec{
		Name:      "boot",
		LC:        *lcName,
		Load:      *load,
		Speed:     instSpeed,
		MaxEpochs: maxEpochs,
		EpochHook: func(m *machine.Machine, t machine.Telemetry) {
			if fs != nil {
				mirror(fs, m, lab.Cfg, t)
			}
			n := epochs.Add(1)
			if !serving && n%60 == 0 {
				fmt.Printf("t=%-6v tail=%6.1f%%SLO EMU=%5.1f%% beCores=%-2d beWays=%-2d dram=%4.1f%% power=%4.1f%%TDP\n",
					m.Clock().Now(), 100*t.TailLatency.Seconds()/m.SLO().Seconds(),
					100*t.EMU, t.BECores, t.BEWays, 100*t.DRAMUtil, 100*t.PowerFracTDP)
			}
			if maxEpochs > 0 && n == int64(maxEpochs) {
				close(runDone)
			}
		},
	}
	if *beName != "" {
		spec.BEs = []serve.BEAttachment{{Workload: *beName}}
	}
	if *traceFlag {
		spec.Trace = func(e core.Event) {
			log.Printf("[%8v] %-5s %-18s %s", e.At, e.Loop, e.Action, e.Detail)
		}
	}

	// Crash recovery: restore every checkpoint in -checkpoint-dir before
	// deciding whether to bootstrap a fresh instance from the flags.
	restored := 0
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatalf("heraclesd: checkpoint dir: %v", err)
		}
		// Headless runs are flag-driven, so -minutes sets the restored
		// instances' horizon too; a serving daemon keeps each
		// checkpoint's own max_epochs. The raw -speed flag travels (not
		// the resolved default): with -speed unset (0) each instance
		// resumes at its own checkpointed speed, an explicit flag
		// overrides them all — except headless auto, which free-runs
		// like every headless instance.
		override := 0
		restoreSpeed := *speed
		if !serving {
			override = maxEpochs
			if restoreSpeed == 0 {
				restoreSpeed = serve.SpeedMax
			}
		}
		restored = restoreCheckpoints(srv, *ckptDir, restoreSpeed, override)
	}

	if (!serving || !*noboot) && restored == 0 {
		inst, err := srv.CreateInstance(spec)
		if err != nil {
			log.Fatalf("heraclesd: bootstrap instance: %v", err)
		}
		if serving {
			log.Printf("heraclesd: bootstrapped instance %s (%s + %s at %.0f%% load)",
				inst.ID(), *lcName, *beName, 100**load)
		}
	} else if restored > 0 {
		log.Printf("heraclesd: resumed %d instance(s) from %s, skipping flag bootstrap", restored, *ckptDir)
		if !serving && maxEpochs > 0 {
			// Headless resume: the restored instances have no epoch hook,
			// so completion is "every instance parked at its max_epochs"
			// (instances checkpointed at or past their target park on the
			// first status read).
			go func() {
				for {
					done := true
					for _, st := range srv.Registry().Statuses() {
						if st.State != serve.StateDone {
							done = false
							break
						}
					}
					if done {
						close(runDone)
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
			}()
		}
	}

	var ckptStop func()
	if *ckptDir != "" {
		ckptStop = startCheckpointer(srv, *ckptDir, *ckptEvery)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)

	// drain stops every instance driver between epochs and closes all SSE
	// subscribers — no simulation is abandoned mid-epoch and no stream is
	// dropped without its terminal "stream closed" comment. It is also
	// what lets http.Server.Shutdown below finish: open event-stream
	// connections only end once their hubs close.
	drain := func(sig os.Signal) {
		log.Printf("heraclesd: %v, draining %d instance(s) after %d epochs",
			sig, srv.Registry().Len(), epochs.Load())
		if ckptStop != nil {
			ckptStop() // final snapshot pass while the drivers still run
		}
		srv.Close()
	}

	exitCode := 0
	if serving {
		// No WriteTimeout: the SSE event streams are long-lived responses
		// that would be severed by one. Slow-client protection comes from
		// the header/read timeouts plus the per-request body limits the
		// API applies to mutating routes.
		httpSrv := &http.Server{
			Addr:              *addr,
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		errc := make(chan error, 1)
		go func() { errc <- httpSrv.ListenAndServe() }()
		log.Printf("heraclesd: control plane listening on %s (API under /api/v1, SSE per instance, Prometheus /metrics)", *addr)
		select {
		case err := <-errc:
			log.Printf("heraclesd: %v", err)
			if ckptStop != nil {
				ckptStop()
			}
			srv.Close()
			exitCode = 1
		case sig := <-interrupt:
			drain(sig)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = httpSrv.Shutdown(ctx)
			cancel()
			log.Printf("heraclesd: shutdown complete")
		}
	} else {
		if maxEpochs > 0 {
			select {
			case <-runDone:
				if ckptStop != nil {
					ckptStop()
				}
				srv.Close()
			case sig := <-interrupt:
				drain(sig)
			}
		} else {
			drain(<-interrupt)
		}
	}
	if fs != nil {
		fmt.Printf("kernel-format actuation mirror written under %s\n", *fsroot)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// restoreCheckpoints resumes every instance checkpointed under dir. Each
// restored instance continues bit-identically from its snapshot epoch
// under a fresh id. Restored files stay in place until the checkpointer
// has written their replacements — deleting them here would open a
// data-loss window in which a second crash finds an empty directory.
// Unreadable or unrestorable files are set aside as *.failed (preserved
// for inspection, out of the restore glob) with a log line — recovery
// should salvage what it can, not refuse to start. The *.json files an
// older daemon wrote resume beside the *.ckpt files this one writes: the
// reader detects each file's envelope from its bytes.
func restoreCheckpoints(srv *serve.Server, dir string, speed float64, maxEpochs int) int {
	paths, err := checkpointGlob(dir)
	if err != nil {
		log.Printf("heraclesd: scanning %s: %v", dir, err)
		return 0
	}
	restored := 0
	for _, path := range paths {
		fail := func(err error) {
			log.Printf("heraclesd: restoring %s: %v (kept as %s.failed)", path, err, path)
			if err := os.Rename(path, path+".failed"); err != nil {
				log.Printf("heraclesd: %v", err)
			}
		}
		cp, src, err := serve.ReadCheckpointFallback(path)
		if err != nil {
			fail(err)
			continue
		}
		if src != path {
			log.Printf("heraclesd: %s failed verification, falling back to previous generation %s", path, src)
		}
		if speed < 0 {
			// Fast-forwarding a paced daemon's snapshot: the free-running
			// override means no tick schedule, which create would refuse
			// beside one.
			cp.NextDueUnixNano, cp.Batch, cp.Stretch = 0, 0, 0
		}
		inst, err := srv.CreateInstance(serve.InstanceSpec{Restore: cp, Speed: speed, MaxEpochs: maxEpochs})
		if err != nil {
			fail(err)
			continue
		}
		log.Printf("heraclesd: restored instance %s from %s (epoch %d)",
			inst.ID(), path, cp.Engine.Epoch)
		restored++
	}
	return restored
}

// checkpointGlob lists every checkpoint file under dir: the binary
// *.ckpt files this build writes and the JSON-enveloped *.json files of
// older ones.
func checkpointGlob(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return nil, err
	}
	return append(paths, ckpts...), nil
}

// startCheckpointer snapshots every live instance into dir on a ticker,
// as <id>.ckpt in the binary envelope. The returned stop function takes
// one final snapshot pass (while the instance drivers still run) and
// then joins the goroutine; call it before draining the server.
func startCheckpointer(srv *serve.Server, dir string, every time.Duration) func() {
	if every <= 0 {
		every = 30 * time.Second
	}
	const ext = ".ckpt"
	stopc := make(chan struct{})
	donec := make(chan struct{})
	pass := func() {
		live := make(map[string]bool)
		for _, inst := range srv.Registry().List() {
			cp, err := inst.Checkpoint()
			if err != nil {
				continue // instance stopped mid-pass
			}
			path := filepath.Join(dir, inst.ID()+ext)
			if err := serve.WriteCheckpointFileBinary(path, cp); err != nil {
				log.Printf("heraclesd: checkpoint %s: %v", inst.ID(), err)
				continue
			}
			live[inst.ID()+ext] = true
		}
		// Drop files for instances that no longer exist so a restart does
		// not resurrect deleted machines; their rotated previous
		// generations go with them. The sweep covers *.json too, so an
		// older daemon's files go once their replacements are written.
		if paths, err := checkpointGlob(dir); err == nil {
			for _, p := range paths {
				if !live[filepath.Base(p)] {
					os.Remove(p)
					os.Remove(p + ".1")
				}
			}
		}
	}
	go func() {
		defer close(donec)
		// Snapshot immediately: the ticker's first fire is one full
		// interval away, and any just-restored instances must get their
		// replacement files (and stale files their garbage collection)
		// before the next crash, not 30 seconds later.
		pass()
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-stopc:
				return
			case <-tk.C:
				pass()
			}
		}
	}()
	return func() {
		close(stopc)
		<-donec
		pass()
	}
}

// mirror reflects the machine's current isolation state into the
// filesystem actuator using the exact kernel formats. It runs in the
// instance's driver goroutine, between epochs.
func mirror(fs *actuate.FSActuator, m *machine.Machine, cfg hw.Config, t machine.Telemetry) {
	tc := cfg.TotalCores()
	beCores := isolation.NewCPUSet()
	lcCores := isolation.NewCPUSet()
	for c := 0; c < tc-t.BECores; c++ {
		lcCores.Add(c)
		lcCores.Add(c + tc) // sibling hyperthread
	}
	for c := tc - t.BECores; c < tc; c++ {
		beCores.Add(c)
		beCores.Add(c + tc)
	}
	check(fs.SetCPUSet("lc", lcCores))
	check(fs.SetCPUSet("be", beCores))

	lcWays := cfg.LLCWays - t.BEWays
	if t.BEWays == 0 {
		lcWays = cfg.LLCWays
	}
	lcMask, err := isolation.NewWayMask(cfg.LLCWays-lcWays, lcWays)
	check(err)
	check(fs.SetSchemata("lc", []isolation.WayMask{lcMask, lcMask}))
	if t.BEWays > 0 {
		beMask, err := isolation.NewWayMask(0, t.BEWays)
		check(err)
		check(fs.SetSchemata("be", []isolation.WayMask{beMask, beMask}))
	}

	if t.BEFreqCap > 0 {
		check(fs.SetFreqCap(beCores, t.BEFreqCap))
	}
	if ceil := m.BENetCeil(); ceil > 0 {
		check(fs.SetHTBCeil("be", ceil))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
