// Command heraclesd runs the Heracles controller as a long-lived daemon.
//
// With -addr it serves the control plane: an HTTP API to create, inspect,
// reconfigure and delete live simulated machine instances, an SSE
// telemetry stream per instance, a best-effort job scheduler dispatching
// over the pool (-sched-policy; job routes under /api/v1/jobs), and a
// Prometheus /metrics endpoint (see docs/API.md). The workload flags
// become the spec of one bootstrapped instance, so the daemon starts
// with a machine already running; -noboot starts with an empty pool
// instead. One epoch scheduler of -drivers workers steps every instance,
// and one job scheduler dispatches over all of them; -shards only labels
// each instance with a consistent-hash shard, a migration target.
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
// (default 30s; it must be positive) the daemon snapshots each live
// instance's full simulation state into <dir>/<id>.ckpt (atomically,
// write-then-rename, wrapped in a checksummed binary envelope; the
// previous generation rotates to <id>.ckpt.1). On startup the daemon
// restores every checkpoint found in the directory — each resumes
// bit-identically from its snapshot epoch — and skips the
// flag-bootstrapped instance when it restored at least one. The restored
// instance named "boot" (the bootstrap's) keeps the -fsroot mirror, the
// -trace log and the headless per-minute summary. A file that
// fails its checksum (crash mid-write, disk corruption) is refused and
// the rotated previous generation restores instead; an unusable file,
// such as the <id>.json an old daemon wrote, is kept as <file>.failed.
// Each restored instance keeps its id, the file's stem, so the file it
// came from is the one the checkpointer rewrites; a stem that is not an
// instance id is set aside as <file>.failed.
//
// Usage:
//
//	heraclesd [-addr :8080] [-lc websearch] [-be brain] [-load 0.4]
//	          [-minutes 10] [-speed 0] [-fsroot /tmp/heracles-fs]
//	          [-trace] [-noboot] [-sched-policy slack-greedy]
//	          [-drivers 0] [-shards 1] [-max-instances 64]
//	          [-checkpoint-dir /var/lib/heracles] [-checkpoint-every 30s]
//	          [-pprof-addr localhost:6060]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"heracles/internal/actuate"
	"heracles/internal/core"
	"heracles/internal/debughttp"
	"heracles/internal/engine"
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
	drivers := flag.Int("drivers", 0, "epoch-scheduler worker pool size: goroutines stepping instance epochs, whatever -shards is (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "instance placement shards: consistent-hash labels and migration targets; all share one epoch scheduler and one job scheduler")
	maxInstances := flag.Int("max-instances", 0, "instance pool cap; creates beyond it fail with 503 (0 = default 64)")
	ckptDir := flag.String("checkpoint-dir", "", "periodically snapshot every instance into this directory and crash-resume from it on startup")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "wall-clock cadence of -checkpoint-dir snapshots")
	pprofAddr := flag.String("pprof-addr", "", "separate listen address for pprof profiles and Go runtime metrics (empty = off)")
	flag.Parse()

	if *ckptEvery <= 0 {
		log.Fatalf("heraclesd: -checkpoint-every must be positive, got %v", *ckptEvery)
	}

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
	var summary io.Writer
	if !serving {
		summary = os.Stdout
	}
	watch := bootHook(fs, lab.Cfg, summary)
	// The fresh bootstrap also counts its epochs to close runDone at the
	// horizon. The hook runs in the instance's driver goroutine while
	// main reads the count on interrupt, so it must be atomic.
	var epochs atomic.Int64
	spec := serve.InstanceSpec{
		Name:      "boot",
		LC:        *lcName,
		Load:      *load,
		Speed:     instSpeed,
		MaxEpochs: maxEpochs,
		EpochHook: func(m *machine.Machine, t machine.Telemetry) {
			watch(m, t)
			if n := epochs.Add(1); maxEpochs > 0 && n == int64(maxEpochs) {
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
		// The instance the bootstrap made resumes under the same
		// watchers, without the epoch count.
		resumed := serve.InstanceSpec{Name: spec.Name, EpochHook: watch, Trace: spec.Trace}
		restored = restoreCheckpoints(srv, *ckptDir, restoreSpeed, override, &resumed)
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
			// Headless resume: no restored instance's hook counts to the
			// horizon, so completion is "every instance parked at its max_epochs"
			// (instances checkpointed at or past their target park on the
			// first status read).
			running := func(st serve.Status) bool { return st.State != serve.StateDone }
			go func() {
				for slices.ContainsFunc(srv.Registry().Statuses(), running) {
					time.Sleep(20 * time.Millisecond)
				}
				close(runDone)
			}()
		}
	}

	var ckptStop func()
	if *ckptDir != "" {
		ckptStop = startCheckpointer(srv, *ckptDir, *ckptEvery)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)

	// stop stops every instance driver between epochs and closes all SSE
	// subscribers — no simulation is abandoned mid-epoch and no stream is
	// dropped without its terminal "stream closed" comment. It is also
	// what lets http.Server.Shutdown below finish: open event-stream
	// connections only end once their hubs close.
	stop := func() {
		if ckptStop != nil {
			ckptStop() // final snapshot pass while the drivers still run
		}
		srv.Close()
	}
	drain := func(sig os.Signal) {
		log.Printf("heraclesd: %v, draining %d instance(s) after %d epochs",
			sig, srv.Registry().Len(), epochs.Load())
		stop()
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
			stop()
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
				stop()
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

// bootHook builds the flag-bootstrapped instance's epoch hook: it
// mirrors every epoch into fs (when set) and writes a summary line to
// summary (when set) on every whole simulated minute of the machine's
// clock, so an instance resumed from any epoch prints on the same
// minutes as a fresh one.
func bootHook(fs *actuate.FSActuator, cfg hw.Config, summary io.Writer) func(*machine.Machine, machine.Telemetry) {
	return func(m *machine.Machine, t machine.Telemetry) {
		if fs != nil {
			mirror(fs, m, cfg, t)
		}
		if now := m.Clock().Now(); summary != nil && now%time.Minute == 0 {
			fmt.Fprintf(summary, "t=%-6v tail=%6.1f%%SLO EMU=%5.1f%% beCores=%-2d beWays=%-2d dram=%4.1f%% power=%4.1f%%TDP\n",
				now, 100*t.TailLatency.Seconds()/m.SLO().Seconds(),
				100*t.EMU, t.BECores, t.BEWays, 100*t.DRAMUtil, 100*t.PowerFracTDP)
		}
	}
}

// restoreCheckpoints resumes every instance checkpointed under dir. Each
// restored instance continues bit-identically from its snapshot epoch
// under the id it was stored as (<id>.ckpt): a federated instance stays
// where the router placed it, and a minted i<n> moves the daemon's mint
// counter past n. Restored files stay in place, and the checkpointer
// rotates them to <id>.ckpt.1 as it writes their replacements.
// Unreadable or unrestorable files are set aside as *.failed (preserved
// for inspection, out of the restore scan) with a log line — recovery
// should salvage what it can, not refuse to start. The JSON-enveloped
// *.json files of daemons before the binary envelope are no longer read:
// each is refused the same way, so the operator sees it in the log.
// The first checkpoint named as boot is restored with boot's epoch hook
// and trace: the flag-bootstrapped instance keeps its -fsroot mirror and
// -trace log across a crash. boot may be nil.
func restoreCheckpoints(srv *serve.Server, dir string, speed float64, maxEpochs int, boot *serve.InstanceSpec) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Printf("heraclesd: scanning %s: %v", dir, err)
		return 0
	}
	restored := 0
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext != ".ckpt" && ext != ".json" {
			continue
		}
		path := filepath.Join(dir, e.Name())
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
		spec := serve.InstanceSpec{Restore: cp, Speed: speed, MaxEpochs: maxEpochs}
		isBoot := boot != nil && cp.Name == boot.Name
		if isBoot {
			spec.EpochHook, spec.Trace = boot.EpochHook, boot.Trace
		}
		inst, err := srv.ResumeInstance(strings.TrimSuffix(e.Name(), filepath.Ext(e.Name())), spec)
		if err != nil {
			fail(err)
			continue
		}
		if isBoot {
			boot = nil
		}
		log.Printf("heraclesd: restored instance %s from %s (epoch %d)",
			inst.ID(), path, cp.Engine.Epoch)
		restored++
	}
	return restored
}

// startCheckpointer snapshots every live instance into dir on a ticker,
// as <id>.ckpt in the binary envelope. The returned stop function takes
// one final snapshot pass (while the instance drivers still run) and
// then joins the goroutine; call it before draining the server.
func startCheckpointer(srv *serve.Server, dir string, every time.Duration) func() {
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
			data, err := serve.EncodeCheckpointFileBinary(cp)
			if err == nil {
				err = engine.WriteFile(filepath.Join(dir, inst.ID()+ext), data)
			}
			if err != nil {
				log.Printf("heraclesd: checkpoint %s: %v", inst.ID(), err)
				continue
			}
			live[inst.ID()+ext] = true
		}
		// Drop files for instances that no longer exist so a restart does
		// not resurrect deleted machines; their rotated previous
		// generations go with them.
		if paths, err := filepath.Glob(filepath.Join(dir, "*"+ext)); err == nil {
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
