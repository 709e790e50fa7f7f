// Command heraclesd runs the Heracles controller as a long-lived daemon.
//
// With -addr it serves the control plane over HTTP (docs/API.md): the
// instance API with an SSE stream per instance, a best-effort job
// scheduler (-sched-policy) and Prometheus /metrics. The workload flags
// bootstrap one instance (-noboot: none); -drivers sizes the one epoch
// scheduler; -shards labels instances with consistent-hash shards,
// migration targets. SIGINT/SIGTERM drain: instances stop between epochs
// and SSE streams close before the listener.
//
// Without -addr it runs headless: one instance free-runs, logging each
// controller decision (-trace) and a summary per simulated minute, until
// -minutes elapse (0: until interrupted, in either mode). -fsroot mirrors
// each epoch's actuations into kernel-format files.
//
// -checkpoint-dir snapshots every instance there each -checkpoint-every
// (positive) and, on startup, resumes what it holds instead of
// bootstrapping (serve.Config.CheckpointDir).
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
	// Headless, -speed 0 free-runs, a summary goes to stdout and -minutes
	// is every restored instance's horizon too. Served, -speed 0 is the
	// server default (real time) or, on restore, each checkpoint's own
	// speed, and each restored instance keeps its checkpoint's horizon.
	var summary io.Writer
	horizon := 0
	if !serving {
		summary, horizon = os.Stdout, *minutes*60
		if *speed == 0 {
			*speed = serve.SpeedMax
		}
	}
	srv := serve.New(serve.Config{
		Lab:             lab,
		DefaultSpeed:    *speed,
		SchedPolicy:     *schedPolicy,
		Drivers:         *drivers,
		Shards:          *shards,
		MaxInstances:    *maxInstances,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
	})
	defer srv.Close()

	var fs *actuate.FSActuator
	if *fsroot != "" {
		fs = actuate.NewFS(*fsroot, actuate.DefaultLayout())
	}
	spec := serve.InstanceSpec{
		Name:      "boot",
		LC:        *lcName,
		Load:      *load,
		Speed:     *speed,
		MaxEpochs: *minutes * 60,
		EpochHook: bootHook(fs, lab.Cfg, summary),
	}
	if *beName != "" {
		spec.BEs = []serve.BEAttachment{{Workload: *beName}}
	}
	if *traceFlag {
		spec.Trace = func(e core.Event) {
			log.Printf("[%8v] %-5s %-18s %s", e.At, e.Loop, e.Action, e.Detail)
		}
	}

	restored, boot, err := srv.Start(spec, !serving || !*noboot, horizon)
	switch {
	case err != nil:
		log.Fatalf("heraclesd: %v", err)
	case restored > 0:
		log.Printf("heraclesd: resumed %d instance(s) from %s, skipping flag bootstrap", restored, *ckptDir)
	case serving && boot != nil:
		log.Printf("heraclesd: bootstrapped instance %s (%s + %s at %.0f%% load)",
			boot.ID(), *lcName, *beName, 100**load)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	var done <-chan struct{} // a headless run ends at its horizon
	if horizon > 0 {
		done = srv.AllDone()
	}
	// No WriteTimeout: it would sever the long-lived SSE streams. The
	// header/read timeouts and the routes' body caps guard slow clients.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	if serving {
		go func() { errc <- httpSrv.ListenAndServe() }()
		log.Printf("heraclesd: control plane listening on %s (API under /api/v1, SSE per instance, Prometheus /metrics)", *addr)
	}

	exitCode := 0
	select {
	case err := <-errc:
		log.Printf("heraclesd: %v", err)
		exitCode = 1
	case <-done:
	case sig := <-interrupt:
		var epochs uint64
		if boot != nil {
			epochs = boot.Status().Epoch
		}
		log.Printf("heraclesd: %v, draining %d instance(s) after %d epochs", sig, srv.Registry().Len(), epochs)
	}
	// Close takes the final checkpoint pass, stops every instance between
	// epochs and closes every SSE stream with its "stream closed" comment,
	// which is what lets Shutdown finish.
	srv.Close()
	if serving && exitCode == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
		log.Printf("heraclesd: shutdown complete")
	}
	if fs != nil {
		fmt.Printf("kernel-format actuation mirror written under %s\n", *fsroot)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// bootHook builds the boot instance's epoch hook: it mirrors every epoch
// into fs and writes a summary line to summary (each when set) on every
// whole simulated minute of the machine's clock, so an instance resumed
// from any epoch prints on the same minutes as a fresh one.
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

// mirror reflects the machine's current isolation state into the
// filesystem actuator using the exact kernel formats. It runs in the
// instance's driver goroutine, between epochs.
func mirror(fs *actuate.FSActuator, m *machine.Machine, cfg hw.Config, t machine.Telemetry) {
	tc := cfg.TotalCores()
	lcCores, beCores := isolation.NewCPUSet(), isolation.NewCPUSet()
	for c := 0; c < tc; c++ {
		set := lcCores
		if c >= tc-t.BECores {
			set = beCores
		}
		set.Add(c)
		set.Add(c + tc) // sibling hyperthread
	}
	check(fs.SetCPUSet("lc", lcCores))
	check(fs.SetCPUSet("be", beCores))

	lcWays := cfg.LLCWays - t.BEWays
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
