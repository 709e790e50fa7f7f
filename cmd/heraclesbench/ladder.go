//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"heracles/internal/cache"
	"heracles/internal/chash"
	"heracles/internal/cluster"
	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/fleet"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/mem"
	"heracles/internal/netlink"
	"heracles/internal/parallel"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/serve"
	"heracles/internal/sim"
	"heracles/internal/slo"
	wl "heracles/internal/workload"
)

// ladderDefs are the per-layer metrics of BENCHMARK.json: one rung per
// layer of the repository, timed by direct calls into its public
// functions (or, for proc.* and http.*, by driving a binary), plus the
// four figures every traced workload pass adds itself. The rungs do not
// depend on the workload: they cost the layers, and the README maps
// each to the end-to-end metric it should move.
var ladderDefs = []metricDef{
	// batch-repro → op_p50_ms, sim_epochs_per_s
	{Name: "machine.step_us", Unit: "us", Better: "lower"},
	{Name: "machine.step_allocs", Unit: "count", Better: "lower"},
	{Name: "hw.resolve_freq_us", Unit: "us", Better: "lower"},
	{Name: "cache.resolve_us", Unit: "us", Better: "lower"},
	{Name: "mem.resolve_us", Unit: "us", Better: "lower"},
	{Name: "netlink.resolve_us", Unit: "us", Better: "lower"},
	{Name: "lat.analytic_us", Unit: "us", Better: "lower"},
	{Name: "core.controller_step_us", Unit: "us", Better: "lower"},
	{Name: "slo.push_ns", Unit: "ns", Better: "lower"},
	{Name: "experiment.colocate_point_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.start_ms", Unit: "ms", Better: "lower"},
	// batch-repro → heavy_op_ms
	{Name: "engine.step_n1_us", Unit: "us", Better: "lower"},
	{Name: "engine.step_n8_us", Unit: "us", Better: "lower"},
	{Name: "engine.step_n8_par_us", Unit: "us", Better: "lower"},
	{Name: "engine.par_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sched.tick_us", Unit: "us", Better: "lower"},
	{Name: "cluster.run_scenario_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.run_policies_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.dispatch_us", Unit: "us", Better: "lower"},
	// api-steady → op_p50_ms, ops_per_s
	{Name: "http.rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_put_load_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_get_us", Unit: "us", Better: "lower"},
	{Name: "serve.set_load_us", Unit: "us", Better: "lower"},
	{Name: "serve.mailbox_do_us", Unit: "us", Better: "lower"},
	{Name: "serve.status_us", Unit: "us", Better: "lower"},
	// api-steady, fleet-scrape → setup_s
	{Name: "proc.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.create_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_create_us", Unit: "us", Better: "lower"},
	// state-move → op_p50_ms, ops_per_s
	{Name: "serve.migrate_shard_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "engine.encode_binary_us", Unit: "us", Better: "lower"},
	{Name: "engine.decode_binary_us", Unit: "us", Better: "lower"},
	{Name: "engine.restore_us", Unit: "us", Better: "lower"},
	{Name: "engine.ckpt_binary_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.ckpt_file_binary_us", Unit: "us", Better: "lower"},
	{Name: "chash.place_ns", Unit: "ns", Better: "lower"},
	// state-move → heavy_op_ms
	{Name: "serve.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.restore_create_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.encode_json_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.decode_json_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ckpt_json_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.ckpt_file_json_ms", Unit: "ms", Better: "lower"},
	// fleet-scrape → heavy_op_ms
	{Name: "serve.statuses_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.write_metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.metrics_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.handler_metrics_ms", Unit: "ms", Better: "lower"},
	// fleet-scrape → op_p50_ms, sim_epochs_per_s
	{Name: "serve.schedule_slice_us", Unit: "us", Better: "lower"},
	// every workload, from its own traced pass
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "cpu", Better: "lower"},
	{Name: "harness.calib_spin_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// passMetrics are the ladderDefs a traced workload pass supplies; the
// ladder proper supplies the rest.
var passMetrics = map[string]bool{
	"proc.cpu_us_per_op": true, "proc.cpu_util": true,
	"harness.calib_spin_ms": true, "harness.trace_overhead_pct": true,
}

const ladderBatches = 5

// ladder accumulates rung results and leaves one span per rung.
type ladder struct {
	out    map[string]metric
	tr     *tracer
	parent uint64
	units  map[string]string
}

var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

func (l *ladder) set(name string, v float64) {
	l.out[name] = metric{v, l.units[name]}
}

// batches runs ladderBatches batches, each between two host probes, and
// returns the median host-normalised batch time in ns. Rungs are
// reported in the same normalised time as the end-to-end metrics, so
// the reconcile table adds like to like.
func batches(batch func() (time.Duration, error)) (float64, error) {
	per := make([]float64, ladderBatches)
	before := hostProbe()
	for b := range per {
		d, err := batch()
		if err != nil {
			return 0, err
		}
		after := hostProbe()
		per[b] = float64(d) / hostSlow((before+after)/2)
		before = after
	}
	return median(per), nil
}

// loop times fn in batches and records the median cost of one call. The
// batch size is chosen from a pilot call so a batch lasts about 8 ms.
func (l *ladder) loop(name string, fn func()) {
	sp := l.tr.begin(l.parent, name)
	t0 := time.Now()
	fn()
	pilot := time.Since(t0)
	n := 1
	if pilot < 8*time.Millisecond {
		n = int(8*time.Millisecond/max(pilot, 10*time.Nanosecond)) + 1
		n = min(n, 1<<20)
	}
	ns, _ := batches(func() (time.Duration, error) { // this batch cannot fail
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0), nil
	})
	l.set(name, ns/float64(n)/unitNs[l.units[name]])
	l.tr.finish(sp)
}

// each is loop for calls that need untimed work around the timed part:
// fn returns the time it wants counted.
func (l *ladder) each(name string, calls int, fn func() (time.Duration, error)) error {
	sp := l.tr.begin(l.parent, name)
	defer l.tr.finish(sp)
	ns, err := batches(func() (time.Duration, error) {
		var sum time.Duration
		for i := 0; i < calls; i++ {
			d, err := fn()
			if err != nil {
				return 0, err
			}
			sum += d
		}
		return sum, nil
	})
	if err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	l.set(name, ns/float64(calls)/unitNs[l.units[name]])
	return nil
}

// runLadder measures every rung. It runs while no daemon of a workload
// is up, so nothing but the rung itself is on the CPUs.
func runLadder(ctx context.Context, bins binaries, tr *tracer, parent uint64) (map[string]metric, error) {
	sp := tr.begin(parent, "ladder")
	defer tr.finish(sp)
	l := &ladder{out: map[string]metric{}, tr: tr, parent: sp.ID, units: map[string]string{}}
	for _, d := range ladderDefs {
		l.units[d.Name] = d.Unit
	}
	lab := experiment.DefaultLab()
	ws, brain := lab.LC("websearch"), lab.BE("brain")
	model := lab.DRAMModel("websearch")

	l.simRungs(lab, ws, brain, model)
	l.engineRungs(lab)
	if err := l.procRungs(ctx, bins); err != nil {
		return nil, err
	}
	if err := l.apiRungs(lab); err != nil {
		return nil, err
	}
	if err := l.checkpointRungs(lab); err != nil {
		return nil, err
	}
	if err := l.scrapeRungs(lab); err != nil {
		return nil, err
	}
	return l.out, nil
}

// simRungs covers one simulated server: the machine step, the resource
// models under it, the controller over it, and one colocation point.
func (l *ladder) simRungs(lab *experiment.Lab, ws *wl.LC, brain *wl.BE, model core.DRAMModel) {
	m := machine.New(lab.Cfg)
	m.SetLC(ws)
	m.AddBE(brain, wl.PlaceDedicated)
	m.SetLoad(0.5)
	m.Partition(12)
	for i := 0; i < 620; i++ {
		m.Step() // past the 600-slot telemetry ring's growth
	}
	l.loop("machine.step_us", func() { m.Step() })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const allocSteps = 2000
	for i := 0; i < allocSteps; i++ {
		m.Step()
	}
	runtime.ReadMemStats(&ms1)
	l.set("machine.step_allocs", float64(ms1.Mallocs-ms0.Mallocs)/allocSteps)

	cfg := hw.DefaultConfig()
	loads := make([]hw.CoreLoad, cfg.CoresPerSocket)
	for i := range loads {
		loads[i] = hw.CoreLoad{Activity: 0.9}
		if i%3 == 0 {
			loads[i].CapGHz = 1.8
		}
	}
	freqs := make([]float64, len(loads))
	l.loop("hw.resolve_freq_us", func() { cfg.ResolveFrequenciesInto(freqs, loads) })

	solver := cache.Solver{WayMB: cfg.WayMB(), Ways: cfg.LLCWays}
	demands := []cache.Demand{
		{AccessRate: 1e9, Components: wl.Websearch().CacheComponents, WayMask: cache.MaskOfWays(2, 18), LoadScale: 1},
		{AccessRate: 2e9, Components: wl.Brain().CacheComponents, WayMask: cache.MaskOfWays(0, 2)},
	}
	var csc cache.Scratch
	l.loop("cache.resolve_us", func() { solver.ResolveScratch(&csc, demands) })

	bw := []float64{18, 30, 9}
	bwOut := make([]float64, len(bw))
	l.loop("mem.resolve_us", func() { mem.ResolveInto(bwOut, cfg.DRAMGBs, bw) })

	classes := []netlink.Class{{DemandGBs: 0.4, Flows: 64}, {DemandGBs: 1.2, Flows: 512, CeilGBs: 0.6}}
	netOut := make([]float64, len(classes))
	var nsc netlink.Scratch
	l.loop("netlink.resolve_us", func() { netlink.ResolveInto(netOut, &nsc, cfg.LinkGBs(), classes) })

	var an lat.Analytic
	sp := lat.ServiceParams{Mean: 10 * time.Millisecond, Sigma: 0.5}
	l.loop("lat.analytic_us", func() { an.Epoch(sp, 2000, 36, time.Second) })

	cm := machine.New(lab.Cfg)
	cm.SetLC(ws)
	cm.AddBE(brain, wl.PlaceDedicated)
	cm.SetLoad(0.5)
	ctl := core.New(cm, model, core.DefaultConfig())
	cm.Step()
	tick := 0
	l.loop("core.controller_step_us", func() {
		ctl.Step(time.Duration(tick) * time.Second)
		tick++
	})

	tracker := slo.NewTracker(slo.Config{}, time.Second)
	for i := 0; i < 260000; i++ {
		tracker.Push(i%7 == 0) // grow the bit ring to the 3d window
	}
	push := 0
	l.loop("slo.push_ns", func() {
		tracker.Push(push%7 == 0)
		push++
	})

	opts := experiment.RunOpts{Duration: 4 * time.Minute, UseDRAMModel: true, Workers: 1}
	l.loop("experiment.colocate_point_ms", func() { lab.Colocate("websearch", "brain", []float64{0.5}, opts) })

	l.loop("parallel.dispatch_us", func() { parallel.ForEach(0, 64, func(int) {}) })

	table := chash.New(1, "shard-0", "shard-1")
	key := 0
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("i%d", i)
	}
	l.loop("chash.place_ns", func() {
		table.Place(keys[key%len(keys)])
		key++
	})
}

func ladderEngineConfig(lab *experiment.Lab, nodes, workers int) engine.Config {
	brain, sview := lab.BE("brain"), lab.BE("streetview")
	return engine.Config{
		Nodes: nodes, HW: lab.Cfg, LC: lab.LC("websearch"), Heracles: true,
		Model: lab.DRAMModel("websearch"), LookupBE: lab.BE,
		SLOScale: 0.8, RootSamples: 100, Seed: 1, Workers: workers,
		InitialBEs: func(i int) []engine.BEAttach {
			if i%2 == 0 {
				return []engine.BEAttach{{WL: brain, Placement: wl.PlaceDedicated}}
			}
			return []engine.BEAttach{{WL: sview, Placement: wl.PlaceDedicated}}
		},
	}
}

func flatScenario(d time.Duration) scenario.Scenario {
	return scenario.Scenario{Name: "ladder", Duration: d, Load: scenario.Flat(0.5)}
}

// engineRungs covers what cmd/fleet spends its time in: the epoch loop
// at one and eight nodes, sequential and fanned out, the job
// scheduler's tick, one cluster run and one small fleet comparison.
func (l *ladder) engineRungs(lab *experiment.Lab) {
	step := func(name string, nodes, workers int) float64 {
		eng := engine.New(ladderEngineConfig(lab, nodes, workers))
		defer eng.Close()
		eng.InstallScenario(flatScenario(1000 * time.Hour))
		for i := 0; i < 650; i++ {
			eng.Step()
		}
		l.loop(name, func() { eng.Step() })
		return l.out[name].Value
	}
	step("engine.step_n1_us", 1, 1)
	seq := step("engine.step_n8_us", 8, 1)
	par := step("engine.step_n8_par_us", 8, 0)
	l.set("engine.par_efficiency", seq/(par*float64(min(8, parallel.DefaultWorkers()))))

	const nNodes = 64
	jobs := make([]sched.JobSpec, 512)
	for i := range jobs {
		jobs[i] = sched.JobSpec{Name: "j", Workload: "brain", Demand: 1 + i%3, Work: 1e6 * time.Second, Retries: 1 << 20}
	}
	s := sched.New(sched.Config{Policy: sched.SlackGreedy{}, Jobs: jobs, EvictGrace: time.Second})
	nodes := make([]sched.NodeState, nNodes)
	progress := func(j *sched.Job) float64 { return j.CPUSec + 1 }
	ticks := 0
	tick := func() {
		now := time.Duration(ticks) * time.Second
		for n := range nodes {
			r := sim.DeriveRNG(uint64(ticks), uint64(n))
			nodes[n] = sched.NodeState{ID: n, BEAllowed: r.Float64() > 0.2, Slack: r.Float64() * 0.4, MaxBECores: 24}
		}
		s.Tick(now, nodes, progress)
		ticks++
	}
	for i := 0; i < 64; i++ {
		tick()
	}
	l.loop("sched.tick_us", tick)

	ccfg := cluster.Config{
		Leaves: 4, Heracles: true, HW: lab.Cfg, LC: lab.LC("websearch"),
		Brain: lab.BE("brain"), SView: lab.BE("streetview"),
		RootSamples: 100, Seed: 1, Model: lab.DRAMModel("websearch"),
		Warmup: time.Minute, Workers: 1,
	}
	l.loop("cluster.run_scenario_ms", func() { cluster.RunScenario(ccfg, flatScenario(5*time.Minute)) })

	const dur = 3 * time.Minute
	fcfg := fleet.Config{Seed: 1, Clusters: []fleet.ClusterSpec{
		{Name: "std", Count: 2, HW: hw.DefaultConfig(), Leaves: 4, Warmup: dur / 6, Scenario: flatScenario(dur),
			Jobs: sched.SyntheticJobs(8, dur, 1, []string{"brain", "streetview"})},
		{Name: "compact", Count: 1, HW: hw.CompactConfig(), Leaves: 4, Warmup: dur / 6, Scenario: flatScenario(dur),
			Jobs: sched.SyntheticJobs(8, dur, 2, []string{"brain", "streetview"})},
	}}
	l.loop("fleet.run_policies_ms", func() { fleet.RunPolicies(fcfg, []string{"slack-greedy"}) })
}

// procRungs drives binaries: a CLI's start-up, the daemon's boot to its
// first 200, a loopback round trip, and a create over HTTP.
func (l *ladder) procRungs(ctx context.Context, bins binaries) error {
	l.loop("proc.start_ms", func() {
		_ = exec.CommandContext(ctx, bins.colocate, "-h").Run() // usage on stderr; only the start-up cost matters
	})

	var d *daemon
	err := l.each("proc.boot_ms", 1, func() (time.Duration, error) {
		if d != nil {
			d.stop()
		}
		var err error
		d, err = startDaemon(ctx, "heraclesd", bins.heraclesd, false, func(addr, _ string) []string {
			return []string{"-addr", addr, "-noboot", "-trace=false"}
		})
		if err != nil {
			return 0, err
		}
		return time.Duration(d.bootMs * float64(time.Millisecond)), nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	t := newTarget(d.url, 1)
	defer t.close()
	if _, err := createInstance(t, 0, `{"load":0.3,"speed":4}`); err != nil { // first create calibrates
		return err
	}
	if err := l.each("http.rtt_us", 400, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := t.expect(0, http.StatusOK, "GET", "/healthz", "")
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	return l.each("serve.http_create_us", 40, func() (time.Duration, error) {
		t0 := time.Now()
		st, err := createInstance(t, 0, `{"load":0.3,"speed":4}`)
		dt := time.Since(t0)
		if err != nil {
			return 0, err
		}
		_, err = t.expect(0, http.StatusOK, "DELETE", "/api/v1/instances/"+st.ID, "")
		return dt, err
	})
}

// removeInstance deletes an in-process instance the way the DELETE
// handler does.
func removeInstance(srv *serve.Server, id string) {
	if inst, _, ok := srv.Registry().Remove(id); ok {
		inst.Stop()
	}
}

// apiRungs times the request path of api-steady without a socket: the
// handlers through ServeHTTP, and under them the instance methods, on
// a pool shaped like the workload's.
func (l *ladder) apiRungs(lab *experiment.Lab) error {
	srv := serve.New(serve.Config{Lab: lab})
	defer srv.Close()
	var insts []*serve.Instance
	for i := 0; i < 32; i++ {
		inst, err := srv.CreateInstance(serve.InstanceSpec{
			LC: "websearch", BEs: []serve.BEAttachment{{Workload: "brain"}},
			Load: 0.30 + 0.01*float64(i), Speed: 100,
		})
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		insts = append(insts, inst)
	}
	h := srv.Handler()
	n := 0
	serveReq := func(method, path, body string) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, rd))
		n++
	}
	l.loop("serve.handler_put_load_us", func() {
		serveReq("PUT", "/api/v1/instances/"+insts[n%len(insts)].ID()+"/load", `{"load":0.45}`)
	})
	l.loop("serve.handler_get_us", func() {
		serveReq("GET", "/api/v1/instances/"+insts[n%len(insts)].ID(), "")
	})
	var err error
	l.loop("serve.set_load_us", func() {
		if e := insts[n%len(insts)].SetLoad(0.45); e != nil {
			err = e
		}
		n++
	})
	l.loop("serve.mailbox_do_us", func() {
		if e := insts[n%len(insts)].Do(func() error { return nil }); e != nil {
			err = e
		}
		n++
	})
	l.loop("serve.status_us", func() {
		insts[n%len(insts)].Status()
		n++
	})
	if err != nil {
		return fmt.Errorf("ladder api rungs: %w", err)
	}
	return l.each("serve.create_us", 40, func() (time.Duration, error) {
		t0 := time.Now()
		inst, err := srv.CreateInstance(serve.InstanceSpec{Load: 0.3, Speed: 4})
		dt := time.Since(t0)
		if err != nil {
			return 0, err
		}
		removeInstance(srv, inst.ID())
		return dt, nil
	})
}

// checkpointRungs times state-move's two paths layer by layer on one
// instance with full telemetry rings: the in-process shard migration
// and its binary codec, the REST path's checkpoint, restore and JSON
// codec, and the engine's snapshot/restore under both.
func (l *ladder) checkpointRungs(lab *experiment.Lab) error {
	srv := serve.New(serve.Config{Lab: lab, Shards: 2})
	defer srv.Close()
	inst, err := srv.CreateInstance(serve.InstanceSpec{
		LC: "websearch", BEs: []serve.BEAttachment{{Workload: "brain"}},
		Load: 0.5, Speed: serve.SpeedMax, MaxEpochs: 700,
	})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for deadline := time.Now().Add(30 * time.Second); inst.Status().State != serve.StateDone; {
		if time.Now().After(deadline) {
			return fmt.Errorf("ladder: instance did not reach 700 epochs in 30s")
		}
		time.Sleep(time.Millisecond)
	}
	id, target := inst.ID(), 1-inst.Status().Shard
	if err := l.each("serve.migrate_shard_ms", 4, func() (time.Duration, error) {
		t0 := time.Now()
		res, err := srv.MigrateToShard(id, target)
		if err != nil {
			return 0, err
		}
		id, target = res.To, res.FromShard
		return time.Since(t0), nil
	}); err != nil {
		return err
	}
	inst, _ = srv.Registry().Get(id)
	var cp *serve.InstanceCheckpoint
	if err := l.each("serve.checkpoint_ms", 4, func() (time.Duration, error) {
		t0 := time.Now()
		c, err := inst.Checkpoint()
		cp = c
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	if err := l.each("serve.restore_create_ms", 4, func() (time.Duration, error) {
		t0 := time.Now()
		copyInst, err := srv.CreateInstance(serve.InstanceSpec{Restore: cp, Speed: 50, MaxEpochs: 100000000})
		dt := time.Since(t0)
		if err != nil {
			return 0, err
		}
		removeInstance(srv, copyInst.ID())
		return dt, nil
	}); err != nil {
		return err
	}

	var bin []byte
	l.loop("engine.encode_binary_us", func() { bin = cp.Engine.AppendBinary(bin[:0]) })
	l.set("engine.ckpt_binary_bytes", float64(len(bin)))
	l.loop("engine.decode_binary_us", func() {
		if _, e := engine.DecodeCheckpointBinary(bin); e != nil {
			err = e
		}
	})
	var js bytes.Buffer
	l.loop("engine.encode_json_ms", func() {
		js.Reset()
		if e := cp.Engine.Encode(&js); e != nil {
			err = e
		}
	})
	l.set("engine.ckpt_json_bytes", float64(js.Len()))
	doc := js.Bytes()
	l.loop("engine.decode_json_ms", func() {
		if _, e := engine.DecodeCheckpoint(bytes.NewReader(doc)); e != nil {
			err = e
		}
	})
	var file []byte
	l.loop("serve.ckpt_file_binary_us", func() {
		var e error
		if file, e = serve.AppendCheckpointFileBinary(file[:0], cp); e != nil {
			err = e
		}
	})
	l.loop("serve.ckpt_file_json_ms", func() {
		if _, e := serve.EncodeCheckpointFile(cp); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("ladder checkpoint rungs: %w", err)
	}

	ecfg := engine.Config{
		Nodes: 1, HW: lab.Cfg, LC: lab.LC("websearch"), Heracles: true,
		Model: lab.DRAMModel("websearch"), LookupBE: lab.BE, Load: 0.5, Workers: 1,
		SLO: &slo.Config{Admission: true},
		InitialBEs: func(int) []engine.BEAttach {
			return []engine.BEAttach{{WL: lab.BE("brain"), Placement: wl.PlaceDedicated}}
		},
	}
	eng := engine.New(ecfg)
	defer eng.Close()
	for i := 0; i < 700; i++ {
		eng.Step()
	}
	var snap *engine.Checkpoint
	l.loop("engine.snapshot_us", func() { snap = eng.Snapshot() })
	l.loop("engine.restore_us", func() {
		r, e := engine.Restore(ecfg, snap, nil)
		if e != nil {
			err = e
			return
		}
		r.Close()
	})
	if err != nil {
		return fmt.Errorf("ladder engine.restore_us: %w", err)
	}
	return nil
}

// scrapeRungs times fleet-scrape's read path on a pool of its size: the
// status fan-out, the exposition writer, the whole /metrics handler,
// and the epoch scheduler's per-slice overhead.
func (l *ladder) scrapeRungs(lab *experiment.Lab) error {
	// ScheduleBench runs a whole batch of slices itself.
	const slices = 20000
	err := l.each("serve.schedule_slice_us", 1, func() (time.Duration, error) {
		t0 := time.Now()
		serve.ScheduleBench(4, 256, slices)
		return time.Since(t0) / slices, nil
	})
	if err != nil {
		return err
	}

	srv := serve.New(serve.Config{Lab: lab, Shards: 2, MaxInstances: 1100})
	defer srv.Close()
	const pool = 1000
	for i := 0; i < pool; i++ {
		if _, err := srv.CreateInstance(serve.InstanceSpec{Load: 0.2 + 0.5*float64(i)/pool, Speed: 4}); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	var sts []serve.Status
	l.loop("serve.statuses_ms", func() { sts = srv.Registry().Statuses() })
	var buf bytes.Buffer
	l.loop("serve.write_metrics_ms", func() {
		buf.Reset()
		serve.WriteMetrics(&buf, sts)
	})
	h := srv.Handler()
	var body int
	l.loop("serve.handler_metrics_ms", func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		body = rec.Body.Len()
	})
	l.set("serve.metrics_bytes", float64(body))
	return nil
}
