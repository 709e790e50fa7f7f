//go:build linux

package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// apiSteady is the operator steering a small live pool: heraclesd plus
// heraclesfed, a paced pool created through the router, a read/write
// mix sent straight to the daemon (op) and the same mix through the
// router (heavy op), so heavy − op is the federation hop.
type apiSteady struct {
	pool     int
	warmOps  int // fixed warm-up work: direct ops per connection
	warmHops int // and routed ops

	daemon, fed *daemon
	direct      *target // daemon, conns connections
	routed      *target // router, one connection
	ctl         *target // daemon, control reads between phases
	localIDs    []string
	fedIDs      []string

	// lastPut[w] is worker w's most recent successful PUT load. The
	// heavy phase runs as worker 0 and ends the round, so after a round
	// lastPut[0] is the last write its instance received.
	lastPut []putRecord

	sseCancel context.CancelFunc
	sseDone   chan struct{}
	sseEvents atomic.Int64

	probe    *daemonProbe
	fedProbe *target
	fed0     promSeries
	sse0     int64
	fedCPU0  float64
	heavyOps float64 // routed ops completed since layerBegin
}

type putRecord struct {
	inst  int
	value float64
	set   bool
}

func newAPISteady(tiny bool) *apiSteady {
	if tiny {
		return &apiSteady{pool: 4, warmOps: 20, warmHops: 10}
	}
	return &apiSteady{pool: 32, warmOps: 3000, warmHops: 1000}
}

func (a *apiSteady) setup(e *env) error {
	if err := e.stage(func() error { return a.boot(e) }); err != nil {
		return err
	}
	// Warm-up: fixed work, the same on every run, so set-up time moves
	// only when the code does.
	warm := a.phase(e, "warm-op", 0, phaseWarm, false, 0, a.warmOps)
	warm.sliceOps = 1000
	hops := a.phase(e, "warm-heavy", 0, phaseWarmHeavy, true, 0, a.warmHops)
	hops.sliceOps = 300
	return e.warmup(warm, hops)
}

// boot starts the daemon and the router, creates the pool through the
// router and attaches the SSE subscriber.
func (a *apiSteady) boot(e *env) error {
	var err error
	a.daemon, err = startDaemon(e.ctx, "heraclesd", e.bins.heraclesd, e.trace, func(addr, pprof string) []string {
		args := []string{"-addr", addr, "-noboot", "-trace=false"}
		if pprof != "" {
			args = append(args, "-pprof-addr", pprof)
		}
		return args
	})
	if err != nil {
		return err
	}
	a.fed, err = startDaemon(e.ctx, "heraclesfed", e.bins.heraclesfed, false, func(addr, _ string) []string {
		return []string{"-addr", addr, "-members", a.daemon.url}
	})
	if err != nil {
		return err
	}
	conns := min(clientConns(), a.pool)
	a.direct = newTarget(a.daemon.url, conns)
	a.routed = newTarget(a.fed.url, 1)
	a.ctl = newTarget(a.daemon.url, 1)
	a.lastPut = make([]putRecord, conns)

	for i := 0; i < a.pool; i++ {
		spec := fmt.Sprintf(`{"lc":"websearch","bes":[{"workload":"brain"}],"load":%s,"speed":100}`,
			fmtFloat(round4(0.30+0.01*float64(i))))
		st, err := createInstance(a.routed, 0, spec)
		if err != nil {
			return err
		}
		a.fedIDs = append(a.fedIDs, st.ID)
		a.localIDs = append(a.localIDs, st.MemberID)
	}
	return a.subscribe(e.ctx)
}

// subscribe attaches one SSE client to the first instance for the whole
// run and counts the epoch events it receives.
func (a *apiSteady) subscribe(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, "GET", a.daemon.url+"/api/v1/instances/"+a.localIDs[0]+"/stream", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		cancel()
		return fmt.Errorf("SSE subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("SSE subscribe: status %d", resp.StatusCode)
	}
	a.sseCancel = cancel
	a.sseDone = make(chan struct{})
	go func() {
		defer close(a.sseDone)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: epoch") {
				a.sseEvents.Add(1)
			}
		}
	}()
	return nil
}

// phase builds a closed-loop phase of the request mix: straight to the
// daemon on every connection, or through the router on one.
func (a *apiSteady) phase(e *env, name string, round, phase int, routed bool, d time.Duration, count int) phaseSpec {
	t, ids, workers := a.direct, a.localIDs, len(a.lastPut)
	if routed {
		t, ids, workers = a.routed, a.fedIDs, 1
	}
	return phaseSpec{
		name: name, workers: workers, dur: d, count: count,
		next: func(w int) func() op {
			return apiMix(stream(e.seed, wlAPISteady, round, phase, w), ids, w, workers)
		},
		do: func(w int, o op) error {
			if _, err := t.expect(w, http.StatusOK, o.Method, o.Path, o.Body); err != nil {
				return err
			}
			if o.Kind == "put-load" {
				a.lastPut[w] = putRecord{inst: o.Inst, value: o.Value, set: true}
			}
			return nil
		},
		abort: a.abort,
	}
}

func (a *apiSteady) abort() error {
	for _, d := range []*daemon{a.daemon, a.fed} {
		if !d.alive() {
			return d.deathError()
		}
	}
	return nil
}

func (a *apiSteady) opSpec(e *env, round int, d time.Duration) phaseSpec {
	return a.phase(e, "op", round, phaseOp, false, d, 0)
}

func (a *apiSteady) heavySpec(e *env, round int, d time.Duration) phaseSpec {
	return a.phase(e, "heavy", round, phaseHeavy, true, d, 0)
}

// afterRound checks that the last write of the round is what a read
// returns: the load shows in telemetry from the next epoch on, so the
// read is retried for a bounded time.
func (a *apiSteady) afterRound(op, heavy phaseResult) error {
	a.heavyOps += float64(len(heavy.ms))
	last := a.lastPut[0]
	if !last.set {
		return nil
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := getStatus(a.ctl, 0, a.localIDs[last.inst])
		if err != nil {
			return err
		}
		if math.Abs(st.Last.Load-last.value) < 1e-9 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("instance %s shows load %v, last PUT was %v", a.localIDs[last.inst], st.Last.Load, last.value)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (a *apiSteady) epochs() (float64, error) {
	h, err := getHealthz(a.ctl)
	return float64(h.Sched.Epochs), err
}

func (a *apiSteady) cpuSeconds() (float64, error) { return procCPUSeconds(a.daemon.pid()) }

func (a *apiSteady) rssMB() (float64, error) {
	var kb float64
	for _, d := range []*daemon{a.daemon, a.fed} {
		v, err := procStatusKB(d.pid(), "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

func (a *apiSteady) layerBegin() error {
	a.probe = newDaemonProbe(a.daemon, a.ctl)
	a.fedProbe = newTarget(a.fed.url, 1)
	var err error
	if a.fed0, err = scrapeProm(a.fedProbe, "/metrics"); err != nil {
		return err
	}
	if a.fedCPU0, err = procCPUSeconds(a.fed.pid()); err != nil {
		return err
	}
	a.sse0, a.heavyOps = a.sseEvents.Load(), 0
	return a.probe.begin()
}

func (a *apiSteady) layer(wall time.Duration) (map[string]metric, error) {
	out, err := a.probe.end(wall)
	if err != nil {
		return nil, err
	}
	fed1, err := scrapeProm(a.fedProbe, "/metrics")
	if err != nil {
		return nil, err
	}
	if mean, ok := histMean(a.fed0, fed1, "heracles_fed_proxy_duration_seconds"); ok {
		out["fed.proxy_mean_us"] = metric{1e6 * mean, "us"}
	}
	// The router is idle outside heavy phases, so its CPU over the span
	// is what the routed ops cost it.
	if cpu, err := procCPUSeconds(a.fed.pid()); err == nil && a.heavyOps > 0 {
		out["fed.cpu_us_per_op"] = metric{1e6 * (cpu - a.fedCPU0) / a.heavyOps, "us"}
	}
	out["serve.sse_events_per_s"] = metric{float64(a.sseEvents.Load()-a.sse0) / wall.Seconds(), "1/s"}
	st, err := getStatus(a.ctl, 0, a.localIDs[0])
	if err != nil {
		return nil, err
	}
	out["serve.sse_dropped"] = metric{float64(st.DroppedEvents), "count"}
	return out, nil
}

func (a *apiSteady) teardown() {
	if a.sseCancel != nil {
		a.sseCancel()
		<-a.sseDone
	}
	for _, t := range []*target{a.direct, a.routed, a.ctl, a.fedProbe} {
		if t != nil {
			t.close()
		}
	}
	if a.probe != nil {
		a.probe.close()
	}
	// The router goes first: it holds connections into the daemon.
	for _, d := range []*daemon{a.fed, a.daemon} {
		if d != nil {
			d.stop()
		}
	}
}
