//go:build linux

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// fleetScrape is the observer of a large, mostly idle fleet: a
// thousand slow-paced default instances, single-instance status reads
// (op) and full /metrics scrapes (heavy op). Read-only after set-up.
type fleetScrape struct {
	pool       int
	warmReads  int // fixed warm-up work: reads per connection
	warmScrape int // and scrapes

	daemon *daemon
	reads  *target // conns connections
	single *target // one connection: creates, scrapes, control
	ids    []string

	probe *daemonProbe
}

func newFleetScrape(tiny bool) *fleetScrape {
	if tiny {
		return &fleetScrape{pool: 8, warmReads: 20, warmScrape: 2}
	}
	return &fleetScrape{pool: 1000, warmReads: 2000, warmScrape: 3}
}

func (f *fleetScrape) setup(e *env) error {
	if err := e.stage(func() error { return f.boot(e) }); err != nil {
		return err
	}
	// The pool is created one instance at a time on one connection, in
	// stages short enough for the host probes around them to be fair.
	const chunk = 200
	for lo := 0; lo < f.pool; lo += chunk {
		lo := lo
		if err := e.stage(func() error { return f.create(lo, min(lo+chunk, f.pool)) }); err != nil {
			return err
		}
	}
	warm := f.readPhase(e, "warm-op", 0, phaseWarm, 0, f.warmReads)
	warm.sliceOps = 1000
	return e.warmup(warm, f.scrapePhase(e, "warm-heavy", 0, phaseWarmHeavy, 0, f.warmScrape))
}

func (f *fleetScrape) boot(e *env) error {
	var err error
	f.daemon, err = startDaemon(e.ctx, "heraclesd", e.bins.heraclesd, e.trace, func(addr, pprof string) []string {
		args := []string{"-addr", addr, "-noboot", "-shards", "2", "-trace=false",
			"-max-instances", strconv.Itoa(f.pool + 100)}
		if pprof != "" {
			args = append(args, "-pprof-addr", pprof)
		}
		return args
	})
	if err != nil {
		return err
	}
	f.reads = newTarget(f.daemon.url, min(clientConns(), f.pool))
	f.single = newTarget(f.daemon.url, 1)
	return nil
}

// create adds pool instances lo..hi-1, loads spread over 0.2-0.7.
func (f *fleetScrape) create(lo, hi int) error {
	for i := lo; i < hi; i++ {
		load := round4(0.2 + 0.5*float64(i)/float64(f.pool))
		st, err := createInstance(f.single, 0, `{"load":`+fmtFloat(load)+`,"speed":4}`)
		if err != nil {
			return err
		}
		f.ids = append(f.ids, st.ID)
	}
	return nil
}

func (f *fleetScrape) abort() error {
	if !f.daemon.alive() {
		return f.daemon.deathError()
	}
	return nil
}

func (f *fleetScrape) readPhase(e *env, name string, round, phase int, d time.Duration, count int) phaseSpec {
	return phaseSpec{
		name: name, workers: len(f.reads.bufs), dur: d, count: count,
		next: func(w int) func() op {
			return statusReads(stream(e.seed, wlFleetScrape, round, phase, w), f.ids)
		},
		do: func(w int, o op) error {
			_, err := f.reads.expect(w, http.StatusOK, o.Method, o.Path, "")
			return err
		},
		abort: f.abort,
	}
}

var instanceUpSample = []byte("\nheracles_instance_up{")

func (f *fleetScrape) scrapePhase(e *env, name string, round, phase int, d time.Duration, count int) phaseSpec {
	return phaseSpec{
		name: name, workers: 1, dur: d, count: count,
		next: func(w int) func() op {
			return scrapes(stream(e.seed, wlFleetScrape, round, phase, w))
		},
		do: func(w int, o op) error {
			body, err := f.single.expect(w, http.StatusOK, o.Method, o.Path, "")
			if err != nil {
				return err
			}
			if n := bytes.Count(body, instanceUpSample); n != f.pool {
				return fmt.Errorf("scrape carries %d heracles_instance_up samples, want %d", n, f.pool)
			}
			return nil
		},
		abort: f.abort,
	}
}

func (f *fleetScrape) opSpec(e *env, round int, d time.Duration) phaseSpec {
	return f.readPhase(e, "op", round, phaseOp, d, 0)
}

func (f *fleetScrape) heavySpec(e *env, round int, d time.Duration) phaseSpec {
	return f.scrapePhase(e, "heavy", round, phaseHeavy, d, 0)
}

func (f *fleetScrape) afterRound(op, heavy phaseResult) error {
	h, err := getHealthz(f.single)
	if err != nil {
		return err
	}
	if h.Instances != f.pool {
		return fmt.Errorf("pool holds %d instances, want %d", h.Instances, f.pool)
	}
	return nil
}

func (f *fleetScrape) epochs() (float64, error) {
	h, err := getHealthz(f.single)
	return float64(h.Sched.Epochs), err
}

func (f *fleetScrape) cpuSeconds() (float64, error) { return procCPUSeconds(f.daemon.pid()) }

func (f *fleetScrape) rssMB() (float64, error) {
	kb, err := procStatusKB(f.daemon.pid(), "VmHWM")
	return kb / 1024, err
}

func (f *fleetScrape) layerBegin() error {
	f.probe = newDaemonProbe(f.daemon, f.single)
	return f.probe.begin()
}

func (f *fleetScrape) layer(wall time.Duration) (map[string]metric, error) {
	return f.probe.end(wall)
}

func (f *fleetScrape) teardown() {
	for _, t := range []*target{f.reads, f.single} {
		if t != nil {
			t.close()
		}
	}
	if f.probe != nil {
		f.probe.close()
	}
	if f.daemon != nil {
		f.daemon.stop()
	}
}
