//go:build linux

package main

import (
	"context"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// testBins builds the shipped commands once for the smoke tests.
var testBins struct {
	once sync.Once
	bins binaries
	dir  string
	err  error
}

func shippedBinaries(t *testing.T) binaries {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives the shipped binaries")
	}
	testBins.once.Do(func() {
		root, err := moduleRoot(".")
		if err != nil {
			testBins.err = err
			return
		}
		if testBins.dir, err = os.MkdirTemp("", "heraclesbench-test-"); err != nil {
			testBins.err = err
			return
		}
		testBins.bins, testBins.err = buildBinaries(root, testBins.dir)
	})
	if testBins.err != nil {
		t.Fatal(testBins.err)
	}
	return testBins.bins
}

func TestMain(m *testing.M) {
	code := m.Run()
	stopAll()
	if testBins.dir != "" {
		os.RemoveAll(testBins.dir)
	}
	os.Exit(code)
}

func tinyEnv(bins binaries, trace bool) *env {
	return &env{
		ctx: context.Background(), bins: bins, seed: 11, seconds: 1,
		tiny: true, trace: trace,
	}
}

// Each workload end to end at smoke sizes: real processes, real
// sockets, every reply check on, every end-to-end metric produced.
func TestTinySmoke(t *testing.T) {
	bins := shippedBinaries(t)
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(tinyEnv(bins, false), def, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("run not correct: %d of %d failed, problems %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
		})
	}
	live.Lock()
	n := len(live.set)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d daemons still running after the workloads returned", n)
	}
}

// A traced pass records the span tree down to single requests and
// supplies the per-layer figures a pass owes.
func TestTinyTracedPass(t *testing.T) {
	bins := shippedBinaries(t)
	def, _ := workloadByName("api-steady")
	tr := newTracer()
	root := tr.begin(0, "run")
	res, err := runWorkload(tinyEnv(bins, true), def, tr, root.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced pass not correct: %v", res.Problems)
	}
	for name := range passMetrics {
		if _, ok := res.Layer[name]; !ok {
			t.Errorf("traced pass did not report %s", name)
		}
	}
	if _, ok := res.Layer["fed.proxy_mean_us"]; !ok {
		t.Errorf("traced api-steady pass did not scrape the router's proxy histogram: %v", res.Layer)
	}
	byID := map[uint64]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	requests := 0
	for _, s := range tr.spans {
		if s.Req == 0 {
			continue
		}
		requests++
		phase, ok := byID[s.Parent]
		if !ok || !strings.HasSuffix(phase.Name, "-phase") {
			t.Fatalf("request span %d hangs under %q, want a phase span", s.ID, phase.Name)
		}
		round, ok := byID[phase.Parent]
		if !ok || !strings.HasPrefix(round.Name, "round-") || byID[round.Parent].Name != "api-steady" {
			t.Fatalf("phase span %d is not under round → workload", phase.ID)
		}
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	if requests == 0 {
		t.Error("no request spans recorded")
	}
}

// A daemon that dies mid-run is reported with its stderr tail, and
// stopping reaps every child.
func TestDaemonDeathIsReported(t *testing.T) {
	bins := shippedBinaries(t)
	d, err := startDaemon(context.Background(), "heraclesd", bins.heraclesd, false, func(addr, _ string) []string {
		return []string{"-addr", addr, "-noboot", "-trace=false"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if d.bootMs <= 0 || !d.alive() {
		t.Fatalf("daemon not up after startDaemon returned (boot %v ms)", d.bootMs)
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("killed daemon was not reaped")
	}
	w := &fleetScrape{daemon: d}
	err = w.abort()
	if err == nil || !strings.Contains(err.Error(), "heraclesd exited") || !strings.Contains(err.Error(), "listening on") {
		t.Errorf("abort after the daemon died = %v, want its exit status and stderr tail", err)
	}

	// A daemon that cannot start fails with its own message.
	_, err = startDaemon(context.Background(), "heraclesfed", bins.heraclesfed, false, func(addr, _ string) []string {
		return []string{"-addr", addr} // -members is required
	})
	if err == nil || !strings.Contains(err.Error(), "-members is required") {
		t.Errorf("starting heraclesfed without members = %v, want its usage error", err)
	}
}
