//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// healthz is the part of heraclesd's GET /healthz the harness reads.
type healthz struct {
	Instances  int   `json:"instances"`
	Migrations int64 `json:"migrations"`
	Sched      struct {
		Slices     int64   `json:"slices"`
		Epochs     int64   `json:"epochs"`
		Shed       int64   `json:"shed"`
		LagSeconds float64 `json:"lag_seconds"`
	} `json:"epoch_scheduler"`
}

func getHealthz(t *target) (healthz, error) {
	var h healthz
	data, err := t.expect(0, http.StatusOK, "GET", "/healthz", "")
	if err != nil {
		return h, fmt.Errorf("GET /healthz: %w", err)
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return h, fmt.Errorf("GET /healthz: %w", err)
	}
	return h, nil
}

// instanceStatus is the part of an instance Status (and of the router's
// InstanceInfo) the harness reads.
type instanceStatus struct {
	ID       string `json:"id"`
	MemberID string `json:"member_id"`
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Epoch    uint64 `json:"epoch"`
	Last     struct {
		Load float64 `json:"load"`
	} `json:"last"`
	DroppedEvents int64 `json:"dropped_events"`
}

// getStatus reads one instance's status.
func getStatus(t *target, w int, id string) (instanceStatus, error) {
	var st instanceStatus
	data, err := t.expect(w, http.StatusOK, "GET", "/api/v1/instances/"+id, "")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// createInstance POSTs a spec and returns the created instance.
func createInstance(t *target, w int, spec string) (instanceStatus, error) {
	var st instanceStatus
	data, err := t.expect(w, http.StatusCreated, "POST", "/api/v1/instances", spec)
	if err != nil {
		return st, fmt.Errorf("create instance: %w", err)
	}
	return st, json.Unmarshal(data, &st)
}

// promSeries holds the unlabelled series of a Prometheus exposition:
// scalars, histogram _sum/_count lines and the runtime's go_* gauges.
// Labelled series (one per instance) are skipped, which keeps parsing a
// thousand-instance scrape cheap.
type promSeries map[string]float64

func scrapeProm(t *target, path string) (promSeries, error) {
	data, err := t.expect(0, http.StatusOK, "GET", path, "")
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	out := promSeries{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.IndexByte(line, '{') >= 0 {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// histMean is the mean of the observations a histogram gained between
// two scrapes, in seconds; ok is false when it gained none.
func histMean(before, after promSeries, name string) (mean float64, ok bool) {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0, false
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n, true
}

// daemonProbe reads a heraclesd's own accounting before and after the
// measured span of a traced run: its latency histograms, the epoch
// scheduler's counters, /proc and the -pprof-addr runtime gauges.
type daemonProbe struct {
	d      *daemon
	ctl    *target // the daemon's API, one connection
	pprof  *target // nil without -pprof-addr
	h0     healthz
	m0, g0 promSeries
}

func newDaemonProbe(d *daemon, ctl *target) *daemonProbe {
	p := &daemonProbe{d: d, ctl: ctl}
	if d.pprofURL != "" {
		p.pprof = newTarget(d.pprofURL, 1)
	}
	return p
}

func (p *daemonProbe) begin() error {
	var err error
	if p.h0, err = getHealthz(p.ctl); err != nil {
		return err
	}
	if p.m0, err = scrapeProm(p.ctl, "/metrics"); err != nil {
		return err
	}
	if p.pprof != nil {
		if p.g0, err = scrapeProm(p.pprof, "/metrics"); err != nil {
			return err
		}
	}
	return nil
}

// end computes the deltas over wall. Histogram means are reported only
// for histograms that gained observations in the span.
func (p *daemonProbe) end(wall time.Duration) (map[string]metric, error) {
	out := map[string]metric{}
	h1, err := getHealthz(p.ctl)
	if err != nil {
		return nil, err
	}
	m1, err := scrapeProm(p.ctl, "/metrics")
	if err != nil {
		return nil, err
	}
	for _, h := range []struct {
		family, name, unit string
		scale              float64
	}{
		{"heracles_mailbox_command_duration_seconds", "serve.mailbox_cmd_mean_us", "us", 1e6},
		{"heracles_epoch_slice_duration_seconds", "serve.epoch_slice_mean_us", "us", 1e6},
		{"heracles_migrate_duration_seconds", "serve.migrate_mean_ms", "ms", 1e3},
		{"heracles_checkpoint_duration_seconds", "serve.checkpoint_mean_ms", "ms", 1e3},
		{"heracles_restore_duration_seconds", "serve.restore_mean_ms", "ms", 1e3},
	} {
		if mean, ok := histMean(p.m0, m1, h.family); ok {
			out[h.name] = metric{mean * h.scale, h.unit}
		}
	}
	secs := wall.Seconds()
	slices := float64(h1.Sched.Slices - p.h0.Sched.Slices)
	out["serve.slices_per_s"] = metric{slices / secs, "1/s"}
	if slices > 0 {
		out["serve.epochs_per_slice"] = metric{float64(h1.Sched.Epochs-p.h0.Sched.Epochs) / slices, "count"}
	}
	out["serve.shed_per_s"] = metric{float64(h1.Sched.Shed-p.h0.Sched.Shed) / secs, "1/s"}
	out["serve.sched_lag_max_ms"] = metric{1e3 * max(p.h0.Sched.LagSeconds, h1.Sched.LagSeconds), "ms"}
	if rss, err := procStatusKB(p.d.pid(), "VmRSS"); err == nil && h1.Instances > 0 {
		out["serve.rss_kb_per_instance"] = metric{rss / float64(h1.Instances), "KB"}
	}
	if p.pprof != nil {
		g1, err := scrapeProm(p.pprof, "/metrics")
		if err != nil {
			return nil, err
		}
		out["proc.heap_live_mb"] = metric{g1["go_gc_heap_live_bytes"] / (1 << 20), "MB"}
		out["proc.gc_cycles"] = metric{g1["go_gc_cycles_total_gc_cycles"] - p.g0["go_gc_cycles_total_gc_cycles"], "count"}
	}
	return out, nil
}

func (p *daemonProbe) close() {
	if p.pprof != nil {
		p.pprof.close()
	}
}
