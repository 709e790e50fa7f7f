//go:build linux

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// host is the machine metadata every report carries, so results from
// different hosts are never compared by accident.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	OpConns    int    `json:"op_phase_connections"`
	HeavyConns int    `json:"heavy_phase_connections"`
	Loop       string `json:"loop"`
	// The two constants that define host-normalised time (loop.go).
	ProbeRefMs      float64 `json:"probe_ref_ms"`
	HostSensitivity float64 `json:"host_sensitivity"`
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OpConns: clientConns(), HeavyConns: 1,
		Loop:       "closed: each connection sends its next request when the previous one completed",
		ProbeRefMs: probeRefMs, HostSensitivity: hostSensitivity,
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h host) print(w io.Writer) {
	fmt.Fprintf(w, "heraclesbench: %d CPUs (GOMAXPROCS %d), %s, kernel %s, %s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CPUModel)
	fmt.Fprintf(w, "heraclesbench: closed loop, %d connection(s) in op phases, %d in heavy phases and throughout state-move; times host-normalised (probe %.1f ms, sensitivity %.2f)\n",
		h.OpConns, h.HeavyConns, h.ProbeRefMs, h.HostSensitivity)
}

// suite is one invocation's shared state.
type suite struct {
	ctx     context.Context
	bins    binaries
	seconds float64
	tiny    bool
	outDir  string
	host    host
}

func (s *suite) env(seed uint64, trace bool) *env {
	return &env{
		ctx: s.ctx, bins: s.bins, seed: seed, seconds: s.seconds,
		tiny: s.tiny, trace: trace,
	}
}

// report is what one invocation measured; report.json is this document.
type report struct {
	Host      host              `json:"host"`
	CreatedAt time.Time         `json:"created_at"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Tiny      bool              `json:"tiny,omitempty"`
	Traced    bool              `json:"traced"`
	Ladder    map[string]metric `json:"ladder,omitempty"`
	Runs      []*runResult      `json:"runs"`
	Reconcile []reconcileRow    `json:"reconcile,omitempty"`

	spans []span
}

// run measures the given workloads once each. Untraced, that is the
// end-to-end run. Traced, the per-layer ladder is measured first (no
// daemon is up yet), then each workload makes a traced pass.
func (s *suite) run(defs []workloadDef, seed uint64, trace bool) (*report, error) {
	rep := &report{Host: s.host, CreatedAt: time.Now().UTC(), Seed: seed, Seconds: s.seconds, Tiny: s.tiny, Traced: trace}
	var tr *tracer
	var root span
	if trace {
		tr = newTracer()
		root = tr.begin(0, "run")
		ladder, err := runLadder(s.ctx, s.bins, tr, root.ID)
		if err != nil {
			return nil, err
		}
		rep.Ladder = ladder
		fmt.Println("\n== per-layer ladder (median of", ladderBatches, "batches per rung) ==")
		printMetrics(os.Stdout, ladder)
	}
	for _, def := range defs {
		res, err := runWorkload(s.env(seed, trace), def, tr, root.ID)
		if err != nil {
			return nil, err
		}
		printRun(os.Stdout, res)
		rep.Runs = append(rep.Runs, res)
	}
	if trace {
		tr.finish(root)
		rep.spans = tr.spans
		rep.Reconcile = reconcile(rep)
		printReconcile(os.Stdout, rep.Reconcile)
	}
	return rep, nil
}

// write stores report.json and, for a traced run, trace.json.
func (r *report) write(dir string) error {
	if err := writeJSON(filepath.Join(dir, "report.json"), r); err != nil {
		return err
	}
	if r.Traced {
		if err := writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"spans": r.spans}); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d spans)\n", filepath.Join(dir, "trace.json"), len(r.spans))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the benchmark contract's result object.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLines builds one contract line per run: every end-to-end metric
// for an untraced run, every per-layer metric of BENCHMARK.json for a
// traced one (the ladder's rungs plus the pass's own four).
func (r *report) resultLines() []resultLine {
	var lines []resultLine
	for _, res := range r.Runs {
		line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
		if r.Traced {
			line.Metrics = map[string]metric{}
			for _, d := range ladderDefs {
				m, ok := r.Ladder[d.Name]
				if passMetrics[d.Name] {
					m, ok = res.Layer[d.Name]
				}
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					line.Correct = false
					fmt.Fprintf(os.Stderr, "heraclesbench: per-layer metric %s was not measured\n", d.Name)
					continue
				}
				line.Metrics[d.Name] = m
			}
		}
		lines = append(lines, line)
	}
	return lines
}

// reconcileRow compares what an external client measured for one kind
// of request with the sum of the ladder rungs on its path.
type reconcileRow struct {
	Request    string   `json:"request"`
	ExternalUs float64  `json:"external_us"`
	Source     string   `json:"external_source"`
	Rungs      []string `json:"rungs"`
	RungSumUs  float64  `json:"rung_sum_us"`
	GapPct     float64  `json:"unexplained_gap_pct"`
	Finding    bool     `json:"finding"` // gap beyond the 20% ROADMAP asks for
}

// reconcile builds the PUT load, checkpoint and create rows from
// whatever this invocation measured; a row needs its external figure.
func reconcile(r *report) []reconcileRow {
	us := func(name string) float64 {
		m := r.Ladder[name]
		return m.Value * unitNs[m.Unit] / 1e3
	}
	var rows []reconcileRow
	add := func(request string, external float64, source string, rungs ...string) {
		row := reconcileRow{Request: request, ExternalUs: external, Source: source, Rungs: rungs}
		for _, name := range rungs {
			row.RungSumUs += us(name)
		}
		row.GapPct = 100 * (external - row.RungSumUs) / external
		row.Finding = math.Abs(row.GapPct) > 20
		rows = append(rows, row)
	}
	for _, res := range r.Runs {
		if p50, ok := res.KindP50Ms["put-load"]; ok && res.Workload == "api-steady" {
			add("PUT load", 1e3*p50, "api-steady op phase, median of put-load requests",
				"http.rtt_us", "serve.handler_put_load_us")
		}
		if m, ok := res.Layer["rest.checkpoint_step_ms"]; ok {
			add("POST checkpoint", 1e3*m.Value, "state-move heavy phase, median of the checkpoint step",
				"http.rtt_us", "serve.checkpoint_ms", "engine.encode_json_ms")
		}
	}
	if _, ok := r.Ladder["serve.http_create_us"]; ok {
		add("POST create", us("serve.http_create_us"), "ladder daemon, POST /api/v1/instances over loopback",
			"http.rtt_us", "serve.create_us")
	}
	return rows
}

func printReconcile(w io.Writer, rows []reconcileRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== reconcile: external median vs the sum of the ladder rungs on the path ==\n")
	fmt.Fprintf(w, "  %-16s %12s %12s %8s  %s\n", "request", "external_us", "rungs_us", "gap", "rungs")
	for _, row := range rows {
		note := ""
		if row.Finding {
			note = "  <- finding: more than 20% unexplained"
		}
		fmt.Fprintf(w, "  %-16s %12.1f %12.1f %7.1f%%  %s%s\n",
			row.Request, row.ExternalUs, row.RungSumUs, row.GapPct, strings.Join(row.Rungs, " + "), note)
	}
}
