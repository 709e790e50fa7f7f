//go:build linux

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// BENCHMARK.json and the harness name the same workloads and metrics,
// with the same units, directions and bounds: what the file promises is
// what the result lines carry.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the harness prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %s has no bound", m.Name)
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v bound %v, the harness %+v", i, m, *m.Bound, d)
		}
		if *m.Bound > 0.25 {
			t.Errorf("%s: bound %v above the contract's 0.25", m.Name, *m.Bound)
		}
	}

	if len(bf.PerLayer) != len(ladderDefs) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness prints %d", len(bf.PerLayer), len(ladderDefs))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		d := ladderDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.Name] {
			t.Errorf("%s is both an end-to-end and a per-layer name", d.Name)
		}
	}

	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/heraclesbench" {
		t.Errorf("paths %v, want the harness's own directory", bf.Paths)
	}
	if len(bf.Command) != 2 || bf.Command[0] != "bash" || bf.Command[1] != "cmd/heraclesbench/bench.sh" {
		t.Errorf("command %v, want bash cmd/heraclesbench/bench.sh", bf.Command)
	}
}

// The result line of an untraced run carries exactly the end-to-end
// names; that of a traced run exactly the per-layer names.
func TestResultLineNames(t *testing.T) {
	res := &runResult{Correct: true, Attempted: 1, Metrics: map[string]metric{}, Layer: map[string]metric{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{1, d.Unit}
	}
	rep := &report{Runs: []*runResult{res}, Ladder: map[string]metric{}}
	for _, d := range ladderDefs {
		if passMetrics[d.Name] {
			res.Layer[d.Name] = metric{1, d.Unit}
		} else {
			rep.Ladder[d.Name] = metric{1, d.Unit}
		}
	}
	plain := rep.resultLines()[0]
	if len(plain.Metrics) != len(endToEnd) {
		t.Errorf("untraced line carries %d metrics, want %d", len(plain.Metrics), len(endToEnd))
	}
	rep.Traced = true
	traced := rep.resultLines()[0]
	if len(traced.Metrics) != len(ladderDefs) || !traced.Correct {
		t.Errorf("traced line carries %d metrics (correct %v), want %d", len(traced.Metrics), traced.Correct, len(ladderDefs))
	}
	delete(rep.Ladder, "machine.step_us")
	if rep.resultLines()[0].Correct {
		t.Error("a traced line missing a per-layer metric must not be correct")
	}
}
