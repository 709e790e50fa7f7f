//go:build linux

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// pairCheck is one workload × metric pair of a self-check: two sets of
// runs of the same code, which must agree within the metric's bound.
type pairCheck struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	SpreadA  float64   `json:"spread_a"` // (Q3-Q1)/median of set A's runs
	SpreadB  float64   `json:"spread_b"`
	Gap      float64   `json:"gap"` // how much worse B's median is than A's, as a share of A's; negative = better
	OK       bool      `json:"ok"`
	ValuesA  []float64 `json:"values_a"`
	ValuesB  []float64 `json:"values_b"`
}

// selfcheckReport is the document committed under results/.
type selfcheckReport struct {
	Host       host        `json:"host"`
	CreatedAt  time.Time   `json:"created_at"`
	Seconds    float64     `json:"seconds"`
	RunsPerSet int         `json:"runs_per_set"`
	Order      string      `json:"order"`
	Seeds      []uint64    `json:"seeds"`
	WallS      float64     `json:"wall_s"`
	AllCorrect bool        `json:"all_correct"`
	OK         bool        `json:"ok"`
	Pairs      []pairCheck `json:"pairs"`
}

// selfcheck runs the suite 2×runs times, alternating between set A and
// set B (A B A B …), every suite run under its own seed, and compares
// the two sets' medians pair by pair against the bounds. It reports
// whether every pair agrees and every run was correct.
func (s *suite) selfcheck(seed uint64, runs int) (bool, error) {
	start := time.Now()
	rep := selfcheckReport{
		Host: s.host, CreatedAt: start.UTC(), Seconds: s.seconds, RunsPerSet: runs,
		Order: "A B interleaved, one full suite per step", AllCorrect: true,
	}
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for i := range values {
		values[i] = map[string]map[string][]float64{}
	}
	for step := 0; step < 2*runs; step++ {
		set := step % 2
		runSeed := seed + uint64(step)
		rep.Seeds = append(rep.Seeds, runSeed)
		fmt.Printf("\n#### self-check step %d of %d: set %c, seed %d ####\n", step+1, 2*runs, 'A'+set, runSeed)
		r, err := s.run(workloads, runSeed, false)
		if err != nil {
			return false, err
		}
		for _, res := range r.Runs {
			rep.AllCorrect = rep.AllCorrect && res.Correct
			if values[set][res.Workload] == nil {
				values[set][res.Workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[set][res.Workload][name] = append(values[set][res.Workload][name], m.Value)
			}
		}
	}

	rep.OK = rep.AllCorrect
	fmt.Printf("\n== self-check: two interleaved sets of %d runs, medians against the bounds ==\n", runs)
	fmt.Printf("  %-13s %-17s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "gap", "bound")
	for _, def := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][def.name][d.Name], values[1][def.name][d.Name]
			p := pairCheck{
				Workload: def.name, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b),
				ValuesA: a, ValuesB: b,
			}
			p.Gap = (p.MedianB - p.MedianA) / p.MedianA
			if d.Better == "higher" {
				p.Gap = -p.Gap
			}
			// The sets run the same code: neither may look worse than the
			// other by more than the bound.
			p.OK = math.Abs(p.Gap) <= d.Bound
			rep.OK = rep.OK && p.OK
			flag := ""
			if !p.OK {
				flag = "  <- over the bound"
			}
			fmt.Printf("  %-13s %-17s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				p.Workload, p.Metric, p.MedianA, p.MedianB, 100*p.SpreadA, 100*p.SpreadB, 100*p.Gap, 100*p.Bound, flag)
			rep.Pairs = append(rep.Pairs, p)
		}
	}
	rep.WallS = time.Since(start).Seconds()
	path := filepath.Join(s.outDir, "selfcheck.json")
	if err := writeJSON(path, rep); err != nil {
		return false, err
	}
	fmt.Printf("\nwrote %s; all runs correct: %v; every pair within its bound: %v\n", path, rep.AllCorrect, rep.OK)
	if !rep.OK {
		fmt.Fprintln(os.Stderr, "heraclesbench: self-check failed")
	}
	return rep.OK, nil
}
