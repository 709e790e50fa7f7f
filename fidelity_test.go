// Paper-fidelity scorecard (ROADMAP aim 3, "Correctness and
// robustness"): one row per statement of Heracles (ISCA 2015) this
// repository can check, asserted and rendered into docs/FIDELITY.md.
//
//	make fidelity                      # assert every row and the committed table
//	go test -run TestFidelity -update . # regenerate the table after an intended move
package heracles_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"heracles/internal/cluster"
	"heracles/internal/core"
	"heracles/internal/experiment"
	"heracles/internal/fleet"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/scenario"
	"heracles/internal/tco"
	"heracles/internal/trace"
)

var updateFidelity = flag.Bool("update", false, "rewrite the scorecard table in docs/FIDELITY.md with current results")

const (
	fidelityDoc   = "docs/FIDELITY.md"
	fidelityBegin = "<!-- scorecard:begin (generated by TestFidelity; edit fidelity_test.go, not this table) -->"
	fidelityEnd   = "<!-- scorecard:end -->"
)

// fidelityRow is one checkable paper statement: where the paper makes it,
// which DESIGN §4 generator reproduces it, what this repository measures
// and the band the measurement has to stay in.
type fidelityRow struct {
	claim, generator, tolerance string
	check                       func() (value string, holds bool)
}

func fidelityRows(l *experiment.Lab) []fidelityRow {
	loads := benchLoads()
	lcs := []string{"websearch", "ml_cluster", "memkeyval"}

	// One Figure 8 run serves the root-SLO row and the §5.3 gain row.
	var fig8 [2]cluster.Summary
	runFig8 := sync.OnceFunc(func() {
		tr := trace.Diurnal(trace.DiurnalConfig{Duration: 90 * time.Minute, Step: time.Second, Seed: 42})
		for arm, on := range []bool{false, true} {
			fig8[arm] = cluster.Run(cluster.Config{
				Leaves: 8, Heracles: on, HW: l.Cfg,
				LC: l.LC("websearch"), Brain: l.BE("brain"), SView: l.BE("streetview"),
				Seed: 42, Model: l.DRAMModel("websearch"),
			}, tr).Summarize()
		}
	})

	return []fidelityRow{
		{
			claim:     "Fig. 8: the fan-out cluster holds the root SLO (µ/30 s) over a diurnal day",
			generator: "`cluster.Run`, 8 leaves, 90 min diurnal 20–85 %",
			tolerance: "0 violating windows; worst window ≤ 100 % of SLO; mean EMU ≥ 80 %",
			check: func() (string, bool) {
				runFig8()
				h := fig8[1]
				return fmt.Sprintf("%d violations; worst window %.1f %%, mean %.1f %% of SLO; mean EMU %.1f %% (baseline %.1f %%)",
						h.Violations, 100*h.MaxRootFrac, 100*h.MeanRootFrac, 100*h.MeanEMU, 100*fig8[0].MeanEMU),
					h.Violations == 0 && h.MaxRootFrac <= 1 && h.MeanEMU >= 0.80
			},
		},
		{
			claim:     "§5.3: throughput/TCO gain of 15 % from 75 % baseline utilisation, rising to ~300 % from 20 %",
			generator: "`tco.Analyze` (to the paper's 90 % target); the same arithmetic on the Fig. 8 run's measured EMU",
			tolerance: "14–16 % from 75 %; 200–320 % from 20 %; measured baseline → Heracles gain inside 15–300 %",
			check: func() (string, bool) {
				runFig8()
				cs := tco.Analyze(tco.Barroso())
				measured := tco.Barroso().ThroughputPerTCOGain(fig8[0].MeanEMU, fig8[1].MeanEMU)
				return fmt.Sprintf("%+.1f %% from 75 %%, %+.1f %% from 20 %%; measured %.1f %% → %.1f %% EMU is %+.1f %%",
						100*cs[0].HeraclesGain, 100*cs[1].HeraclesGain,
						100*fig8[0].MeanEMU, 100*fig8[1].MeanEMU, 100*measured),
					cs[0].BaseUtil == 0.75 && cs[0].HeraclesGain >= 0.14 && cs[0].HeraclesGain <= 0.16 &&
						cs[1].BaseUtil == 0.20 && cs[1].HeraclesGain >= 2.0 && cs[1].HeraclesGain <= 3.2 &&
						measured >= 0.15 && measured <= 3.0
			},
		},
		{
			claim:     "§5.3 at fleet scale: Heracles lifts EMU over the baseline with no root SLO violation",
			generator: "`fleet.Run`, two hardware generations, flash crowd and BE churn",
			tolerance: "EMU lift ≥ 10 points; 0 Heracles violations; TCO gain > 0",
			check: func() (string, bool) {
				r := fleet.Run(fidelityFleet())
				return fmt.Sprintf("EMU %.1f %% → %.1f %%; %d violations; worst window %.1f %% of SLO; %+.0f %% throughput/TCO",
						100*r.Baseline.MeanEMU, 100*r.Heracles.MeanEMU, r.Heracles.Violations,
						100*r.Heracles.MaxRootFrac, 100*r.Gain),
					r.Heracles.MeanEMU >= r.Baseline.MeanEMU+0.10 && r.Heracles.Violations == 0 && r.Gain > 0
			},
		},
		{
			claim:     "Fig. 4–5: colocation raises EMU to roughly 90 % with no SLO violation for any LC×BE pair",
			generator: "`Lab.Colocate`, 3 LC × 6 BE × 10 loads",
			tolerance: "0 violating points of 180; mean EMU with brain/streetview ≥ 80 %",
			check: func() (string, bool) {
				var viol, points int
				var emu, emuN float64
				for _, lc := range lcs {
					for _, be := range []string{"stream-LLC", "stream-DRAM", "cpu_pwr", "brain", "streetview", "iperf"} {
						s := l.Colocate(lc, be, loads, colocOpts())
						viol += len(s.Violations())
						points += len(s.Points)
						if be == "brain" || be == "streetview" {
							emu += s.MeanEMU()
							emuN++
						}
					}
				}
				return fmt.Sprintf("%d of %d points violate; mean EMU %.1f %%", viol, points, 100*emu/emuN),
					viol == 0 && emu/emuN >= 0.80
			},
		},
		{
			// Algorithm 3 lowers the BE frequency above 90 % of TDP only while
			// the LC cores run below their guaranteed frequency, so the bound
			// on power is TDP itself; the 90 % threshold bounds DRAM bandwidth.
			claim:     "Fig. 6: DRAM bandwidth stays under the saturation limit and package power within TDP while BE runs",
			generator: "`Lab.Colocate` (DRAM/power columns), 3 LC × 5 BE × 4 loads",
			tolerance: "worst DRAM ≤ 90 % of peak + 2 points; worst power ≤ 100 % of TDP; 0 violating points",
			check: func() (string, bool) {
				var dram, power float64
				var viol int
				for _, lc := range lcs {
					for _, be := range []string{"stream-LLC", "stream-DRAM", "cpu_pwr", "brain", "streetview"} {
						s := l.Colocate(lc, be, []float64{0.2, 0.4, 0.6, 0.8}, colocOpts())
						viol += len(s.Violations())
						for _, p := range s.Points {
							dram = max(dram, p.DRAMUtil)
							power = max(power, p.PowerFrac)
						}
					}
				}
				return fmt.Sprintf("worst DRAM %.1f %% of peak, worst power %.1f %% of TDP, %d violations", 100*dram, 100*power, viol),
					dram <= core.DefaultConfig().DRAMLimitFrac+0.02 && power <= 1 && viol == 0
			},
		},
		{
			claim:     "Fig. 7 / §3.3: memkeyval falls off a network cliff under iperf without HTB and holds its SLO with it",
			generator: "`Lab.Figure1` network row (no HTB); `Lab.Colocate(\"memkeyval\", \"iperf\")` (HTB)",
			tolerance: "uncontrolled tail ≥ 200 % of SLO at 60 % load; controlled worst window ≤ 100 %, 0 violations",
			check: func() (string, bool) {
				net, _ := l.Figure1("memkeyval", []float64{0.1, 0.6}).Row("Network")
				with := l.Colocate("memkeyval", "iperf", loads, colocOpts())
				var worst float64
				for _, p := range with.Points {
					worst = max(worst, p.WorstTail)
				}
				return fmt.Sprintf("without HTB %.0f %% of SLO at 60 %% load (%.0f %% at 10 %%); with HTB worst window %.1f %%, %d violations",
						100*net.Values[1], 100*net.Values[0], 100*worst, len(with.Violations())),
					net.Values[1] >= 2 && net.Values[0] <= 1 && worst <= 1 && len(with.Violations()) == 0
			},
		},
		{
			claim:     "Fig. 3: max load under SLO is a convex function of cores and LLC (gradient descent is safe)",
			generator: "`Lab.Figure3(\"websearch\")`, 10×10 grid",
			tolerance: "≤ 3 of 160 midpoint tests fail by more than 5 points of load",
			check: func() (string, bool) {
				fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
				s := l.Figure3("websearch", fracs, fracs)
				v := s.ConvexViolations(0.05)
				return fmt.Sprintf("%d convexity violations; full allocation sustains %.0f %% load", v, 100*s.MaxLoad[9][9]),
					v <= 3 && s.MaxLoad[9][9] >= 0.9
			},
		},
		{
			claim:     "Algorithms 1–4: load 85/80 %, slack 10/5 %, DRAM 90 %, power 90 %, polls 15 s / 2 s / 2 s / 1 s, 5 min cooldown",
			generator: "`core.DefaultConfig`",
			tolerance: "exact",
			check: func() (string, bool) {
				c := core.DefaultConfig()
				return fmt.Sprintf("load %.0f/%.0f %%, slack %.0f/%.0f %%, DRAM %.0f %%, power %.0f %%, polls %v / %v / %v / %v, cooldown %v",
						100*c.LoadDisable, 100*c.LoadEnable, 100*c.SlackGrow, 100*c.SlackPanic,
						100*c.DRAMLimitFrac, 100*c.PowerLimit,
						c.PollInterval, c.CorePollInterval, c.PowerPollInterval, c.NetPollInterval, c.Cooldown),
					c.LoadDisable == 0.85 && c.LoadEnable == 0.80 && c.SlackGrow == 0.10 && c.SlackPanic == 0.05 &&
						c.DRAMLimitFrac == 0.90 && c.PowerLimit == 0.90 &&
						c.PollInterval == 15*time.Second && c.CorePollInterval == 2*time.Second &&
						c.PowerPollInterval == 2*time.Second && c.NetPollInterval == time.Second &&
						c.Cooldown == 5*time.Minute
			},
		},
		{
			// Not a statement of the paper: the check on the model every row
			// above is computed with. Each cell runs the discrete-event queue
			// for a tenth of 100 000 arrivals to warm up, then measures
			// 100 000, so the cells near saturation at k = 4 are as well
			// sampled as the rest.
			claim:     "Model cross-check: the analytic M/G/k tail agrees with a discrete-event simulation of the same queue over the Fig. 4 operating range",
			generator: "`lat.Analytic` against `lat.DES`, ρ 0.3–0.9 × σ {0.2, 0.4, 0.8} × k {4, 16, 36}, 5 ms service",
			tolerance: "analytic p99 between 0.90× and 1.65× the simulated p99 in each of 63 cells",
			check: func() (string, bool) {
				const service = 5 * time.Millisecond
				lo, hi := 1.0, 1.0
				var worst string
				for _, k := range []int{4, 16, 36} {
					for _, sigma := range []float64{0.2, 0.4, 0.8} {
						for _, rho := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
							p := lat.ServiceParams{Mean: service, Sigma: sigma}
							lambda := rho * float64(k) / service.Seconds()
							dt := time.Duration(100000 / lambda * float64(time.Second))
							des := lat.NewDES(42)
							des.Epoch(p, lambda, k, dt/10)
							sim := des.Epoch(p, lambda, k, dt).P99
							ana := lat.Analytic{}.Epoch(p, lambda, k, dt).P99
							r := ana.Seconds() / sim.Seconds()
							if math.Abs(r-1) > max(hi-1, 1-lo) {
								worst = fmt.Sprintf("ρ %.1f, σ %.1f, k %d (analytic %.1f ms, simulated %.1f ms)",
									rho, sigma, k, 1e3*ana.Seconds(), 1e3*sim.Seconds())
							}
							lo, hi = min(lo, r), max(hi, r)
						}
					}
				}
				return fmt.Sprintf("analytic/simulated p99 %.2f–%.2f; widest at %s", lo, hi, worst),
					lo >= 0.90 && hi <= 1.65
			},
		},
	}
}

// fidelityFleet is cmd/fleet's shape at test scale: the reference
// generation under a ramp with a flash crowd, the compact generation under
// stepped load with streetview churn and the §5.3 root controller.
func fidelityFleet() fleet.Config {
	const dur = 8 * time.Minute
	return fleet.Config{
		Seed: 42,
		Clusters: []fleet.ClusterSpec{
			{
				Name: "std", Count: 2, HW: hw.DefaultConfig(), Leaves: 4, Warmup: 2 * time.Minute,
				Scenario: scenario.Scenario{
					Name: "ramp+flashcrowd", Duration: dur,
					Load: scenario.Clamp(scenario.Sum(
						scenario.Ramp{From: 0.25, To: 0.5, Start: 0, End: dur},
						scenario.FlashCrowd{Start: 4 * time.Minute, Rise: 20 * time.Second,
							Hold: 40 * time.Second, Fall: 20 * time.Second, Amp: 0.3},
					), 0, 0.88),
				},
			},
			{
				Name: "compact", HW: hw.CompactConfig(), Leaves: 4, Warmup: 2 * time.Minute,
				LeafTargetFrac: 0.65, DynamicLeafTargets: true,
				Scenario: scenario.Scenario{
					Name: "steps+churn", Duration: dur,
					Load: scenario.Steps{{At: 0, Load: 0.3}, {At: 4 * time.Minute, Load: 0.45}},
					Events: []scenario.Event{
						scenario.BEDepart(3*time.Minute, scenario.AllLeaves, "streetview"),
						scenario.BEArrive(5*time.Minute, scenario.AllLeaves, "streetview"),
					},
				},
			},
		},
	}
}

// TestFidelity evaluates every scorecard row and compares the rendered
// table with the one committed in docs/FIDELITY.md. A row outside its
// tolerance fails; so does a value that moved inside it, until the table is
// regenerated with -update and the move shows up in review.
func TestFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("the scorecard regenerates figure-scale artefacts; not a -short test")
	}
	var table bytes.Buffer
	table.WriteString("| # | Paper statement | Generator | This repository | Tolerance | Verdict |\n|---|---|---|---|---|---|\n")
	for i, row := range fidelityRows(lab()) {
		value, holds := row.check()
		verdict := "holds"
		if !holds {
			verdict = "**FAILS**"
			t.Errorf("row %d (%s): %s — outside tolerance (%s)", i+1, row.claim, value, row.tolerance)
		}
		fmt.Fprintf(&table, "| %d | %s | %s | %s | %s | %s |\n", i+1, row.claim, row.generator, value, row.tolerance, verdict)
	}
	t.Logf("scorecard:\n%s", table.String())

	doc, err := os.ReadFile(fidelityDoc)
	if err != nil {
		t.Fatalf("reading the scorecard: %v", err)
	}
	head, rest, ok := strings.Cut(string(doc), fidelityBegin)
	_, tail, ok2 := strings.Cut(rest, fidelityEnd)
	if !ok || !ok2 {
		t.Fatalf("%s: scorecard markers missing", fidelityDoc)
	}
	want := head + fidelityBegin + "\n" + table.String() + fidelityEnd + tail
	if want == string(doc) {
		return
	}
	if !*updateFidelity {
		t.Fatalf("%s is stale: a value moved. Regenerate with `go test -run TestFidelity -update .` and review the diff", fidelityDoc)
	}
	if err := os.WriteFile(fidelityDoc, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote the scorecard table in %s", fidelityDoc)
}
