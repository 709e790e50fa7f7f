//go:build linux

package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// batchRepro is the researcher reproducing the paper offline: no
// daemon, only the shipped CLIs run to completion. The op is one
// single-worker colocation sweep (cmd/colocate), the heavy op one
// parallel fleet run (cmd/fleet). Phases are fixed work: the counts
// follow from the round length, not from how fast the host is.
type batchRepro struct {
	fleetMinutes int // the fleet command's -minutes (tiny shrinks it)

	// seen maps a command line to the stdout of its first run; every
	// later run of the same line must print the same bytes.
	seen map[string][]byte

	simEpochs float64 // machine-epochs simulated by completed commands
	cpuS      float64
	maxRSSKB  float64
}

func newBatchRepro(tiny bool) *batchRepro {
	b := &batchRepro{fleetMinutes: 10, seen: map[string][]byte{}}
	if tiny {
		b.fleetMinutes = 2
	}
	return b
}

// Machine-epochs one command simulates, from its arguments: colocate
// runs a baseline and a Heracles sweep of 6 load points for 4 minutes
// of one-second epochs; fleet runs 3 clusters of 8 leaves for the
// scenario's minutes, once as baseline and once under the policy.
const colocateEpochs = 2 * 6 * 4 * 60

func (b *batchRepro) fleetEpochs() float64 { return 2 * 3 * 8 * float64(b.fleetMinutes) * 60 }

// run executes one command, accounts for it and checks its output.
func (b *batchRepro) run(e *env, o op) error {
	bin, epochs := e.bins.colocate, float64(colocateEpochs)
	if o.Kind == "fleet" {
		bin, epochs = e.bins.fleet, b.fleetEpochs()
	}
	res, err := runBatch(e.ctx, bin, o.Argv...)
	if err != nil {
		return err
	}
	b.simEpochs += epochs
	b.cpuS += res.cpuS
	b.maxRSSKB = max(b.maxRSSKB, res.maxRSSKB)
	key := o.Kind + " " + strings.Join(o.Argv, " ")
	if first, ok := b.seen[key]; ok {
		if !bytes.Equal(first, res.stdout) {
			return fmt.Errorf("stdout differs from the first run of the same command")
		}
		return nil
	}
	b.seen[key] = res.stdout
	if o.Kind == "fleet" {
		return checkFleetOutput(res.stdout)
	}
	return checkColocateOutput(res.stdout)
}

// checkColocateOutput requires the colocated sweep to reach at least
// the baseline's EMU at every load point, more at some, with no SLO
// violation reported.
func checkColocateOutput(out []byte) error {
	if bytes.Contains(out, []byte("!! SLO violations")) {
		return fmt.Errorf("colocate reports SLO violations")
	}
	tables := emuColumns(out)
	if len(tables) != 2 || len(tables[0]) == 0 || len(tables[0]) != len(tables[1]) {
		return fmt.Errorf("colocate output: want a baseline and a colocated table of equal length, got %d tables", len(tables))
	}
	gained := false
	for i := range tables[0] {
		if tables[1][i] < tables[0][i] {
			return fmt.Errorf("colocated EMU %.1f%% below baseline %.1f%% at load point %d", tables[1][i], tables[0][i], i)
		}
		gained = gained || tables[1][i] > tables[0][i]
	}
	if !gained {
		return fmt.Errorf("colocation raised EMU at no load point")
	}
	return nil
}

// emuColumns extracts the EMU column of every table colocate printed.
// A table starts at a "load worstTail EMU ..." header; its rows are
// percentages.
func emuColumns(out []byte) [][]float64 {
	var tables [][]float64
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "load" && f[2] == "EMU":
			tables = append(tables, nil)
		case len(f) >= 3 && len(tables) > 0 && strings.HasSuffix(f[0], "%"):
			if v, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64); err == nil {
				tables[len(tables)-1] = append(tables[len(tables)-1], v)
			}
		}
	}
	return tables
}

// checkFleetOutput requires the baseline line and one policy row whose
// EMU is above the baseline's.
func checkFleetOutput(out []byte) error {
	var base, pol float64
	var haveBase, havePol bool
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "baseline:" && f[1] == "EMU":
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%,"), 64)
			base, haveBase = v, err == nil
		case len(f) >= 2 && f[0] == "slack-greedy":
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
			pol, havePol = v, err == nil
		}
	}
	if !haveBase || !havePol {
		return fmt.Errorf("fleet output: baseline line or slack-greedy row missing")
	}
	if pol <= base {
		return fmt.Errorf("fleet EMU under slack-greedy %.1f%% not above baseline %.1f%%", pol, base)
	}
	return nil
}

// setup is the warm-up round, and where the determinism claims are
// checked at the surface: the six sweeps and one fleet run print the
// same bytes with -workers 1 and with the default workers. The sweeps'
// stdout becomes the reference every later run of the same command line
// is compared with.
func (b *batchRepro) setup(e *env) error {
	same := func(kind string, seq, par []string) error {
		var outs [2][]byte
		for i, argv := range [][]string{seq, par} {
			if err := b.run(e, op{Kind: kind, Argv: argv}); err != nil {
				return fmt.Errorf("%s %s: %w", kind, strings.Join(argv, " "), err)
			}
			outs[i] = b.seen[kind+" "+strings.Join(argv, " ")]
		}
		if !bytes.Equal(outs[0], outs[1]) {
			return fmt.Errorf("%s: -workers 1 and default workers print different output", kind)
		}
		return nil
	}
	for _, be := range beWorkloads {
		be := be
		err := e.stage(func() error { return same("colocate", colocateArgs(be, 1), colocateArgs(be, 0)) })
		if err != nil {
			return err
		}
	}
	next := fleetRuns(stream(e.seed, wlBatchRepro, 0, phaseHeavy, 0), 1, b.fleetMinutes)
	par := next().Argv
	seq := append(append([]string(nil), par...), "-workers", "1")
	return e.stage(func() error { return same("fleet", seq, par) })
}

// Work per round is sized from the round's length with nominal costs
// (wall-clock seconds per command on the reference box when these sizes
// were fixed), so the counts are a function of -seconds alone.
const (
	nominalColocateS = 0.058
	nominalFleetS    = 0.40
)

// sets is how many times a round runs each of the six best-effort
// workloads; a set is the unit so the mix stays balanced.
func (b *batchRepro) sets(d time.Duration) int {
	return max(1, int(d.Seconds()/(nominalColocateS*float64(len(beWorkloads)))+0.5))
}

func (b *batchRepro) heavyRuns(d time.Duration) int {
	return max(1, int(d.Seconds()/nominalFleetS+0.5))
}

func (b *batchRepro) opSpec(e *env, round int, d time.Duration) phaseSpec {
	sets := b.sets(d)
	return phaseSpec{
		name: "op", workers: 1, count: sets * len(beWorkloads), sliceOps: len(beWorkloads),
		next: func(w int) func() op {
			return colocateSets(stream(e.seed, wlBatchRepro, round, phaseOp, w), sets)
		},
		do: func(w int, o op) error { return b.run(e, o) },
	}
}

func (b *batchRepro) heavySpec(e *env, round int, d time.Duration) phaseSpec {
	n := b.heavyRuns(d)
	return phaseSpec{
		name: "heavy", workers: 1, count: n, sliceOps: 1,
		next: func(w int) func() op {
			// Round 0's stream for every round: the same fleet seeds recur.
			return fleetRuns(stream(e.seed, wlBatchRepro, 0, phaseHeavy, w), n, b.fleetMinutes)
		},
		do: func(w int, o op) error { return b.run(e, o) },
	}
}

func (b *batchRepro) afterRound(op, heavy phaseResult) error { return nil }

func (b *batchRepro) epochs() (float64, error)     { return b.simEpochs, nil }
func (b *batchRepro) cpuSeconds() (float64, error) { return b.cpuS, nil }
func (b *batchRepro) rssMB() (float64, error)      { return b.maxRSSKB / 1024, nil }

func (b *batchRepro) layerBegin() error { return nil }

func (b *batchRepro) layer(wall time.Duration) (map[string]metric, error) {
	return map[string]metric{}, nil
}

func (b *batchRepro) teardown() {}
