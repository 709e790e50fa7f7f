package engine_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// poll is one TailLatency call as the controller saw it.
type poll struct {
	at, window, tail time.Duration
	ok               bool
}

// pollRecorder sits between a controller and its fault environment and
// notes every poll. Embedding *fault.Env promotes its KeepTailHistory, so
// the controller's declaration travels the path it does in an engine node:
// core.New → fault.Env → machine.
type pollRecorder struct {
	*fault.Env
	now   func() time.Duration
	polls *[]poll
}

func (r pollRecorder) TailLatency(window time.Duration) (time.Duration, bool) {
	tail, ok := r.Env.TailLatency(window)
	*r.polls = append(*r.polls, poll{r.now(), window, tail, ok})
	return tail, ok
}

// everySample is the reference latency monitor: a machine whose
// TailLatency is answered from every sample since the last ResetStats,
// never from the ring.
type everySample struct {
	*machine.Machine
	hist []machine.TailSample
}

func (e *everySample) TailLatency(window time.Duration) (time.Duration, bool) {
	if len(e.hist) == 0 {
		return 0, false
	}
	cutoff := e.Clock().Now() - window
	var sum float64
	var n int
	for j := len(e.hist) - 1; j >= 0 && e.hist[j].Time > cutoff; j-- {
		sum += e.hist[j].TailLatency.Seconds()
		n++
	}
	if n == 0 {
		return e.hist[len(e.hist)-1].TailLatency, true
	}
	return time.Duration(sum / float64(n) * float64(time.Second)), true
}

// ringSide is one machine under one controller, with what the controller
// read and decided.
type ringSide struct {
	m      *machine.Machine
	ref    *everySample // nil on the side that reads the ring
	fenv   *fault.Env
	ctl    *core.Controller
	polls  []poll
	events []core.Event
}

// bind builds the fault environment and the controller around s.m, the
// way engine.buildNode does.
func (s *ringSide) bind(model core.DRAMModel, cfg core.Config) {
	var env core.Env = s.m
	if s.ref != nil {
		s.ref.Machine = s.m
		env = s.ref
	}
	s.fenv = fault.Wrap(env)
	s.ctl = core.New(pollRecorder{s.fenv, s.m.Clock().Now, &s.polls}, model, cfg)
	s.ctl.OnEvent(func(e core.Event) { s.events = append(s.events, e) })
}

func (s *ringSide) step(load float64) machine.Telemetry {
	s.m.SetLoad(load)
	tel := s.m.Step()
	if s.ref != nil {
		s.ref.hist = append(s.ref.hist, machine.TailSample{Time: tel.Time, TailLatency: tel.TailLatency})
	}
	s.ctl.Step(s.m.Clock().Now())
	return tel
}

// TestPollRingMatchesFullHistoryUnderController is the differential test
// for the declared poll ring: a machine whose controller reads the ring it
// sized (15 samples under the default controller) against a twin whose
// controller is answered from every sample ever taken. Every value every
// poll reads, every controller event and every epoch's telemetry must be
// identical — across ring wrap, a telemetry blackout, snapshot → restore
// through both codecs, a restore from a checkpoint that still carries 600
// samples (the declaration arrives after they are loaded), and a crash
// reset.
func TestPollRingMatchesFullHistoryUnderController(t *testing.T) {
	slowPoll := core.DefaultConfig()
	slowPoll.PollInterval = time.Minute
	labs := []struct {
		name string
		lab  *experiment.Lab
	}{{"dual-socket", testLab}, {"single-socket", experiment.NewLab(hw.CompactConfig())}}
	variants := []struct {
		name  string
		cfg   core.Config
		epoch time.Duration
		depth int
	}{
		{"default", core.DefaultConfig(), time.Second, 15},
		{"60s poll", slowPoll, time.Second, 60},
		{"250ms epochs", core.DefaultConfig(), 250 * time.Millisecond, 60},
	}
	for _, l := range labs {
		for _, v := range variants {
			t.Run(l.name+"/"+v.name, func(t *testing.T) {
				lab, model := l.lab, l.lab.DRAMModel("websearch")
				lcByName := func(name string) *workload.LC { return lab.LC(name) }
				newSide := func(ref *everySample) *ringSide {
					s := &ringSide{m: machine.New(lab.Cfg, machine.WithEpoch(v.epoch)), ref: ref}
					s.m.SetLC(lab.LC("websearch"))
					s.m.AddBE(lab.BE("brain"), workload.PlaceDedicated)
					s.bind(model, v.cfg)
					return s
				}
				ring, full := newSide(nil), newSide(&everySample{})

				rng := sim.NewRNG(19)
				epoch := 0
				run := func(phase string, epochs int) {
					t.Helper()
					for i := 0; i < epochs; i++ {
						// A slow swing through both load thresholds plus
						// noise, so the tail differs every epoch and the
						// controller keeps deciding.
						load := 0.5 + 0.38*math.Sin(2*math.Pi*float64(epoch)/400) + 0.05*(rng.Float64()-0.5)
						epoch++
						a, b := ring.step(load), full.step(load)
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("%s, epoch %d: telemetry diverged\nring: %+v\nfull: %+v", phase, epoch, a, b)
						}
					}
					if !reflect.DeepEqual(ring.polls, full.polls) {
						for i := range ring.polls {
							if ring.polls[i] != full.polls[i] {
								t.Fatalf("%s: poll %d read %+v from the ring, %+v from every sample", phase, i, ring.polls[i], full.polls[i])
							}
						}
						t.Fatalf("%s: %d polls against %d", phase, len(ring.polls), len(full.polls))
					}
					if !reflect.DeepEqual(ring.events, full.events) {
						t.Fatalf("%s: controller events diverged (%d against %d)", phase, len(ring.events), len(full.events))
					}
					if got := len(ring.m.Snapshot().Window); got > v.depth {
						t.Fatalf("%s: ring holds %d samples, declared depth is %d", phase, got, v.depth)
					}
				}
				// Rebinding a side wraps its machine anew, so the window the
				// test has open is kept here.
				blackout := false
				setBlackout := func(on bool) {
					blackout = on
					ring.fenv.SetBlackout(on)
					full.fenv.SetBlackout(on)
				}
				// restore replaces the ring side with one rebuilt from its
				// own checkpoint, carried by the given codec; widen edits
				// the machine snapshot first.
				restore := func(codec string, widen func(*machine.Snapshot)) {
					t.Helper()
					snap, st := ring.m.Snapshot(), ring.ctl.Snapshot()
					if widen != nil {
						widen(&snap)
					}
					cp := &engine.Checkpoint{
						Version:     engine.CheckpointVersion,
						Machines:    []machine.Snapshot{snap},
						Controllers: []*core.ControllerState{&st},
					}
					var (
						got *engine.Checkpoint
						err error
					)
					if codec == "binary" {
						got, err = engine.DecodeCheckpointBinary(cp.EncodeBinary())
					} else {
						var buf bytes.Buffer
						if err = cp.Encode(&buf); err == nil {
							got, err = engine.DecodeCheckpoint(&buf)
						}
					}
					if err != nil {
						t.Fatalf("%s round trip: %v", codec, err)
					}
					m, err := machine.RestoreMachine(got.Machines[0], lcByName, lab.BE)
					if err != nil {
						t.Fatalf("restore from %s: %v", codec, err)
					}
					if want := len(snap.Window); len(m.Snapshot().Window) != want {
						t.Fatalf("restored machine holds %d samples before its reader declares, checkpoint carried %d", len(m.Snapshot().Window), want)
					}
					ring.m = m
					ring.bind(model, v.cfg)
					ring.ctl.Restore(*got.Controllers[0])
					ring.fenv.SetBlackout(blackout)
					// The twin keeps its machine and its history but gets a
					// new controller too: a restored controller re-announces
					// a standing hold-cores (the edge latch is observability,
					// not checkpointed state), and both traces should.
					fst := full.ctl.Snapshot()
					full.bind(model, v.cfg)
					full.ctl.Restore(fst)
					full.fenv.SetBlackout(blackout)
				}

				run("filling and wrapping", 700)

				setBlackout(true)
				run("blackout", 130)
				restore("binary", nil) // mid-blackout
				run("blackout, restored", 130)
				setBlackout(false)
				run("after blackout", 100)

				restore("binary", nil)
				run("restored from binary", 150)
				restore("json", nil)
				run("restored from JSON", 150)

				// A checkpoint written when every machine kept 600 samples:
				// the same state with the older history still in it.
				restore("binary", func(s *machine.Snapshot) {
					s.Window = append([]machine.TailSample(nil), full.ref.hist[len(full.ref.hist)-600:]...)
				})
				run("restored from a 600-sample checkpoint", 150)

				// engine.crashNode: history gone, controller cold.
				for _, s := range []*ringSide{ring, full} {
					s.m.ResetStats()
					s.ctl.Restore(core.ControllerState{LastTelemetry: s.m.Clock().Now()})
				}
				full.ref.hist = nil
				run("after a crash reset", 200)

				if len(ring.polls) < 100 || len(ring.events) < 10 {
					t.Fatalf("%d polls and %d controller events: the run exercised too little", len(ring.polls), len(ring.events))
				}
			})
		}
	}
}

// TestSixHundredSampleCheckpointRestores reads a checkpoint in the shape
// every build before the declared ring wrote — 600 samples per machine,
// whatever the controller could reach — and pins that it is still a
// checkpoint of the same state: restored through either codec, the next
// 300 epochs match the uninterrupted run bit for bit, and the restored
// machines hold the 15 newest samples, not the 600.
func TestSixHundredSampleCheckpointRestores(t *testing.T) {
	const before, after = 700, 300
	cfg := clusterConfig(1, testJobs(8))
	sc := testScenario((before + after) * time.Second)
	eng := engine.New(cfg)
	defer eng.Close()
	eng.InstallScenario(sc)

	hist := make([][]machine.TailSample, cfg.Nodes)
	for i := 0; i < before; i++ {
		eng.Step()
		for n := range hist {
			tel := eng.Machine(n).Last()
			hist[n] = append(hist[n], machine.TailSample{Time: tel.Time, TailLatency: tel.TailLatency})
		}
	}
	cp := eng.Snapshot()
	for n := range cp.Machines {
		if got := len(cp.Machines[n].Window); got != 15 {
			t.Fatalf("node %d checkpoints %d samples, want the default controller's 15", n, got)
		}
		cp.Machines[n].Window = append([]machine.TailSample(nil), hist[n][before-600:]...)
	}
	var js bytes.Buffer
	if err := cp.Encode(&js); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := engine.DecodeCheckpoint(&js)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := engine.DecodeCheckpointBinary(cp.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}

	want := runStats(eng, after)
	wantFinal := eng.Snapshot().EncodeBinary()
	for name, long := range map[string]*engine.Checkpoint{"json": fromJSON, "binary": fromBinary} {
		if got := len(long.Machines[0].Window); got != 600 {
			t.Fatalf("%s: decoded checkpoint carries %d samples, want the 600 it was given", name, got)
		}
		restored, err := engine.Restore(cfg, long, &sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for n := 0; n < restored.Nodes(); n++ {
			w := restored.Machine(n).Snapshot().Window
			if !reflect.DeepEqual(w, hist[n][before-15:]) {
				t.Fatalf("%s: node %d restored with %d samples, want the newest 15 of the 600", name, n, len(w))
			}
		}
		got := runStats(restored, after)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: epoch %d after restore diverged from the uninterrupted run:\n%+v\nvs\n%+v", name, before+i, got[i], want[i])
			}
		}
		if !bytes.Equal(restored.Snapshot().EncodeBinary(), wantFinal) {
			t.Fatalf("%s: final state differs from the uninterrupted run's", name)
		}
		restored.Close()
	}
}
