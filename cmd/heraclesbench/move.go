//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// stateMove is rebalancing and pause/resume: a two-shard daemon whose
// instances carry full telemetry rings, moved between shards by the
// binary in-process path (op) and by a REST checkpoint → restore →
// delete cycle through the JSON format (heavy op). One connection
// throughout.
type stateMove struct {
	pool      int
	fillTo    int // epochs each instance free-runs to before measuring
	warmMoves int // fixed warm-up work: migrations
	warmCycle int // and REST move cycles

	daemon *daemon
	api    *target
	insts  []movedInstance

	// migrationsWant is what /healthz must count: the migrations at the
	// end of set-up plus every op completed since.
	migrationsWant int64

	// Per-step times of the REST cycle, for the reconcile table.
	ckptMs, restoreMs, deleteMs []float64
	ckptBytes                   int

	probe *daemonProbe
}

// movedInstance is a pool member under the id the daemon last gave it.
type movedInstance struct {
	id    string
	shard int
	epoch uint64 // the lowest epoch its next copy may report
}

func newStateMove(tiny bool) *stateMove {
	if tiny {
		return &stateMove{pool: 2, fillTo: 60, warmMoves: 4, warmCycle: 1}
	}
	return &stateMove{pool: 16, fillTo: 700, warmMoves: 100, warmCycle: 4}
}

func (s *stateMove) setup(e *env) error {
	if err := e.stage(func() error { return s.fill(e) }); err != nil {
		return err
	}
	// Every instance moves once through the REST cycle, which also
	// resumes it paced, so nothing free-runs while requests are timed.
	const chunk = 4
	for lo := 0; lo < s.pool; lo += chunk {
		lo := lo
		err := e.stage(func() error {
			for i := lo; i < min(lo+chunk, s.pool); i++ {
				if err := s.restCycle(i); err != nil {
					return fmt.Errorf("resume %s: %w", s.insts[i].id, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	err := e.warmup(
		s.migratePhase(e, "warm-op", 0, phaseWarm, 0, s.warmMoves),
		s.cyclePhase(e, "warm-heavy", 0, phaseWarmHeavy, 0, s.warmCycle))
	if err != nil {
		return err
	}
	s.ckptMs, s.restoreMs, s.deleteMs = nil, nil, nil
	h, err := getHealthz(s.api)
	s.migrationsWant = h.Migrations
	return err
}

// fill boots the daemon and free-runs the pool to fillTo epochs, so the
// telemetry rings are full, where the instances park.
func (s *stateMove) fill(e *env) error {
	var err error
	s.daemon, err = startDaemon(e.ctx, "heraclesd", e.bins.heraclesd, e.trace, func(addr, pprof string) []string {
		args := []string{"-addr", addr, "-noboot", "-shards", "2", "-trace=false"}
		if pprof != "" {
			args = append(args, "-pprof-addr", pprof)
		}
		return args
	})
	if err != nil {
		return err
	}
	s.api = newTarget(s.daemon.url, 1)
	for i := 0; i < s.pool; i++ {
		spec := fmt.Sprintf(`{"lc":"websearch","bes":[{"workload":"brain"}],"load":%s,"speed":-1,"max_epochs":%d}`,
			fmtFloat(round4(0.30+0.02*float64(i))), s.fillTo)
		st, err := createInstance(s.api, 0, spec)
		if err != nil {
			return err
		}
		s.insts = append(s.insts, movedInstance{id: st.ID, shard: st.Shard})
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := range s.insts {
		for {
			st, err := getStatus(s.api, 0, s.insts[i].id)
			if err != nil {
				return err
			}
			if st.State == "done" {
				s.insts[i].epoch = st.Epoch
				break
			}
			if err := s.abort(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("instance %s still at epoch %d of %d after 30s", st.ID, st.Epoch, s.fillTo)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (s *stateMove) abort() error {
	if !s.daemon.alive() {
		return s.daemon.deathError()
	}
	return nil
}

// migrate moves pool instance i to the other shard by the in-process
// binary path and checks the copy did not go back in time.
func (s *stateMove) migrate(i int) error {
	in := &s.insts[i]
	body := fmt.Sprintf(`{"shard":%d}`, 1-in.shard)
	data, err := s.api.expect(0, http.StatusOK, "POST", "/api/v1/instances/"+in.id+"/migrate", body)
	if err != nil {
		return err
	}
	var res struct {
		To      string `json:"to"`
		ToShard int    `json:"to_shard"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return err
	}
	if res.To == "" || res.ToShard != 1-in.shard {
		return fmt.Errorf("migrate of %s answered %s", in.id, firstLine(data))
	}
	if res.Epoch < in.epoch {
		return fmt.Errorf("migrate of %s: copy at epoch %d, origin had reached %d", in.id, res.Epoch, in.epoch)
	}
	*in = movedInstance{id: res.To, shard: res.ToShard, epoch: res.Epoch}
	return nil
}

// restCycle moves pool instance i through the JSON format: checkpoint,
// create-with-restore (paced), delete the origin.
func (s *stateMove) restCycle(i int) error {
	in := &s.insts[i]
	t0 := time.Now()
	doc, err := s.api.expect(0, http.StatusOK, "POST", "/api/v1/instances/"+in.id+"/checkpoint", "")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	t1 := time.Now()
	s.ckptBytes = len(doc)
	body := make([]byte, 0, len(doc)+64)
	body = append(body, `{"speed":50,"max_epochs":100000000,"restore":`...)
	body = append(body, doc...)
	body = append(body, '}')
	var st instanceStatus
	data, err := s.api.expect(0, http.StatusCreated, "POST", "/api/v1/instances", string(body))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := s.api.expect(0, http.StatusOK, "DELETE", "/api/v1/instances/"+in.id, ""); err != nil {
		return fmt.Errorf("delete origin: %w", err)
	}
	t3 := time.Now()
	s.ckptMs = append(s.ckptMs, float64(t1.Sub(t0))/1e6)
	s.restoreMs = append(s.restoreMs, float64(t2.Sub(t1))/1e6)
	s.deleteMs = append(s.deleteMs, float64(t3.Sub(t2))/1e6)

	snap, err := checkpointEpoch(body)
	if err != nil {
		return err
	}
	if snap < in.epoch || st.Epoch < snap {
		return fmt.Errorf("restore of %s: origin reached %d, checkpoint at %d, copy at %d", in.id, in.epoch, snap, st.Epoch)
	}
	*in = movedInstance{id: st.ID, shard: st.Shard, epoch: st.Epoch}
	return nil
}

// checkpointEpoch reads restore.engine.epoch out of a create body
// without decoding the megabytes of telemetry after it.
func checkpointEpoch(body []byte) (uint64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	path := []string{"restore", "engine", "epoch"}
	depth, matched := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("checkpoint document: no engine.epoch: %w", err)
		}
		switch t := tok.(type) {
		case json.Delim:
			if t == '{' || t == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			// Keys and string values both arrive here; a key at the
			// depth the path has reached advances the match.
			if depth == matched+1 && matched < len(path) && t == path[matched] {
				matched++
				if matched == len(path) {
					var epoch uint64
					if err := dec.Decode(&epoch); err != nil {
						return 0, fmt.Errorf("checkpoint document: engine.epoch: %w", err)
					}
					return epoch, nil
				}
			}
		}
		if depth == 0 {
			return 0, errors.New("checkpoint document: no engine.epoch")
		}
	}
}

func (s *stateMove) migratePhase(e *env, name string, round, phase int, d time.Duration, count int) phaseSpec {
	return phaseSpec{
		name: name, workers: 1, dur: d, count: count,
		next: func(w int) func() op {
			return poolDraws(stream(e.seed, wlStateMove, round, phase, w), "migrate", s.pool)
		},
		do:    func(w int, o op) error { return s.migrate(o.Inst) },
		abort: s.abort,
	}
}

func (s *stateMove) cyclePhase(e *env, name string, round, phase int, d time.Duration, count int) phaseSpec {
	return phaseSpec{
		name: name, workers: 1, dur: d, count: count,
		next: func(w int) func() op {
			return poolDraws(stream(e.seed, wlStateMove, round, phase, w), "rest-move", s.pool)
		},
		do:    func(w int, o op) error { return s.restCycle(o.Inst) },
		abort: s.abort,
	}
}

func (s *stateMove) opSpec(e *env, round int, d time.Duration) phaseSpec {
	return s.migratePhase(e, "op", round, phaseOp, d, 0)
}

func (s *stateMove) heavySpec(e *env, round int, d time.Duration) phaseSpec {
	return s.cyclePhase(e, "heavy", round, phaseHeavy, d, 0)
}

func (s *stateMove) afterRound(op, heavy phaseResult) error {
	h, err := getHealthz(s.api)
	if err != nil {
		return err
	}
	if h.Instances != s.pool {
		return fmt.Errorf("pool holds %d instances after the round, want %d", h.Instances, s.pool)
	}
	s.migrationsWant += int64(len(op.ms))
	if h.Migrations != s.migrationsWant {
		return fmt.Errorf("/healthz counts %d migrations, the harness completed %d", h.Migrations, s.migrationsWant)
	}
	return nil
}

func (s *stateMove) epochs() (float64, error) {
	h, err := getHealthz(s.api)
	return float64(h.Sched.Epochs), err
}

func (s *stateMove) cpuSeconds() (float64, error) { return procCPUSeconds(s.daemon.pid()) }

func (s *stateMove) rssMB() (float64, error) {
	kb, err := procStatusKB(s.daemon.pid(), "VmHWM")
	return kb / 1024, err
}

func (s *stateMove) layerBegin() error {
	s.probe = newDaemonProbe(s.daemon, s.api)
	return s.probe.begin()
}

func (s *stateMove) layer(wall time.Duration) (map[string]metric, error) {
	out, err := s.probe.end(wall)
	if err != nil {
		return nil, err
	}
	if len(s.ckptMs) > 0 {
		out["rest.checkpoint_step_ms"] = metric{median(s.ckptMs), "ms"}
		out["rest.restore_step_ms"] = metric{median(s.restoreMs), "ms"}
		out["rest.delete_step_ms"] = metric{median(s.deleteMs), "ms"}
		out["rest.checkpoint_bytes"] = metric{float64(s.ckptBytes), "bytes"}
	}
	return out, nil
}

func (s *stateMove) teardown() {
	if s.api != nil {
		s.api.close()
	}
	if s.probe != nil {
		s.probe.close()
	}
	if s.daemon != nil {
		s.daemon.stop()
	}
}
