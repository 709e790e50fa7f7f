package sched

import (
	"fmt"
	"time"
)

// State is the scheduler's complete serializable state: every job with
// its dispatch history, the per-node disable clocks, the lifetime
// accounting and the recent placement log. The placement policy travels
// by name and is re-resolved on restore, so only built-in policies (see
// PolicyNames) round-trip; the deterministic per-tick RNG streams derive
// from RNGSeed and Tick, both captured here, so a restored scheduler's
// decisions are bit-identical to an uninterrupted run's.
type State struct {
	Policy     string        `json:"policy"`
	Backoff    time.Duration `json:"backoff_ns"`
	EvictGrace time.Duration `json:"evict_grace_ns"`
	RNGSeed    uint64        `json:"rng_seed"`
	Tick       uint64        `json:"tick"`

	Jobs          []Job                 `json:"jobs,omitempty"`
	DisabledSince map[int]time.Duration `json:"disabled_since,omitempty"`
	Accounting    Accounting            `json:"accounting"`
	Log           []Decision            `json:"log,omitempty"` // oldest first
}

// Snapshot captures the scheduler's state. Safe to call between Ticks.
func (s *Scheduler) Snapshot() State {
	st := State{
		Policy:     s.policy.Name(),
		Backoff:    s.cfg.Backoff,
		EvictGrace: s.cfg.EvictGrace,
		RNGSeed:    s.rngSeed,
		Tick:       s.tick,
		Accounting: s.acct,
		Log:        s.Decisions(),
	}
	st.Jobs = s.Jobs()
	if len(s.disabledSince) > 0 {
		st.DisabledSince = make(map[int]time.Duration, len(s.disabledSince))
		for k, v := range s.disabledSince {
			st.DisabledSince[k] = v
		}
	}
	return st
}

// RestoreScheduler rebuilds a scheduler from a snapshot.
func RestoreScheduler(st State) (*Scheduler, error) {
	policy, err := PolicyByName(st.Policy)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:           Config{Policy: policy, Backoff: st.Backoff, EvictGrace: st.EvictGrace},
		policy:        policy,
		rngSeed:       st.RNGSeed,
		tick:          st.Tick,
		disabledSince: make(map[int]time.Duration, len(st.DisabledSince)),
		acct:          st.Accounting,
	}
	if s.cfg.Backoff <= 0 {
		s.cfg.Backoff = 30 * time.Second
	}
	for k, v := range st.DisabledSince {
		s.disabledSince[k] = v
	}
	for i := range st.Jobs {
		j := st.Jobs[i]
		if j.ID != i+1 {
			return nil, fmt.Errorf("sched: snapshot job %d has id %d (ids must be dense, submission-ordered)", i, j.ID)
		}
		s.jobs = append(s.jobs, &j)
	}
	if n := len(st.Log); n > 0 {
		if n > decisionCap {
			st.Log = st.Log[n-decisionCap:]
		}
		s.log = append([]Decision(nil), st.Log...)
		s.logHead = 0
	}
	return s, nil
}
