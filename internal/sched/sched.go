package sched

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"heracles/internal/sim"
)

// Config configures a scheduler.
type Config struct {
	// Policy is the placement policy (default SlackGreedy).
	Policy Policy
	// Jobs are pre-loaded at construction with their Spec.Submit times —
	// the batch path used by cluster and fleet runs. Live layers submit
	// through Submit instead (or additionally).
	Jobs []JobSpec
	// Seed roots the deterministic choice streams; each tick draws from
	// sim.DeriveRNG(seed', tick), with seed' decorrelated from Seed so a
	// scheduler sharing a simulation's seed never correlates with its
	// other (seed, epoch) streams.
	Seed uint64
	// Backoff is the re-queue delay after the first eviction; it doubles
	// per subsequent attempt, capped at 8x (default 30s).
	Backoff time.Duration
	// EvictGrace is how long a node's controller may keep BE disabled
	// before the scheduler evicts the jobs parked there (default 15s, one
	// top-level controller poll). A shorter grace converts transient
	// disables into churn; a longer one leaves work parked through real
	// emergencies.
	EvictGrace time.Duration
}

// ActionKind enumerates the executor-visible scheduler actions.
type ActionKind int

const (
	// ActionDispatch starts the job's workload on the node.
	ActionDispatch ActionKind = iota
	// ActionEvict stops the job on the node; the job re-queues.
	ActionEvict
	// ActionComplete stops the job on the node as finished work.
	ActionComplete
	// ActionFail stops the job on the node; its retry budget is spent.
	ActionFail
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionDispatch:
		return "dispatch"
	case ActionEvict:
		return "evict"
	case ActionComplete:
		return "complete"
	case ActionFail:
		return "fail"
	default:
		return "unknown"
	}
}

// Action is one executor instruction returned by Tick. For
// ActionDispatch the executor starts Workload on Node and must call
// Abort if it cannot; for every other kind it stops the job's task on
// Node (CompleteBE for ActionComplete, RemoveBE otherwise).
type Action struct {
	Kind     ActionKind
	Job      int
	Node     int
	Workload string
}

// Accounting aggregates the scheduler's lifetime counters. GoodCPUSec vs
// WastedCPUSec is the goodput split: CPU time banked by completed jobs
// against CPU time thrown away by evictions and cancellations.
type Accounting struct {
	Submitted  int
	Dispatches int
	Completed  int
	Evictions  int
	Failed     int
	Cancelled  int
	// Aborted counts dispatches the executor refused (the target's
	// controller flipped between snapshot and apply). Such attempts stay
	// in Dispatches — counters only ever grow — and the job re-queues
	// with no retry budget charged.
	Aborted int

	GoodCPUSec   float64
	WastedCPUSec float64

	// QueueDelaySum accumulates, over every dispatch, how long the job
	// had been dispatchable (submitted or post-backoff) before placement.
	QueueDelaySum time.Duration

	// QueueDepth/Running are the depths observed at the last tick;
	// MaxQueueDepth is the lifetime high-water mark.
	QueueDepth    int
	Running       int
	MaxQueueDepth int
}

// Add folds o into a, as a fleet sums its clusters' schedulers: counts,
// CPU-time ledgers, queue delays and last-tick depths sum, and the
// high-water mark keeps the larger.
func (a *Accounting) Add(o Accounting) {
	a.Submitted += o.Submitted
	a.Dispatches += o.Dispatches
	a.Completed += o.Completed
	a.Evictions += o.Evictions
	a.Failed += o.Failed
	a.Cancelled += o.Cancelled
	a.Aborted += o.Aborted
	a.GoodCPUSec += o.GoodCPUSec
	a.WastedCPUSec += o.WastedCPUSec
	a.QueueDelaySum += o.QueueDelaySum
	a.QueueDepth += o.QueueDepth
	a.Running += o.Running
	a.MaxQueueDepth = max(a.MaxQueueDepth, o.MaxQueueDepth)
}

// MeanQueueDelay is the average dispatchable-to-dispatched wait.
func (a Accounting) MeanQueueDelay() time.Duration {
	if a.Dispatches == 0 {
		return 0
	}
	return a.QueueDelaySum / time.Duration(a.Dispatches)
}

// GoodputFrac is completed CPU time over all consumed CPU time.
func (a Accounting) GoodputFrac() float64 {
	total := a.GoodCPUSec + a.WastedCPUSec
	if total <= 0 {
		return 0
	}
	return a.GoodCPUSec / total
}

// Scheduler is the fleet-wide dispatch loop. It is deliberately
// single-threaded: the cluster simulator ticks it between epochs and the
// live control plane serialises access behind its driver — determinism
// comes from that single ownership plus the (seed, tick) RNG streams.
type Scheduler struct {
	cfg     Config
	policy  Policy
	rngSeed uint64
	tick    uint64

	jobs []*Job // by ID; ID = index+1

	// disabledSince tracks, per node, when the controller last flipped BE
	// off — the clock the eviction grace runs on.
	disabledSince map[int]time.Duration

	acct Accounting

	// Tick scratch, reused across ticks so a steady-state tick allocates
	// nothing: the sorted node copy, the per-tick id index, the policy
	// views, the dispatchable queue, the per-job eligibility filter, and
	// the action buffer Tick returns (valid until the next Tick or Kill).
	rng        sim.RNG
	scrSorted  []NodeState
	scrByID    map[int]NodeState
	scrViews   []NodeView
	scrPending []*Job
	scrElig    []NodeView
	scrActions []Action
}

// New builds a scheduler and pre-loads cfg.Jobs. Specs must name a
// workload and a positive Work; violations panic — job composition is
// programmer (or validated-API) input, not runtime data.
func New(cfg Config) *Scheduler {
	if cfg.Policy == nil {
		cfg.Policy = SlackGreedy{}
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 30 * time.Second
	}
	if cfg.EvictGrace < 0 {
		cfg.EvictGrace = 0
	} else if cfg.EvictGrace == 0 {
		cfg.EvictGrace = 15 * time.Second
	}
	s := &Scheduler{
		cfg:    cfg,
		policy: cfg.Policy,
		// Decorrelate from the owning simulation's other (Seed, index)
		// streams (cluster root sampling derives from the same seed).
		rngSeed:       sim.DeriveRNG(cfg.Seed, 0x5ced).Uint64(),
		disabledSince: make(map[int]time.Duration),
	}
	for _, spec := range cfg.Jobs {
		s.Submit(spec)
	}
	return s
}

// Policy returns the placement policy name.
func (s *Scheduler) Policy() string { return s.policy.Name() }

// Submit enqueues one job at spec.Submit and returns its id.
func (s *Scheduler) Submit(spec JobSpec) int {
	if spec.Workload == "" {
		panic("sched: job spec missing workload name")
	}
	if spec.Work <= 0 {
		panic(fmt.Sprintf("sched: job %q has non-positive work %v", spec.Name, spec.Work))
	}
	if spec.Demand < 1 {
		spec.Demand = 1
	}
	j := &Job{
		ID:          len(s.jobs) + 1,
		Spec:        spec,
		State:       JobPending,
		Node:        -1,
		SubmittedAt: spec.Submit,
		ReadyAt:     spec.Submit,
	}
	s.jobs = append(s.jobs, j)
	s.acct.Submitted++
	return j.ID
}

// Job returns a snapshot copy of the job with the given id.
func (s *Scheduler) Job(id int) (Job, bool) {
	if id < 1 || id > len(s.jobs) {
		return Job{}, false
	}
	return *s.jobs[id-1], true
}

// Jobs returns snapshot copies of every job, in submission order.
func (s *Scheduler) Jobs() []Job {
	out := make([]Job, len(s.jobs))
	for i, j := range s.jobs {
		out[i] = *j
	}
	return out
}

// QueueDepth is the number of submitted-and-waiting jobs as of the last
// tick (including jobs backing off).
func (s *Scheduler) QueueDepth() int { return s.acct.QueueDepth }

// Running is the number of placed jobs as of the last tick.
func (s *Scheduler) Running() int { return s.acct.Running }

// Accounting returns the lifetime counters.
func (s *Scheduler) Accounting() Accounting { return s.acct }

// Cancel marks a job cancelled. If it was running, the caller must stop
// its task and pass the accrued CPU time, which is counted as wasted.
// Returns false if the job is unknown or already terminal.
func (s *Scheduler) Cancel(id int, now time.Duration, accrued float64) bool {
	if id < 1 || id > len(s.jobs) {
		return false
	}
	j := s.jobs[id-1]
	if j.State != JobPending && j.State != JobRunning {
		return false
	}
	if j.State == JobRunning {
		j.WastedCPUSec += accrued
		s.acct.WastedCPUSec += accrued
	}
	j.State = JobCancelled
	j.Node = -1
	j.FinishedAt = now
	s.acct.Cancelled++
	return true
}

// Kill force-evicts a running job — the fault layer's BE-kill and the
// crash paths use it when a task dies out from under the scheduler. The
// accrued CPU time (the caller reads it before the task is destroyed) is
// charged as wasted and the job goes through the normal eviction path:
// retry budget is consumed exactly like a controller-driven eviction,
// failing the job when the budget is spent. Returns the executor actions
// to apply, or nil if the job is not running.
func (s *Scheduler) Kill(id int, now time.Duration, accrued float64) []Action {
	if id < 1 || id > len(s.jobs) {
		return nil
	}
	j := s.jobs[id-1]
	if j.State != JobRunning {
		return nil
	}
	j.CPUSec = accrued
	var actions []Action
	s.evict(j, now, &actions)
	return actions
}

// Abort returns a job the executor failed to start (the node refused the
// dispatch) to the queue without charging its retry budget.
func (s *Scheduler) Abort(id int, now time.Duration) {
	if id < 1 || id > len(s.jobs) {
		return
	}
	j := s.jobs[id-1]
	if j.State != JobRunning {
		return
	}
	j.State = JobPending
	j.Node = -1
	j.Attempts--
	j.CPUSec = 0
	j.ReadyAt = now + s.cfg.Backoff
	s.acct.Aborted++
}

// Tick runs one scheduling epoch at time now against the given node
// snapshots. progress reports a running job's accrued busy core-seconds
// (executors read the machine task's counter; return job.CPUSec if the
// node is gone). The returned actions must be applied by the executor in
// order, and are backed by scratch the scheduler reuses: the slice is
// valid only until the next Tick or Kill call (copy to retain). Tick is
// deterministic given the scheduler's history and its inputs.
func (s *Scheduler) Tick(now time.Duration, nodes []NodeState, progress func(*Job) float64) []Action {
	// The per-tick choice stream is reseeded in place — same stream as
	// the DeriveRNG it replaced, without the per-tick allocation.
	s.rng.Reseed(s.rngSeed, s.tick)
	rng := &s.rng
	s.tick++

	sorted := append(s.scrSorted[:0], nodes...)
	s.scrSorted = sorted
	// Node ids are unique, so the unstable sort is deterministic.
	slices.SortFunc(sorted, func(a, b NodeState) int { return cmp.Compare(a.ID, b.ID) })
	if s.scrByID == nil {
		s.scrByID = make(map[int]NodeState, len(sorted))
	} else {
		clear(s.scrByID)
	}
	byID := s.scrByID
	for _, n := range sorted {
		byID[n.ID] = n
		if n.BEAllowed {
			delete(s.disabledSince, n.ID)
		} else if _, seen := s.disabledSince[n.ID]; !seen {
			s.disabledSince[n.ID] = now
		}
	}

	actions := s.scrActions[:0]

	// 1. Running jobs, in id order: progress, completion, eviction.
	for _, j := range s.jobs {
		if j.State != JobRunning {
			continue
		}
		node, present := byID[j.Node]
		if present {
			j.CPUSec = progress(j)
		}
		switch {
		case present && j.CPUSec >= j.Spec.Work.Seconds():
			s.acct.GoodCPUSec += j.CPUSec
			s.acct.Completed++
			j.State = JobCompleted
			j.FinishedAt = now
			actions = append(actions, Action{Kind: ActionComplete, Job: j.ID, Node: j.Node, Workload: j.Spec.Workload})
			j.Node = -1

		case !present || s.disabledTooLong(node.ID, now):
			s.evict(j, now, &actions)
		}
	}

	// 2. Dispatch, priority order then submission order.
	views := s.nodeViews(sorted)
	pending := s.dispatchable(now)
	for _, j := range pending {
		eligible := s.eligibleFor(j, views)
		if len(eligible) == 0 {
			continue
		}
		pick := s.policy.Place(j, eligible, rng)
		if pick < 0 || pick >= len(eligible) {
			continue
		}
		chosen := eligible[pick]
		// Update bookkeeping through the backing views so later jobs in
		// this tick see the commitment.
		for vi := range views {
			if views[vi].ID == chosen.ID {
				views[vi].RunningJobs++
				views[vi].CommittedCores += j.Spec.Demand
			}
		}
		wait := now - j.ReadyAt
		if wait < 0 {
			wait = 0
		}
		s.acct.Dispatches++
		s.acct.QueueDelaySum += wait
		j.State = JobRunning
		j.Node = chosen.ID
		j.Attempts++
		j.StartedAt = now
		j.CPUSec = 0
		actions = append(actions, Action{Kind: ActionDispatch, Job: j.ID, Node: chosen.ID, Workload: j.Spec.Workload})
	}

	// 3. Depth accounting.
	depth, running := 0, 0
	for _, j := range s.jobs {
		switch j.State {
		case JobPending:
			if j.SubmittedAt <= now {
				depth++
			}
		case JobRunning:
			running++
		}
	}
	s.acct.QueueDepth = depth
	s.acct.Running = running
	if depth > s.acct.MaxQueueDepth {
		s.acct.MaxQueueDepth = depth
	}
	s.scrActions = actions // keep any growth for the next tick
	return actions
}

// disabledTooLong reports whether the node's controller has had BE
// disabled past the eviction grace.
func (s *Scheduler) disabledTooLong(node int, now time.Duration) bool {
	since, off := s.disabledSince[node]
	return off && now-since >= s.cfg.EvictGrace
}

// evict re-queues (or fails) a running job, discarding its accrued work.
func (s *Scheduler) evict(j *Job, now time.Duration, actions *[]Action) {
	node := j.Node
	j.WastedCPUSec += j.CPUSec
	s.acct.WastedCPUSec += j.CPUSec
	s.acct.Evictions++
	j.CPUSec = 0
	j.Node = -1
	if j.Attempts > j.Spec.Retries {
		j.State = JobFailed
		j.FinishedAt = now
		s.acct.Failed++
		*actions = append(*actions, Action{Kind: ActionFail, Job: j.ID, Node: node, Workload: j.Spec.Workload})
		return
	}
	// Cap the exponent before shifting: the cap is 8x, so any shift
	// beyond 3 is equivalent — and an unclamped shift overflows the
	// duration for jobs with large retry budgets, which would come out
	// negative and abolish backoff entirely.
	shift := j.Attempts - 1
	if shift > 3 {
		shift = 3
	}
	j.State = JobPending
	j.ReadyAt = now + s.cfg.Backoff<<uint(shift)
	*actions = append(*actions, Action{Kind: ActionEvict, Job: j.ID, Node: node, Workload: j.Spec.Workload})
}

// nodeViews joins the node snapshots with the scheduler's running-job
// bookkeeping. The returned slice is tick scratch.
func (s *Scheduler) nodeViews(sorted []NodeState) []NodeView {
	views := s.scrViews[:0]
	for _, n := range sorted {
		views = append(views, NodeView{NodeState: n})
	}
	s.scrViews = views
	for _, j := range s.jobs {
		if j.State != JobRunning {
			continue
		}
		for vi := range views {
			if views[vi].ID == j.Node {
				views[vi].RunningJobs++
				views[vi].CommittedCores += j.Spec.Demand
			}
		}
	}
	return views
}

// dispatchable returns the queued jobs ready at now, highest priority
// first, submission order among equals. The returned slice is tick
// scratch.
func (s *Scheduler) dispatchable(now time.Duration) []*Job {
	out := s.scrPending[:0]
	for _, j := range s.jobs {
		if j.State == JobPending && j.SubmittedAt <= now && j.ReadyAt <= now {
			out = append(out, j)
		}
	}
	s.scrPending = out
	slices.SortStableFunc(out, func(a, b *Job) int {
		return cmp.Compare(b.Spec.Priority, a.Spec.Priority)
	})
	return out
}

// eligibleFor filters views down to machines that may accept the job:
// the controller allows BE, no burn-rate admission hold is up, and the
// summed core demand fits. This runs before any policy sees candidates,
// so the no-dispatch-while-disabled invariant holds for every policy,
// including future ones. The returned slice is tick scratch, overwritten
// by the next eligibleFor call; policies receive it for the duration of
// one Place call only.
func (s *Scheduler) eligibleFor(j *Job, views []NodeView) []NodeView {
	out := s.scrElig[:0]
	for _, v := range views {
		if !v.BEAllowed || v.AdmitHold {
			continue
		}
		if v.CommittedCores+j.Spec.Demand > v.MaxBECores {
			continue
		}
		out = append(out, v)
	}
	s.scrElig = out
	return out
}
