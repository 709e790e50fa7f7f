package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"heracles/internal/machine"
	"heracles/internal/sched"
)

// JobSubmission is the JSON body of POST /api/v1/jobs.
type JobSubmission struct {
	Name string `json:"name,omitempty"`
	// Workload is the BE workload to run ("brain", "streetview", ...).
	Workload string `json:"workload"`
	// Demand is the requested core count (admission weight; default 1).
	Demand int `json:"demand,omitempty"`
	// WorkS is the required CPU time in busy BE core-seconds, at least a
	// nanosecond and at most MaxJobWorkS.
	WorkS float64 `json:"work_s"`
	// Priority orders dispatch (higher first).
	Priority int `json:"priority,omitempty"`
	// Retries is the re-queue budget after evictions (default 3).
	Retries *int `json:"retries,omitempty"`
}

// MaxJobWorkS is the largest work_s a submission may ask for: 1e9 busy
// core-seconds, about 32 years on one core. The scheduler holds work as
// a time.Duration, which overflows a little past 9.2e9 s.
const MaxJobWorkS = 1e9

// JobStatus is the wire form of one scheduler job. IDs are the
// scheduler's own: 1, 2, ... in submission order.
type JobStatus struct {
	ID       int     `json:"id"`
	Name     string  `json:"name,omitempty"`
	Workload string  `json:"workload"`
	State    string  `json:"state"`
	Instance string  `json:"instance,omitempty"`
	Demand   int     `json:"demand"`
	WorkS    float64 `json:"work_s"`
	Priority int     `json:"priority,omitempty"`
	Retries  int     `json:"retries"`
	Attempts int     `json:"attempts"`
	CPUSec   float64 `json:"cpu_s"`
	WastedS  float64 `json:"wasted_cpu_s"`
}

// SchedulerStatus is the wire form of GET /api/v1/scheduler.
type SchedulerStatus struct {
	Policy          string  `json:"policy"`
	QueueDepth      int     `json:"queue_depth"`
	Running         int     `json:"running"`
	Submitted       int     `json:"submitted"`
	Dispatches      int     `json:"dispatches"`
	Completed       int     `json:"completed"`
	Evictions       int     `json:"evictions"`
	Failed          int     `json:"failed"`
	Cancelled       int     `json:"cancelled"`
	Aborted         int     `json:"aborted"`
	GoodCPUSec      float64 `json:"good_cpu_s"`
	WastedCPUSec    float64 `json:"wasted_cpu_s"`
	GoodputFrac     float64 `json:"goodput_frac"`
	MeanQueueDelayS float64 `json:"mean_queue_delay_s"`
	MaxQueueDepth   int     `json:"max_queue_depth"`
	TickPanics      int     `json:"tick_panics,omitempty"`
	LastTickPanic   string  `json:"last_tick_panic,omitempty"`
}

// SchedulerUpdate is one scheduler decision published on the affected
// instance's SSE stream as a "scheduler" event.
type SchedulerUpdate struct {
	Instance string  `json:"instance"`
	Job      int     `json:"job"`
	Name     string  `json:"name,omitempty"`
	Workload string  `json:"workload"`
	Action   string  `json:"action"` // dispatch | evict | complete | fail
	Attempt  int     `json:"attempt"`
	CPUSec   float64 `json:"cpu_s"`
	Detail   string  `json:"detail,omitempty"`
}

// taskRef binds a running job to its live BE task on an instance.
type taskRef struct {
	inst *Instance
	task *machine.BETask
}

// jobDriver owns the server's fleet scheduler: a wall-clock dispatch
// tick over every live instance, whichever shard hosts it, run as one
// task on the registry's epoch scheduler rather than on its own
// goroutine. The sched.Scheduler core is single-threaded; every access
// (ticks and the job API) serialises on mu, and all machine mutation
// goes through each instance's command mailbox — the scheduler never
// touches a Machine directly, so instance determinism is preserved.
type jobDriver struct {
	reg      *Registry
	interval time.Duration
	start    time.Time
	entry    *poolEntry

	mu            sync.Mutex
	s             *sched.Scheduler
	tasks         map[int]*taskRef
	tickPanics    int
	lastTickPanic string
	stopped       bool
	ticks         int64         // completed dispatch ticks
	ticknote      chan struct{} // closed and replaced after every tick

	stopOnce sync.Once
}

func newJobDriver(reg *Registry, policy sched.Policy, seed uint64, interval time.Duration) *jobDriver {
	d := &jobDriver{
		reg:      reg,
		interval: interval,
		start:    time.Now(),
		s: sched.New(sched.Config{
			Policy: policy,
			Seed:   seed,
			// Live time runs on the wall clock; the defaults (30s backoff,
			// 15s grace) are sized for simulated seconds, which the served
			// instances also tick in real time by default.
		}),
		tasks:    make(map[int]*taskRef),
		ticknote: make(chan struct{}),
	}
	d.entry = reg.pool.newEntry(d)
	reg.pool.schedule(d.entry, time.Now().Add(d.interval))
	return d
}

// now is the scheduler clock: wall time since the driver started.
func (d *jobDriver) now() time.Duration { return time.Since(d.start) }

// stop cancels the dispatch entry and joins any in-flight tick's
// scheduler work: once stopped is set under mu, the tick that may still
// hold mu has finished, a tick still probing applies nothing, and no
// further one can start (the cancelled entry never redispatches).
func (d *jobDriver) stop() {
	d.stopOnce.Do(func() {
		d.reg.pool.remove(d.entry)
		d.mu.Lock()
		d.stopped = true
		d.mu.Unlock()
	})
}

// runSlice is the fleet dispatcher's epoch-scheduler task: one dispatch
// tick, requeued every interval. The tick itself never stretches — job
// dispatch latency is user-visible — so this entry is the one fixed
// heartbeat in the heap.
func (d *jobDriver) runSlice() (time.Time, bool) {
	d.safeTick()
	d.noteTick()
	return time.Now().Add(d.interval), true
}

// noteTick wakes tickWait waiters; tests use it to await dispatch ticks
// without sleeping.
func (d *jobDriver) noteTick() {
	d.mu.Lock()
	d.ticks++
	close(d.ticknote)
	d.ticknote = make(chan struct{})
	d.mu.Unlock()
}

// tickWait returns the completed-tick count and a channel that closes
// when the next tick completes.
func (d *jobDriver) tickWait() (int64, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ticks, d.ticknote
}

// safeTick isolates the dispatch loop from a panicking tick: the panic
// is recorded and the next interval's tick runs anyway. tick's deferred
// unlock releases d.mu on the way out, so the job API stays live.
func (d *jobDriver) safeTick() {
	defer func() {
		if v := recover(); v != nil {
			d.mu.Lock()
			d.tickPanics++
			d.lastTickPanic = fmt.Sprint(v)
			d.mu.Unlock()
		}
	}()
	d.tick()
}

// publish announces one decision about job j on inst's event stream.
func (d *jobDriver) publish(inst *Instance, j sched.Job, action string, cpu float64, detail string) {
	publishNow(inst, "scheduler", SchedulerUpdate{
		Instance: inst.ID(), Job: j.ID, Name: j.Spec.Name, Workload: j.Spec.Workload,
		Action: action, Attempt: j.Attempts, CPUSec: cpu, Detail: detail,
	})
}

// killJobsOn force-evicts the running jobs whose task lives on inst —
// those running workload wl, or all of them when wl is empty — through
// the normal evict path (charging their retry budgets) with the CPU time
// accrued so far, and returns how many it evicted. Fault injection uses
// it so a leaf-crash or be-kill consumes the affected jobs' retries
// instead of leaving them running against tasks the fault is about to
// destroy; migration uses it so a departing instance's jobs requeue on
// this server's scheduler (checkpoints prune fleet tasks — the jobs
// never travel); the supervisor uses it before a crashed instance
// restarts, since the tasks vanish with the discarded machine. A live
// instance's tasks stop through its mailbox. A crashed or stopped one
// refuses the mailbox, and its frozen task counters are read directly.
func (d *jobDriver) killJobsOn(inst *Instance, wl, reason string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ids []int
	for id, ref := range d.tasks {
		if ref.inst == inst && (wl == "" || ref.task.WL.Spec.Name == wl) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	killed := 0
	for _, id := range ids {
		ref := d.tasks[id]
		delete(d.tasks, id)
		cpu, err := inst.stopSchedTask(ref.task, false)
		if err != nil {
			cpu = ref.task.CPUSec
		}
		j, _ := d.s.Job(id)
		acts := d.s.Kill(id, d.now(), cpu)
		killed += len(acts)
		for _, a := range acts {
			d.publish(inst, j, a.Kind.String(), cpu, reason)
		}
	}
	return killed
}

// tick snapshots the live instances, advances the scheduler and
// applies its actions. Probes and mutations run through instance
// mailboxes; an instance that stops mid-tick simply drops out of the
// snapshot and its jobs are evicted on the spot. The probes run before
// d.mu is taken: a mailbox held for a whole slice must not hold up the
// job API and every /metrics scrape, which read the scheduler under it.
func (d *jobDriver) tick() {
	insts := d.reg.List()
	nodes := make([]sched.NodeState, 0, len(insts))
	byID := make(map[int]*Instance, len(insts))
	for _, in := range insts {
		// The scheduler's node id is the instance's place in creation
		// order: stable for its life, never reused, and known for a named
		// instance as for a minted one.
		id := int(in.placed)
		ns, state, err := in.schedProbe()
		if err != nil || state != StateRunning {
			continue
		}
		ns.ID = id
		nodes = append(nodes, ns)
		byID[id] = in
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	actions := d.s.Tick(d.now(), nodes, func(j *sched.Job) float64 {
		ref := d.tasks[j.ID]
		if ref == nil {
			return j.CPUSec
		}
		cpu, err := ref.inst.taskCPUSec(ref.task)
		if err != nil {
			return j.CPUSec
		}
		return cpu
	})

	for _, a := range actions {
		job, _ := d.s.Job(a.Job)
		switch a.Kind {
		case sched.ActionDispatch:
			in := byID[a.Node]
			if in == nil {
				d.s.Abort(a.Job, d.now())
				continue
			}
			task, err := in.startSchedTask(a.Workload)
			if err != nil {
				// The controller flipped since the snapshot (or the
				// instance stopped): hand the job back without charging
				// its retry budget.
				d.s.Abort(a.Job, d.now())
				continue
			}
			d.tasks[a.Job] = &taskRef{inst: in, task: task}
			d.publish(in, job, a.Kind.String(), 0, "")
		case sched.ActionEvict, sched.ActionFail, sched.ActionComplete:
			ref := d.tasks[a.Job]
			delete(d.tasks, a.Job)
			if ref == nil {
				continue
			}
			cpu, err := ref.inst.stopSchedTask(ref.task, a.Kind == sched.ActionComplete)
			if err != nil {
				continue // instance already gone; nothing to publish
			}
			d.publish(ref.inst, job, a.Kind.String(), cpu, "")
		}
	}
}

// Submit validates and enqueues a job.
func (d *jobDriver) Submit(sub JobSubmission) JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	retries := 3
	if sub.Retries != nil {
		retries = *sub.Retries
	}
	id := d.s.Submit(sched.JobSpec{
		Name:     sub.Name,
		Workload: sub.Workload,
		Demand:   sub.Demand,
		Work:     time.Duration(sub.WorkS * float64(time.Second)),
		Priority: sub.Priority,
		Retries:  retries,
		Submit:   d.now(),
	})
	j, _ := d.s.Job(id)
	return d.jobStatusLocked(j)
}

// Jobs lists every job.
func (d *jobDriver) Jobs() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	jobs := d.s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = d.jobStatusLocked(j)
	}
	return out
}

// Job returns one job.
func (d *jobDriver) Job(id int) (JobStatus, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.s.Job(id)
	if !ok {
		return JobStatus{}, false
	}
	return d.jobStatusLocked(j), true
}

// Cancel cancels a job, stopping its task if it is running. Returns
// (status, found, cancelled): a terminal job is found but not cancelled.
func (d *jobDriver) Cancel(id int) (JobStatus, bool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.s.Job(id)
	if !ok {
		return JobStatus{}, false, false
	}
	var accrued float64
	ref := d.tasks[id]
	if j.State == sched.JobRunning && ref != nil {
		if cpu, err := ref.inst.stopSchedTask(ref.task, false); err == nil {
			accrued = cpu
			d.publish(ref.inst, j, "evict", cpu, "cancelled")
		}
		delete(d.tasks, id)
	}
	cancelled := d.s.Cancel(id, d.now(), accrued)
	j, _ = d.s.Job(id)
	return d.jobStatusLocked(j), true, cancelled
}

// Status snapshots the scheduler for the API and /metrics.
func (d *jobDriver) Status() SchedulerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.s.Accounting()
	return SchedulerStatus{
		Policy:          d.s.Policy(),
		QueueDepth:      a.QueueDepth,
		Running:         a.Running,
		Submitted:       a.Submitted,
		Dispatches:      a.Dispatches,
		Completed:       a.Completed,
		Evictions:       a.Evictions,
		Failed:          a.Failed,
		Cancelled:       a.Cancelled,
		Aborted:         a.Aborted,
		GoodCPUSec:      a.GoodCPUSec,
		WastedCPUSec:    a.WastedCPUSec,
		GoodputFrac:     a.GoodputFrac(),
		MeanQueueDelayS: a.MeanQueueDelay().Seconds(),
		MaxQueueDepth:   a.MaxQueueDepth,
		TickPanics:      d.tickPanics,
		LastTickPanic:   d.lastTickPanic,
	}
}

// jobStatusLocked renders a job snapshot; d.mu is held.
func (d *jobDriver) jobStatusLocked(j sched.Job) JobStatus {
	st := JobStatus{
		ID:       j.ID,
		Name:     j.Spec.Name,
		Workload: j.Spec.Workload,
		State:    j.State.String(),
		Demand:   j.Spec.Demand,
		WorkS:    j.Spec.Work.Seconds(),
		Priority: j.Spec.Priority,
		Retries:  j.Spec.Retries,
		Attempts: j.Attempts,
		CPUSec:   j.CPUSec,
		WastedS:  j.WastedCPUSec,
	}
	if j.State == sched.JobRunning {
		if ref := d.tasks[j.ID]; ref != nil {
			st.Instance = ref.inst.ID()
		}
	}
	return st
}

// --- Handlers ----------------------------------------------------------

func (s *Server) handleSchedStatus(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.jobs.Status())
}

func (s *Server) handleJobsList(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.Jobs()})
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var sub JobSubmission
	if !DecodeBody(w, r, &sub, BodyLimit) {
		return
	}
	if err := checkBEName(sub.Workload); err != nil {
		APIError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Checked before the conversion can overflow; a positive value under
	// a nanosecond would truncate to no work at all.
	if sub.WorkS > MaxJobWorkS || time.Duration(sub.WorkS*float64(time.Second)) <= 0 {
		APIError(w, http.StatusBadRequest, "work_s %v must be at least a nanosecond and at most %g", sub.WorkS, MaxJobWorkS)
		return
	}
	if sub.Demand < 0 || sub.Priority < 0 || (sub.Retries != nil && *sub.Retries < 0) {
		APIError(w, http.StatusBadRequest, "demand, priority and retries must not be negative")
		return
	}
	WriteJSON(w, http.StatusCreated, s.jobs.Submit(sub))
}

// jobID parses {id} or writes a 404.
func jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 1 {
		APIError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, found := s.jobs.Job(id)
	if !found {
		APIError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, found, cancelled := s.jobs.Cancel(id)
	switch {
	case !found:
		APIError(w, http.StatusNotFound, "no job %d", id)
	case !cancelled:
		APIError(w, http.StatusConflict, "job %d already %s", id, st.State)
	default:
		WriteJSON(w, http.StatusOK, st)
	}
}
