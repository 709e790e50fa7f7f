package serve

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The epoch scheduler (DESIGN.md §13), one per registry: one min-heap of
// due times and one bounded worker pool drive every instance, their
// crash restarts, the fleet dispatch loop and the checkpoint pass.
// Nothing in the control plane owns a per-instance goroutine or timer —
// an idle, parked or backing-off instance costs exactly one heap entry
// (or none), which is what lets a single registry hold 100k+ live
// instances.

// epochTask is one unit of work the epoch scheduler runs: an
// instance's next batch of epochs, its pending crash restart, the fleet
// dispatcher's tick, or one file of the checkpoint pass. runSlice
// executes the due work and returns the next wall-clock due time;
// ok=false parks the task — a parked task holds no timer, no goroutine
// and no heap entry until something schedules its entry again.
type epochTask interface {
	runSlice() (next time.Time, ok bool)
}

// poolEntry is one task's position in the epoch heap. An entry is
// single-owner and lives as long as its task; it is out of the heap
// (index -1) while a worker runs its slice or while it is parked.
type poolEntry struct {
	task  epochTask
	due   time.Time
	seq   uint64 // FIFO tie-break for equal due times (free-runner round-robin)
	index int    // heap position; -1 while running or parked
	// cancelled is terminal: set by remove when the owner stops, it makes
	// any concurrent or future schedule a no-op, so an in-flight slice
	// cannot resurrect a deleted instance's entry.
	cancelled bool
}

// entryHeap orders entries by due time, then by scheduling sequence so
// equal-due entries (free-runners requeueing at "now") run round-robin.
type entryHeap []*poolEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(a, b int) bool {
	if !h[a].due.Equal(h[b].due) {
		return h[a].due.Before(h[b].due)
	}
	return h[a].seq < h[b].seq
}
func (h entryHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index = a
	h[b].index = b
}
func (h *entryHeap) Push(x any) {
	e := x.(*poolEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// epochScheduler is the shared driver pool: `drivers` workers, each of
// which takes the heap's head itself once it is due, runs one slice and
// requeues the entry at the time the task asks for. Idle workers wait on
// one condition; one alarm, armed for the head, wakes one of them. The
// registry owns exactly one.
type epochScheduler struct {
	drivers int

	mu      sync.Mutex
	h       entryHeap
	seq     uint64
	ready   sync.Cond   // idle workers wait here; signalled one at a time
	alarm   *time.Timer // signals one waiter when the head falls due
	stopped bool
	wg      sync.WaitGroup

	slices atomic.Int64 // slices run by workers
	epochs atomic.Int64 // simulated epochs advanced by workers
}

// newEpochScheduler starts a scheduler with the given worker count
// (0 selects GOMAXPROCS).
func newEpochScheduler(drivers int) *epochScheduler {
	if drivers <= 0 {
		drivers = runtime.GOMAXPROCS(0)
	}
	s := &epochScheduler{drivers: drivers}
	s.ready.L = &s.mu
	s.alarm = time.AfterFunc(time.Hour, func() {
		s.mu.Lock()
		s.ready.Signal()
		s.mu.Unlock()
	})
	s.alarm.Stop()
	s.wg.Add(drivers)
	for k := 0; k < drivers; k++ {
		go s.worker()
	}
	return s
}

// newEntry binds a task to an unscheduled heap entry.
func (s *epochScheduler) newEntry(task epochTask) *poolEntry {
	return &poolEntry{task: task, index: -1}
}

// schedule (re)queues e at due: a queued entry moves, a parked one is
// pushed, a cancelled one is ignored. An entry that becomes the head
// wakes one idle worker, which takes it or re-arms the alarm for it.
func (s *epochScheduler) schedule(e *poolEntry, due time.Time) {
	s.mu.Lock()
	if s.requeue(e, due); e.index == 0 {
		s.ready.Signal()
	}
	s.mu.Unlock()
}

// requeue is schedule without the wake-up; s.mu is held.
func (s *epochScheduler) requeue(e *poolEntry, due time.Time) {
	switch {
	case e.cancelled:
	case e.index >= 0:
		e.due = due
		heap.Fix(&s.h, e.index)
	default:
		e.due, e.seq = due, s.seq
		s.seq++
		heap.Push(&s.h, e)
	}
}

// remove cancels e permanently: it leaves the heap if queued, and an
// in-flight slice of it cannot requeue it. Removal is final (the owner
// is stopping), which is what drains mid-backoff restart entries when an
// instance is deleted during its backoff window.
func (s *epochScheduler) remove(e *poolEntry) {
	s.mu.Lock()
	e.cancelled = true
	if e.index >= 0 {
		heap.Remove(&s.h, e.index)
	}
	s.mu.Unlock()
}

// take pops the head once it is due, waiting on s.ready until then; s.mu
// is held. A waiter that finds the head in the future arms the alarm for
// it. A worker that pops while entries remain signals the next waiter,
// which takes the new head or re-arms the alarm for it, so one wake-up
// never rouses the whole pool. take returns nil once the pool stops.
func (s *epochScheduler) take() *poolEntry {
	for !s.stopped {
		if len(s.h) > 0 {
			d := time.Until(s.h[0].due)
			if d <= 0 {
				e := heap.Pop(&s.h).(*poolEntry)
				if len(s.h) > 0 {
					s.ready.Signal()
				}
				return e
			}
			s.alarm.Reset(d)
		}
		s.ready.Wait()
	}
	return nil
}

// worker runs due slices and requeues live tasks at the due time they
// return, unless someone scheduled the entry while its slice ran (a
// crashing Do's restart, at its backoff): that due time stands.
func (s *epochScheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for e := s.take(); e != nil; e = s.take() {
		s.mu.Unlock()
		sliceStart := time.Now()
		next, ok := e.task.runSlice()
		epochSliceHist.Observe(time.Since(sliceStart))
		s.slices.Add(1)
		// A saturating task (a free-runner requeueing at `now`) would
		// keep this worker running without ever blocking, starving every
		// other runnable goroutine on a single-P box. One yield per slice
		// bounds that unfairness at no measurable cost.
		runtime.Gosched()
		s.mu.Lock()
		if ok && e.index < 0 {
			s.requeue(e, next)
		}
	}
	s.mu.Unlock()
}

// stop shuts the pool down and waits for every worker to exit; an
// in-flight slice completes first, and no slice runs once stop returns.
// Entries stay queued. Safe to call more than once.
func (s *epochScheduler) stop() {
	s.mu.Lock()
	s.stopped = true
	s.alarm.Stop()
	s.ready.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// depth returns the number of queued entries.
func (s *epochScheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.h)
}

// lag reports how far the earliest due entry is behind the wall clock —
// the pool's overload signal.
func (s *epochScheduler) lag() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.h) == 0 {
		return 0
	}
	if d := time.Since(s.h[0].due); d > 0 {
		return d
	}
	return 0
}

// EpochSchedStatus is the epoch scheduler's health snapshot, reported
// by GET /healthz and the heracles_epoch_sched_* metric families.
type EpochSchedStatus struct {
	// Drivers is the worker pool size (the -drivers knob).
	Drivers int `json:"drivers"`
	// QueueDepth is the number of entries queued in the epoch heap.
	QueueDepth int `json:"queue_depth"`
	// Slices counts slices the workers ran; Epochs counts simulated
	// epochs those slices advanced.
	Slices int64 `json:"slices"`
	Epochs int64 `json:"epochs"`
	// LagSeconds is how far the earliest due entry trails the wall clock.
	LagSeconds float64 `json:"lag_seconds"`
}

func (s *epochScheduler) status() EpochSchedStatus {
	return EpochSchedStatus{
		Drivers:    s.drivers,
		QueueDepth: s.depth(),
		Slices:     s.slices.Load(),
		Epochs:     s.epochs.Load(),
		LagSeconds: s.lag().Seconds(),
	}
}

// benchTask is ScheduleBench's no-op task: it requeues immediately until
// the shared slice budget runs out, then parks.
type benchTask struct {
	left *atomic.Int64
	wg   *sync.WaitGroup
}

func (t *benchTask) runSlice() (time.Time, bool) {
	if t.left.Add(-1) >= 0 {
		return time.Now(), true
	}
	t.wg.Done()
	return time.Time{}, false
}

// ScheduleBench exists for cmd/heraclesbench's serve.schedule_slice_us
// rung and the root micro-benchmark table's InstanceSchedule entry: it
// measures the pure per-slice scheduling overhead — one requeue and one
// pop, both by the worker that runs the slice — with no engine work
// attached. It drives `tasks` no-op tasks through a fresh
// pool of `drivers` workers until `slices` total slices have run.
func ScheduleBench(drivers, tasks, slices int) {
	s := newEpochScheduler(drivers)
	defer s.stop()
	var left atomic.Int64
	left.Store(int64(slices))
	var wg sync.WaitGroup
	wg.Add(tasks)
	now := time.Now()
	for k := 0; k < tasks; k++ {
		s.schedule(s.newEntry(&benchTask{left: &left, wg: &wg}), now)
	}
	wg.Wait()
}
