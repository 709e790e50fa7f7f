package serve

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The epoch scheduler (DESIGN.md §13), one pool per shard: one min-heap
// of due times and one bounded worker pool drive every instance on the
// shard, their crash restarts and the shard's fleet dispatch loop.
// Nothing in the control plane owns a per-instance goroutine or timer —
// an idle, parked or backing-off instance costs exactly one heap entry
// (or none), which is what lets a single registry hold 100k+ live
// instances.

// epochTask is one unit of work the epoch scheduler dispatches:
// an instance's next batch of epochs, its pending crash restart, or the
// fleet dispatcher's tick. runSlice executes the due work and returns
// the next wall-clock due time; ok=false parks the task — a parked task
// holds no timer, no goroutine and no heap entry until something
// schedules its entry again.
type epochTask interface {
	runSlice() (next time.Time, ok bool)
}

// poolEntry is one task's position in the epoch heap. An entry is
// single-owner and lives as long as its task; it is out of the heap
// (index -1) while dispatched to a worker or parked. home is the pool
// whose heap the entry lives in: a shed slice may execute on a peer
// pool's worker, but the entry's queue state (due, index, cancelled)
// always belongs to — and is locked through — its home pool.
type poolEntry struct {
	task  epochTask
	home  *epochScheduler
	due   time.Time
	seq   uint64 // FIFO tie-break for equal due times (free-runner round-robin)
	index int    // heap position; -1 while dispatched or parked
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

// epochScheduler is the shared driver pool: a dispatcher goroutine pops
// due entries off the heap and hands them to `drivers` workers, each of
// which runs one slice and requeues the entry at the time the task asks
// for. Each registry shard owns exactly one; sibling shards' pools are
// wired as peers for work-stealing (see shed).
type epochScheduler struct {
	drivers int

	// peers are the sibling shards' pools, wired once by the registry
	// before any traffic and immutable afterwards. When every local
	// worker is busy, the dispatcher sheds a due entry to the first peer
	// with an idle worker instead of queueing behind the hot shard.
	peers []*epochScheduler

	mu  sync.Mutex
	h   entryHeap
	seq uint64

	wake  chan struct{} // kicks the dispatcher when the earliest due changes
	work  chan *poolEntry
	stopc chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	slices atomic.Int64 // slices dispatched to workers
	epochs atomic.Int64 // simulated epochs advanced by workers
	shed   atomic.Int64 // due slices handed to a peer pool's worker
	stolen atomic.Int64 // foreign slices this pool's workers executed
}

// defaultDrivers is the worker budget a pool gets when none is
// configured.
func defaultDrivers() int { return runtime.GOMAXPROCS(0) }

// newEpochScheduler starts a scheduler with the given worker count
// (0 selects GOMAXPROCS).
func newEpochScheduler(drivers int) *epochScheduler {
	if drivers <= 0 {
		drivers = runtime.GOMAXPROCS(0)
	}
	s := &epochScheduler{
		drivers: drivers,
		wake:    make(chan struct{}, 1),
		work:    make(chan *poolEntry),
		stopc:   make(chan struct{}),
	}
	s.wg.Add(1 + drivers)
	go s.dispatch()
	for k := 0; k < drivers; k++ {
		go s.worker()
	}
	return s
}

// newEntry binds a task to an unscheduled heap entry homed on this pool.
func (s *epochScheduler) newEntry(task epochTask) *poolEntry {
	return &poolEntry{task: task, home: s, index: -1}
}

// schedule (re)queues e at due on its home pool: a queued entry moves, a
// parked one is pushed, a cancelled one is ignored. Routing through the
// home keeps the call correct from a peer worker that just ran a stolen
// slice — the entry re-enters its own shard's heap, never the thief's.
func (s *epochScheduler) schedule(e *poolEntry, due time.Time) {
	h := e.home
	h.mu.Lock()
	if e.cancelled {
		h.mu.Unlock()
		return
	}
	e.due = due
	if e.index >= 0 {
		heap.Fix(&h.h, e.index)
	} else {
		e.seq = h.seq
		h.seq++
		heap.Push(&h.h, e)
	}
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// remove cancels e permanently: it leaves its home heap if queued, and
// an in-flight dispatch of it becomes a no-op. Removal is final (the
// owner is stopping), which is what drains mid-backoff restart entries
// when an instance is deleted during its backoff window.
func (s *epochScheduler) remove(e *poolEntry) {
	h := e.home
	h.mu.Lock()
	e.cancelled = true
	if e.index >= 0 {
		heap.Remove(&h.h, e.index)
	}
	h.mu.Unlock()
}

// dispatch owns the single timer armed for the earliest due entry; a
// schedule call that changes the front of the heap kicks it awake early.
func (s *epochScheduler) dispatch() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		s.mu.Lock()
		var e *poolEntry
		wait := time.Duration(-1)
		if len(s.h) > 0 {
			if d := time.Until(s.h[0].due); d <= 0 {
				e = heap.Pop(&s.h).(*poolEntry)
			} else {
				wait = d
			}
		}
		s.mu.Unlock()

		if e != nil {
			// Hand the due slice to an idle local worker if one is
			// waiting; otherwise try to shed it to a peer pool with an
			// idle worker (work-stealing for a hot shard); otherwise
			// block on the local pool like before.
			select {
			case s.work <- e:
			default:
				if !s.shedToPeer(e) {
					select {
					case s.work <- e:
					case <-s.stopc:
						return
					}
				}
			}
			continue
		}
		if wait < 0 { // empty heap: sleep until something is scheduled
			select {
			case <-s.wake:
			case <-s.stopc:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-s.stopc:
			return
		}
	}
}

// shedToPeer offers a due entry to the first peer pool with an idle
// worker. The work channels are unbuffered, so a successful send means a
// peer worker takes the slice right now — shedding never queues work
// behind another shard, it only uses spare capacity that already exists.
func (s *epochScheduler) shedToPeer(e *poolEntry) bool {
	for _, p := range s.peers {
		select {
		case p.work <- e:
			s.shed.Add(1)
			return true
		default:
		}
	}
	return false
}

// worker runs dispatched slices — local or stolen from a peer's
// dispatcher — and requeues live tasks on their home heap at the due
// time they return.
func (s *epochScheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopc:
			return
		case e := <-s.work:
			h := e.home
			h.mu.Lock()
			dead := e.cancelled
			h.mu.Unlock()
			if dead {
				continue
			}
			if h != s {
				s.stolen.Add(1)
			}
			sliceStart := time.Now()
			next, ok := e.task.runSlice()
			epochSliceHist.Observe(time.Since(sliceStart))
			s.slices.Add(1)
			if ok {
				s.schedule(e, next)
			}
			// A saturating task (a free-runner requeueing at `now`) turns
			// the dispatcher→worker channel handoff into a ping-pong that
			// rides the runtime's runnext fast path and can starve every
			// other runnable goroutine on a single-P box. One yield per
			// slice bounds that unfairness at no measurable cost.
			runtime.Gosched()
		}
	}
}

// stop shuts the pool down and waits for the dispatcher and every worker
// to exit; an in-flight slice completes first. Safe to call more than
// once.
func (s *epochScheduler) stop() {
	s.once.Do(func() { close(s.stopc) })
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

// EpochSchedStatus is an epoch scheduler pool's health snapshot,
// reported by GET /healthz and the heracles_epoch_sched_* metric
// families.
type EpochSchedStatus struct {
	// Drivers is the worker pool size (the -drivers knob).
	Drivers int `json:"drivers"`
	// QueueDepth is the number of entries queued in the epoch heap.
	QueueDepth int `json:"queue_depth"`
	// Slices counts dispatches to workers; Epochs counts simulated
	// epochs those slices advanced.
	Slices int64 `json:"slices"`
	Epochs int64 `json:"epochs"`
	// Shed counts due slices this pool handed to an idle peer worker
	// because every local worker was busy; Stolen counts foreign slices
	// this pool's workers executed for hot peers.
	Shed   int64 `json:"shed"`
	Stolen int64 `json:"stolen"`
	// LagSeconds is how far the earliest due entry trails the wall clock.
	LagSeconds float64 `json:"lag_seconds"`
}

// merge folds another pool's snapshot into s (counters sum, lag takes
// the worst shard) — the aggregate view /healthz and /metrics report for
// a sharded registry.
func (st EpochSchedStatus) merge(o EpochSchedStatus) EpochSchedStatus {
	st.Drivers += o.Drivers
	st.QueueDepth += o.QueueDepth
	st.Slices += o.Slices
	st.Epochs += o.Epochs
	st.Shed += o.Shed
	st.Stolen += o.Stolen
	if o.LagSeconds > st.LagSeconds {
		st.LagSeconds = o.LagSeconds
	}
	return st
}

func (s *epochScheduler) status() EpochSchedStatus {
	return EpochSchedStatus{
		Drivers:    s.drivers,
		QueueDepth: s.depth(),
		Slices:     s.slices.Load(),
		Epochs:     s.epochs.Load(),
		Shed:       s.shed.Load(),
		Stolen:     s.stolen.Load(),
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

// ScheduleBench exists for cmd/benchbaseline's InstanceSchedule entry:
// it measures the pure per-slice scheduling overhead — one heap push,
// one dispatcher pop, one worker dispatch and one requeue — with no
// engine work attached. It drives `tasks` no-op tasks through a fresh
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
