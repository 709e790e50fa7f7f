package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/engine"
)

// awaitInstance blocks until cond holds, waking on the instance's
// change notification instead of sleep-polling. The notification channel
// is grabbed before cond is evaluated so a change landing between the
// check and the wait cannot be missed.
func awaitInstance(t testing.TB, inst *Instance, what string, cond func() bool) {
	t.Helper()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	for {
		ch := inst.changed()
		if cond() {
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s on %s", what, inst.ID())
		}
	}
}

// awaitTicks blocks until cond holds for the dispatch loop's tick count,
// waking once per fleet-scheduler tick.
func awaitTicks(t *testing.T, d *jobDriver, what string, cond func(ticks int64) bool) {
	t.Helper()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	for {
		n, ch := d.tickWait()
		if cond(n) {
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s (at tick %d)", what, n)
		}
	}
}

// taskFunc adapts a closure to the scheduler's epochTask interface.
type taskFunc func() (time.Time, bool)

func (f taskFunc) runSlice() (time.Time, bool) { return f() }

// TestEpochSchedulerOrdering: same-due entries run in schedule order
// (seq is the heap tie-break), through a single driver.
func TestEpochSchedulerOrdering(t *testing.T) {
	pool := newEpochScheduler(1)
	defer pool.stop()
	ran := make(chan int, 3)
	due := time.Now().Add(-time.Millisecond)
	for k := 0; k < 3; k++ {
		k := k
		e := pool.newEntry(taskFunc(func() (time.Time, bool) {
			ran <- k
			return time.Time{}, false
		}))
		pool.schedule(e, due)
	}
	for want := 0; want < 3; want++ {
		select {
		case got := <-ran:
			if got != want {
				t.Fatalf("slice order: got task %d, want %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("task %d never ran", want)
		}
	}
}

// TestEpochSchedulerRemoveIsTerminal: a removed entry leaves the heap,
// and a later schedule of the same entry is a no-op — the cancellation
// that keeps deleted instances from being resurrected by an in-flight
// crash recovery.
func TestEpochSchedulerRemoveIsTerminal(t *testing.T) {
	pool := newEpochScheduler(1)
	defer pool.stop()
	e := pool.newEntry(taskFunc(func() (time.Time, bool) {
		t.Error("cancelled entry ran")
		return time.Time{}, false
	}))
	pool.schedule(e, time.Now().Add(time.Hour))
	if got := pool.depth(); got != 1 {
		t.Fatalf("depth after schedule = %d, want 1", got)
	}
	pool.remove(e)
	if got := pool.depth(); got != 0 {
		t.Fatalf("depth after remove = %d, want 0", got)
	}
	pool.remove(e) // idempotent
	pool.schedule(e, time.Now())
	if got := pool.depth(); got != 0 {
		t.Fatalf("cancelled entry re-entered the heap (depth %d)", got)
	}
}

// TestEpochSchedulerRescheduleMovesEntry: scheduling an already-queued
// entry moves it in place rather than duplicating it.
func TestEpochSchedulerRescheduleMovesEntry(t *testing.T) {
	pool := newEpochScheduler(1)
	ran := make(chan struct{}, 1)
	e := pool.newEntry(taskFunc(func() (time.Time, bool) {
		ran <- struct{}{}
		return time.Time{}, false
	}))
	pool.schedule(e, time.Now().Add(time.Hour))
	pool.schedule(e, time.Now()) // pull it forward
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("rescheduled entry never ran")
	}
	pool.stop()
	st := pool.status()
	if st.QueueDepth != 0 || st.Slices != 1 {
		t.Fatalf("status after one slice = %+v, want empty queue and 1 slice", st)
	}
}

// TestEpochSchedulerStatus: the exported snapshot reports pool size,
// queue depth and head lag.
func TestEpochSchedulerStatus(t *testing.T) {
	pool := newEpochScheduler(2)
	pool.stop() // freeze the pool so queued entries stay put
	park := taskFunc(func() (time.Time, bool) { return time.Time{}, false })
	pool.schedule(pool.newEntry(park), time.Now().Add(time.Hour))
	pool.schedule(pool.newEntry(park), time.Now().Add(2*time.Hour))
	st := pool.status()
	if st.Drivers != 2 || st.QueueDepth != 2 {
		t.Fatalf("status = %+v, want 2 drivers, 2 queued", st)
	}
	if st.LagSeconds != 0 {
		t.Fatalf("future-due head reports lag %v, want 0", st.LagSeconds)
	}
	pool.schedule(pool.newEntry(park), time.Now().Add(-3*time.Second))
	if st = pool.status(); st.LagSeconds < 2.9 {
		t.Fatalf("overdue head reports lag %v, want >= ~3s", st.LagSeconds)
	}
}

// TestEpochSchedulerWaitsForDue: on an idle pool an entry due in the
// future runs no earlier than its due time, and promptly after it — the
// alarm armed for the head wakes a waiting worker.
func TestEpochSchedulerWaitsForDue(t *testing.T) {
	pool := newEpochScheduler(2)
	defer pool.stop()
	ran := make(chan time.Time, 1)
	due := time.Now().Add(50 * time.Millisecond)
	pool.schedule(pool.newEntry(taskFunc(func() (time.Time, bool) {
		ran <- time.Now()
		return time.Time{}, false
	})), due)
	select {
	case at := <-ran:
		if at.Before(due) {
			t.Fatalf("entry ran %v before its due time", due.Sub(at))
		}
		if late := at.Sub(due); late > 5*time.Second {
			t.Fatalf("entry ran %v after its due time", late)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("future-due entry never ran")
	}
}

// TestEpochSchedulerDueNowOvertakesArmedHead: while both drivers wait on
// a head an hour out, an entry scheduled due now becomes the head, wakes
// one of them and runs promptly.
func TestEpochSchedulerDueNowOvertakesArmedHead(t *testing.T) {
	pool := newEpochScheduler(2)
	defer pool.stop()
	pool.schedule(pool.newEntry(taskFunc(func() (time.Time, bool) {
		t.Error("hour-out entry ran")
		return time.Time{}, false
	})), time.Now().Add(time.Hour))
	time.Sleep(20 * time.Millisecond) // let both drivers reach the wait
	ran := make(chan struct{})
	pool.schedule(pool.newEntry(taskFunc(func() (time.Time, bool) {
		close(ran)
		return time.Time{}, false
	})), time.Now())
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("due-now entry did not run while the drivers waited on an hour-out head")
	}
}

// TestEpochSchedulerRunsInDueOrder: entries scheduled out of order with
// distinct future due times run in due order, the alarm re-armed for
// each new head in turn.
func TestEpochSchedulerRunsInDueOrder(t *testing.T) {
	pool := newEpochScheduler(1)
	defer pool.stop()
	ran := make(chan int, 3)
	now := time.Now()
	for _, k := range []int{2, 0, 1} {
		pool.schedule(pool.newEntry(taskFunc(func() (time.Time, bool) {
			ran <- k
			return time.Time{}, false
		})), now.Add(time.Duration(k+1)*20*time.Millisecond))
	}
	for want := 0; want < 3; want++ {
		select {
		case got := <-ran:
			if got != want {
				t.Fatalf("due order: got entry %d, want %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("entry %d never ran", want)
		}
	}
}

// TestEpochSchedulerStopWhileArmed: stop returns while the workers wait
// on an armed alarm, and the alarm firing afterwards runs no slice.
func TestEpochSchedulerStopWhileArmed(t *testing.T) {
	pool := newEpochScheduler(2)
	var stopped atomic.Bool
	pool.schedule(pool.newEntry(taskFunc(func() (time.Time, bool) {
		if stopped.Load() {
			t.Error("a slice ran after stop returned")
		}
		return time.Time{}, false
	})), time.Now().Add(100*time.Millisecond))
	time.Sleep(20 * time.Millisecond) // let the drivers arm the alarm and wait
	done := make(chan struct{})
	go func() {
		pool.stop()
		stopped.Store(true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return while the workers waited on the alarm")
	}
	time.Sleep(200 * time.Millisecond) // past the entry's due time
}

// TestEpochSchedulerDoCrashKeepsRestartBackoff: a Do that crashes after
// a slice released the mailbox lock, with finishCrash queueing the
// restart before the worker requeues the slice, still restarts only
// after the backoff; the worker does not pull the restart back to the
// slice's own due time.
func TestEpochSchedulerDoCrashKeepsRestartBackoff(t *testing.T) {
	s := New(Config{Lab: testLab, restartBackoff: time.Hour})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	pool, e := inst.pool, inst.entry
	crashed := make(chan struct{})
	var once sync.Once
	wrap := taskFunc(func() (time.Time, bool) {
		next, ok := inst.runSlice()
		once.Do(func() {
			if err := inst.Do(func() error { panic("crash between slices") }); err == nil {
				t.Error("a panicking Do returned no error")
			}
			// finishCrash runs on its own goroutine; wait for its restart.
			for queued := false; !queued; time.Sleep(time.Millisecond) {
				pool.mu.Lock()
				queued = e.index >= 0
				pool.mu.Unlock()
			}
			close(crashed)
		})
		return next, ok
	})
	// Swap the task in while the entry is queued, so its next pop runs it.
	for swapped := false; !swapped; runtime.Gosched() {
		pool.mu.Lock()
		if swapped = e.index >= 0; swapped {
			e.task = wrap
		}
		pool.mu.Unlock()
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("the wrapped slice never ran")
	}
	time.Sleep(100 * time.Millisecond) // the slice's answer was due at once
	pool.mu.Lock()
	wait := time.Until(e.due)
	pool.mu.Unlock()
	if h := inst.Health(); h.Restarts != 0 || wait < 30*time.Minute {
		t.Fatalf("after a Do crash with a 1h backoff: %d restarts, restart due in %v", h.Restarts, wait)
	}
}

// TestCadenceStretchAndTighten: an unobserved healthy paced instance
// stretches its tick (batching epochs); attaching a stream subscriber
// snaps it back to every-epoch cadence.
func TestCadenceStretchAndTighten(t *testing.T) {
	s := testServer(t)
	inst, err := s.CreateInstance(InstanceSpec{Speed: 1e7, Load: 0.3})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	stretchOf := func() int {
		var st int
		if err := inst.Do(func() error { st = inst.cad.stretch; return nil }); err != nil {
			t.Fatalf("Do: %v", err)
		}
		return st
	}
	awaitInstance(t, inst, "cadence stretch > 1", func() bool { return stretchOf() > 1 })
	sub := inst.hub.Subscribe(64)
	defer sub.Close()
	awaitInstance(t, inst, "cadence back to 1 under observation", func() bool { return stretchOf() == 1 })
}

// TestSchedulerTelemetryMatchesSequentialDriver pins the refactor's
// invariant: the shared scheduler's batched slices produce telemetry
// bit-identical to the pre-refactor per-goroutine driver, which stepped
// the engine exactly one epoch per tick in a dedicated loop. The
// reference below IS that old driver, reduced to its essence: a
// sequential Step loop over the same engine configuration.
func TestSchedulerTelemetryMatchesSequentialDriver(t *testing.T) {
	const epochs = 60
	spec := InstanceSpec{Load: 0.45, BEs: []BEAttachment{{Workload: "brain"}}}

	pk, err := placementByName("")
	if err != nil {
		t.Fatalf("default placement: %v", err)
	}
	cfg := engineConfig(testLab, "websearch")
	cfg.Load = spec.Load
	cfg.InitialBEs = func(int) []engine.BEAttach {
		return []engine.BEAttach{{WL: testLab.BE("brain"), Placement: pk}}
	}
	eng := engine.New(cfg)
	defer eng.Close()
	want := make([]telPoint, 0, epochs)
	for k := 0; k < epochs; k++ {
		er := eng.Step()
		want = append(want, pointOf(er.Tel[0]))
	}

	// Free-running instance: slices step freeRunBatch epochs at a time.
	s := testServer(t)
	freeInst, got := runToPark(t, s, spec, epochs)
	if len(got) != epochs {
		t.Fatalf("instance resolved %d epochs, want %d", len(got), epochs)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("epoch %d diverged from the sequential driver:\n got  %+v\n want %+v", k+1, got[k], want[k])
		}
	}

	// Paced instance with no hook and no subscriber: the cadence policy
	// stretches it, so epochs advance in multi-epoch batches. Its final
	// state must still match the free-runner's (same code path renders
	// both EpochUpdates), hence the sequential reference's.
	paced := spec
	paced.Speed = 1e7
	paced.MaxEpochs = epochs
	pacedInst, err := s.CreateInstance(paced)
	if err != nil {
		t.Fatalf("create paced: %v", err)
	}
	awaitInstance(t, pacedInst, "paced instance done", func() bool {
		return pacedInst.Status().State == StateDone
	})
	a, b := freeInst.Status().Last, pacedInst.Status().Last
	a.Instance, b.Instance = "", ""
	if a != b {
		t.Fatalf("paced final epoch diverged from free-run:\n got  %+v\n want %+v", b, a)
	}
}

// TestRegistryChurnNoLeaks churns instances through create / crash /
// migrate / delete concurrently across a 4-shard registry and asserts
// the process returns to baseline: goroutine count, heap, and the
// scheduler queue all drain. This is the regression test for
// the mid-backoff restart-timer leak — an instance deleted while
// backing off must take its pending restart entry with it — and, with
// shards, for migration leaving no orphan entry on either side's heap.
func TestRegistryChurnNoLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short")
	}
	n := 1200
	if raceEnabled {
		n = 240
	}
	const shards = 4
	s := New(Config{Lab: testLab, Shards: shards, MaxInstances: n + 8, restartBackoff: time.Hour})
	t.Cleanup(s.Close)

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	baseGoros := runtime.NumGoroutine()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < n/workers; k++ {
				var spec InstanceSpec
				mode := (w + k) % 4
				switch mode {
				case 0: // free-run to done, then delete a parked instance
					spec = InstanceSpec{Speed: SpeedMax, MaxEpochs: 3}
				case 1: // paced, deleted while waiting for its first epoch
					spec = InstanceSpec{Speed: 1}
				case 2: // crashed, deleted mid-backoff (1h away)
					spec = InstanceSpec{Speed: SpeedMax}
				case 3: // migrated across shards mid-run, then deleted
					spec = InstanceSpec{Speed: 1}
				}
				inst, err := s.CreateInstance(spec)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if mode == 2 {
					if err := inst.InjectFault(FaultRequest{Kind: FaultDriverPanic}); err == nil {
						awaitInstance(t, inst, "crash booked", func() bool {
							return inst.Health().Crashes >= 1
						})
					}
				}
				if mode == 3 {
					from := inst.Status().Shard
					res, err := s.MigrateToShard(inst.ID(), (from+1+k%(shards-1))%shards)
					if err != nil {
						// A concurrent worker cannot hold this id, so the only
						// acceptable loss is the instance finishing; paced
						// instances never finish here.
						t.Errorf("migrate: %v", err)
						return
					}
					next, ok := s.Registry().Get(res.To)
					if !ok {
						t.Errorf("migrated instance %s not in registry", res.To)
						return
					}
					inst = next
				}
				s.Registry().Remove(inst.ID())
				inst.Stop()
			}
		}(w)
	}
	wg.Wait()

	if got := s.Registry().Len(); got != 0 {
		t.Fatalf("registry holds %d instances after churn, want 0", got)
	}
	// Only the fleet dispatch entry may remain queued: every instance
	// entry — including both sides of every migration — must have left
	// the heap.
	if got := s.reg.pool.depth(); got > 1 {
		t.Fatalf("scheduler heap holds %d entries after churn, want <= 1", got)
	}
	// Goroutine and heap convergence: the runtime exposes no event to
	// wait on here, so poll the counters with a bounded deadline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseGoros+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d, want <= baseline %d+8\n%s",
				runtime.NumGoroutine(), baseGoros, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > base.HeapAlloc+128<<20 {
		t.Fatalf("heap grew from %dMB to %dMB across churn",
			base.HeapAlloc>>20, after.HeapAlloc>>20)
	}
}

// TestHundredThousandInstancesOneProcess is the scale acceptance test:
// 100k live instances in one process, each costing one heap entry and no
// goroutine, with bounded per-instance memory — while a handful of
// active instances still advance promptly through the same pool.
func TestHundredThousandInstancesOneProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	n := 100_000
	if raceEnabled {
		n = 4_000
	}
	reg := NewRegistry(2, 1)
	defer reg.Close()

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	baseGoros := runtime.NumGoroutine()

	// Speed ~0 gives a wall-clock interval of days: every instance parks
	// in the heap, due far in the future.
	spec := InstanceSpec{}
	for k := 0; k < n; k++ {
		id, err := reg.Reserve(n+8, "")
		if err != nil {
			t.Fatalf("reserve %d: %v", k, err)
		}
		inst, err := newInstance(id, 0, spec, testLab, 1e-6, supervisorConfig{}, reg.pool)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		reg.Put(inst)
	}
	if got := reg.Len(); got != n {
		t.Fatalf("registry len = %d, want %d", got, n)
	}
	if got := reg.pool.depth(); got != n {
		t.Fatalf("scheduler heap holds %d entries, want %d", got, n)
	}
	if got := runtime.NumGoroutine(); got > baseGoros+4 {
		t.Fatalf("%d goroutines for %d instances (baseline %d): instances must not own goroutines", got, n, baseGoros)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	per := (after.HeapAlloc - base.HeapAlloc) / uint64(n)
	t.Logf("%d instances: %d MB heap, %d bytes/instance, %d goroutines",
		n, (after.HeapAlloc-base.HeapAlloc)>>20, per, runtime.NumGoroutine())
	if per > 64<<10 {
		t.Fatalf("per-instance heap = %d bytes, want <= 64KB", per)
	}

	// Active instances dispatch promptly out of the big heap.
	fast := make([]*Instance, 0, 8)
	for k := 0; k < 8; k++ {
		id, err := reg.Reserve(n+8, "")
		if err != nil {
			t.Fatalf("reserve fast %d: %v", k, err)
		}
		inst, err := newInstance(id, 0, InstanceSpec{MaxEpochs: 30}, testLab, SpeedMax, supervisorConfig{}, reg.pool)
		if err != nil {
			t.Fatalf("fast instance %d: %v", k, err)
		}
		reg.Put(inst)
		fast = append(fast, inst)
	}
	for k, inst := range fast {
		awaitInstance(t, inst, fmt.Sprintf("fast instance %d done", k), func() bool {
			return inst.Status().State == StateDone
		})
	}

	reg.Close()
	if got := reg.pool.depth(); got != 0 {
		t.Fatalf("scheduler heap holds %d entries after Close, want 0", got)
	}
}
