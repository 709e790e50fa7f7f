package sched

import (
	"testing"
	"time"
)

// TestTickDoesNotAllocateQuiescent pins the scheduler's scratch reuse:
// once its scratch has grown, a Tick — node sort, view build, progress
// scan, and every kind of decision — touches only the scheduler's own
// scratch slices and allocates nothing, and neither do Cancel and Abort.
func TestTickDoesNotAllocateQuiescent(t *testing.T) {
	t.Run("quiescent", func(t *testing.T) {
		jobs := make([]JobSpec, 48)
		for i := range jobs {
			jobs[i] = JobSpec{
				Name: "j", Workload: "brain", Demand: 1 + i%3,
				// Effectively infinite work: the jobs dispatch once and then
				// run forever, so steady-state ticks only scan them.
				Work: 1e6 * time.Second, Retries: 1,
			}
		}
		s := New(Config{Policy: SlackGreedy{}, Jobs: jobs, EvictGrace: time.Second})
		nodes := make([]NodeState, 16)
		for n := range nodes {
			nodes[n] = NodeState{ID: n, BEAllowed: true, Slack: 0.3, MaxBECores: 24}
		}
		progress := func(j *Job) float64 { return j.CPUSec + 1 }
		for i := 0; i < 64; i++ {
			s.Tick(time.Duration(i)*time.Second, nodes, progress)
		}
		tick := 64
		if avg := testing.AllocsPerRun(100, func() {
			s.Tick(time.Duration(tick)*time.Second, nodes, progress)
			tick++
		}); avg != 0 {
			t.Fatalf("quiescent Tick allocates %.1f allocs/op, want 0", avg)
		}
	})

	// A churning fleet: each node's controller parks BE for two ticks out
	// of every few, so running jobs complete, are evicted past the grace,
	// and fail once a zero retry budget is spent; one dispatch in three is
	// refused by the executor (Abort) and one job is cancelled per tick.
	// The count is exact: all allocations over 100 ticks, not an average.
	t.Run("churning", func(t *testing.T) {
		jobs := make([]JobSpec, 4096)
		for i := range jobs {
			jobs[i] = JobSpec{
				Name: "j", Workload: "brain", Demand: 1 + i%3,
				Work: time.Duration(2+i%5) * time.Second, Retries: i % 2,
			}
		}
		s := New(Config{Policy: SlackGreedy{}, Jobs: jobs, Backoff: time.Second, EvictGrace: time.Second})
		nodes := make([]NodeState, 16)
		progress := func(j *Job) float64 { return j.CPUSec + 1 }
		var kinds [ActionFail + 1]int
		cancels, aborts, tick := 0, 0, 0
		step := func() {
			now := time.Duration(tick) * time.Second
			for n := range nodes {
				nodes[n] = NodeState{
					ID: n, BEAllowed: (tick+n)%(4+n%3) >= 2,
					Slack: 0.1 + 0.02*float64((tick+3*n)%11), MaxBECores: 8,
				}
			}
			acts := s.Tick(now, nodes, progress)
			aborted := tick%3 != 0
			for _, a := range acts {
				kinds[a.Kind]++
				if a.Kind == ActionDispatch && !aborted {
					s.Abort(a.Job, now)
					aborts++
					aborted = true
				}
			}
			if s.Cancel(1+(tick*37)%len(jobs), now, 0.5) {
				cancels++
			}
			tick++
		}
		for range 50 {
			step()
		}
		kinds, cancels, aborts = [ActionFail + 1]int{}, 0, 0
		// AllocsPerRun calls the function once to warm up and once measured.
		if got := testing.AllocsPerRun(1, func() {
			for range 100 {
				step()
			}
		}); got != 0 {
			t.Fatalf("100 churning ticks allocate %v times, want 0", got)
		}
		for k, n := range kinds {
			if n == 0 {
				t.Errorf("the measured ticks produced no %v action", ActionKind(k))
			}
		}
		if cancels == 0 || aborts == 0 || s.QueueDepth() == 0 {
			t.Errorf("the measured ticks made %d cancels and %d aborts and left %d jobs queued; want all non-zero",
				cancels, aborts, s.QueueDepth())
		}
	})
}
