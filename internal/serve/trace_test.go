package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"heracles/internal/machine"
)

// tracedSteps steps inst n epochs under its mailbox and appends to ref
// each epoch's record as a ring of whole SpanRecords kept it: sim_seconds
// as the epoch's status published it (the machine clock), the phases as
// the slot holds them (wall-clock timings cannot be replayed). ref keeps
// the newest traceRingCap records in the order they were taken.
func tracedSteps(inst *Instance, ref *[]SpanRecord, n int) {
	inst.stepMu.Lock()
	defer inst.stepMu.Unlock()
	for range n {
		inst.step()
		inst.mu.Lock()
		s := inst.spans[(inst.spanHead+len(inst.spans)-1)%len(inst.spans)]
		*ref = append(*ref, SpanRecord{
			Epoch:      inst.status.Epoch,
			SimSeconds: inst.status.Last.SimSeconds,
			EventsNs:   int64(s.events),
			SchedNs:    int64(s.sched),
			NodesNs:    int64(s.nodes),
			ReduceNs:   int64(s.reduce),
			HookNs:     int64(s.hook),
			PublishNs:  int64(s.publish),
		})
		inst.mu.Unlock()
	}
	if extra := len(*ref) - traceRingCap; extra > 0 {
		*ref = append((*ref)[:0], (*ref)[extra:]...)
	}
}

// traceBody is the /trace route's body for id.
func traceBody(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/instances/"+id+"/trace", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("trace %s: status %d: %s", id, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// checkTrace holds id's /trace body byte for byte to the reference ring
// rendered by the same writer.
func checkTrace(t *testing.T, s *Server, id string, ref []SpanRecord) []byte {
	t.Helper()
	want := httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, map[string]any{"spans": ref})
	got := traceBody(t, s, id)
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatalf("trace body differs from the SpanRecord ring:\n got %.600s\nwant %.600s", got, want.Body.Bytes())
	}
	return got
}

// TestTraceMatchesSpanRecordRing pins the /trace body to a ring of whole
// SpanRecords: the ring keeps 32-byte slots and derives sim_seconds from
// the epoch, which must read what the machine clock read, in every way an
// engine comes to be bound.
func TestTraceMatchesSpanRecordRing(t *testing.T) {
	s := New(Config{Lab: testLab, Shards: 2, restartBackoff: time.Hour, checkpointEpochs: 30})
	defer s.Close()
	// Due once a simulated year has passed: only the test steps these.
	create := func(spec InstanceSpec) *Instance {
		t.Helper()
		spec.Load, spec.Speed = 0.4, 1e-8
		inst, err := s.CreateInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	t.Run("wrapped", func(t *testing.T) {
		inst := create(InstanceSpec{})
		var ref []SpanRecord
		tracedSteps(inst, &ref, 2*traceRingCap+44)
		body := checkTrace(t, s, inst.ID(), ref)
		// Nothing hooks or watches it: both spans are zero and omitted.
		if bytes.Contains(body, []byte("hook_ns")) || bytes.Contains(body, []byte("publish_ns")) {
			t.Fatalf("zero hook/publish spans printed: %.300s", body)
		}
	})

	t.Run("hooked", func(t *testing.T) {
		inst := create(InstanceSpec{EpochHook: func(*machine.Machine, machine.Telemetry) { time.Sleep(time.Microsecond) }})
		var ref []SpanRecord
		tracedSteps(inst, &ref, 20)
		if body := checkTrace(t, s, inst.ID(), ref); !bytes.Contains(body, []byte("hook_ns")) {
			t.Fatalf("hook span missing: %.300s", body)
		}
	})

	t.Run("crash restart", func(t *testing.T) {
		inst := create(InstanceSpec{})
		var ref []SpanRecord
		tracedSteps(inst, &ref, 100) // the restart checkpoint is epoch 90's
		inst.InjectFault(FaultRequest{Kind: FaultDriverPanic})
		inst.runSlice() // the panic, booked as a crash; the restart is an hour out
		inst.runSlice() // the restart slice
		if st := inst.Status(); st.Restarts != 1 || st.Epoch != 90 {
			t.Fatalf("after the restart: restarts %d, epoch %d; want 1, 90", st.Restarts, st.Epoch)
		}
		tracedSteps(inst, &ref, 60) // epochs 91..100 again, then on
		checkTrace(t, s, inst.ID(), ref)
	})

	t.Run("restore offset clock", func(t *testing.T) {
		origin := create(InstanceSpec{})
		tracedSteps(origin, new([]SpanRecord), 50)
		cp, err := origin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// A clock off the epoch's line by a fraction of an epoch, as a
		// document from elsewhere may carry it.
		const off = 123_456_789 * time.Nanosecond
		cp.Engine.Now += off
		cp.Engine.Machines[0].Now += off
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		body := doReq(t, srv.Client(), "POST", srv.URL+"/api/v1/instances",
			jsonBody(t, InstanceSpec{Restore: cp, Speed: 1e-8}), http.StatusCreated)
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		inst, ok := s.reg.Get(st.ID)
		if !ok {
			t.Fatalf("restored instance %s not listed", st.ID)
		}
		var ref []SpanRecord
		tracedSteps(inst, &ref, 30)
		if want := (51*time.Second + off).Seconds(); ref[0].Epoch != 51 || ref[0].SimSeconds != want {
			t.Fatalf("first restored span = epoch %d at %v s, want 51 at %v s", ref[0].Epoch, ref[0].SimSeconds, want)
		}
		checkTrace(t, s, inst.ID(), ref)
	})

	t.Run("shard migration", func(t *testing.T) {
		origin := create(InstanceSpec{})
		tracedSteps(origin, new([]SpanRecord), 40)
		res, err := s.MigrateToShard(origin.ID(), 1-origin.Status().Shard)
		if err != nil {
			t.Fatal(err)
		}
		inst, ok := s.reg.Get(res.To)
		if !ok {
			t.Fatalf("migrated instance %s not listed", res.To)
		}
		if got := inst.TraceSpans(); len(got) != 0 {
			t.Fatalf("a migrated instance starts with %d spans, want none", len(got))
		}
		var ref []SpanRecord
		tracedSteps(inst, &ref, 30)
		checkTrace(t, s, inst.ID(), ref)
	})
}

// TestSpanSlotSaturates holds the slot to 32 bytes and a phase of 2^32 ns
// or more to the largest value it can print.
func TestSpanSlotSaturates(t *testing.T) {
	if got := unsafe.Sizeof(spanSlot{}); got != 32 {
		t.Fatalf("spanSlot is %d bytes, want 32", got)
	}
	for ns, want := range map[int64]uint32{
		-1: 0, 0: 0, math.MaxUint32: math.MaxUint32,
		1 << 32: math.MaxUint32, 5e9: math.MaxUint32, math.MaxInt64: math.MaxUint32,
	} {
		if got := spanNs(ns); got != want {
			t.Errorf("spanNs(%d) = %d, want %d", ns, got, want)
		}
	}
	var inst Instance
	inst.recordSpan(spanSlot{epoch: 7, nodes: spanNs(1 << 32), reduce: spanNs(1<<32 - 1)})
	got := inst.TraceSpans()
	if len(got) != 1 || got[0].NodesNs != math.MaxUint32 || got[0].ReduceNs != 1<<32-1 {
		t.Fatalf("trace = %+v, want nodes_ns %d and reduce_ns %d", got, uint32(math.MaxUint32), 1<<32-1)
	}
}

// TestSteppedInstanceRetainedHeap holds what a stepped instance keeps:
// 1 000 instances stepped 150 epochs each (past a restart-checkpoint
// refresh, with a full span ring) retain at most 17 KB each.
// TestHundredThousandInstancesOneProcess covers parked instances, which
// never step and so never make a ring.
func TestSteppedInstanceRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	n := 1000
	if raceEnabled {
		n = 100
	}
	s := New(Config{Lab: testLab, MaxInstances: n + 1})
	defer s.Close()
	// One instance first, so that what every instance shares (workload
	// calibrations, histograms, the scrape cache) is not counted.
	stepped := func(load float64) {
		inst, err := s.CreateInstance(InstanceSpec{Load: load, Speed: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		inst.stepMu.Lock()
		for range 150 {
			inst.step()
		}
		inst.stepMu.Unlock()
	}
	stepped(0.4)

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	for k := range n {
		stepped(0.2 + 0.5*float64(k)/float64(n))
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	per := int64(after.HeapAlloc-base.HeapAlloc) / int64(n)
	t.Logf("%d instances stepped 150 epochs: %d bytes retained each", n, per)
	if per > 17<<10 {
		t.Fatalf("a stepped instance retains %d bytes, want <= %d", per, 17<<10)
	}
	if got := s.reg.Len(); got != n+1 {
		t.Fatalf("registry holds %d instances, want %d", got, n+1)
	}
}
