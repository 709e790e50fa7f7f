package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestResumeAtClamp is the hand-over's one piece of arithmetic, against a
// clock that does not move: the origin's due instant, held inside
// [now, now + batch×interval].
func TestResumeAtClamp(t *testing.T) {
	now := time.Now()
	const tick = 50 * time.Millisecond
	for _, tc := range []struct {
		name     string
		due      time.Duration // origin's due instant, relative to now
		batch    int
		interval time.Duration
		want     time.Duration
	}{
		{"held for an hour", -time.Hour, 1, tick, 0},
		{"due right now", 0, 1, tick, 0},
		{"inside the slice", 30 * time.Millisecond, 1, tick, 30 * time.Millisecond},
		{"exactly batch×interval out", 4 * tick, 4, tick, 4 * tick},
		{"a nanosecond beyond", 4*tick + 1, 4, tick, 4 * tick},
		{"peer clock an hour ahead", time.Hour, 8, tick, 8 * tick},
		// A batch of 4 taken at speed 1 and restored at speed 50: the slice
		// spans 80 ms on the new clock however far out the origin had it.
		{"speed override shortens the interval", 3 * time.Second, 4, 20 * time.Millisecond, 80 * time.Millisecond},
	} {
		got := resumeAt(now, now.Add(tc.due).UnixNano(), tc.batch, tc.interval)
		if d := got.Sub(now); d != tc.want {
			t.Errorf("%s: first slice %v after now, want %v", tc.name, d, tc.want)
		}
		if got == got.Round(0) {
			t.Errorf("%s: %v has no monotonic reading", tc.name, got)
		}
	}
}

// keepsPace moves a 20-epochs-per-second instance four times per tick
// interval for twenty intervals — move returns the copy that now holds the
// state — and wants the state to have kept ticking throughout. A restore
// that re-arms the clock one interval out never steps at all under this.
func keepsPace(t *testing.T, first *Instance, move func(cur *Instance) *Instance) {
	t.Helper()
	const speed = 20
	interval := time.Second / speed
	if got := first.Status().Speed; got != speed {
		t.Fatalf("instance runs at speed %v, the helper assumes %v", got, speed)
	}
	cur := first
	for start := time.Now(); time.Since(start) < 20*interval; time.Sleep(interval / 4) {
		cur = move(cur)
	}
	if got := cur.Status().Epoch; got < 15 {
		t.Fatalf("instance moved every %v reached epoch %d in 20 intervals of %v, want >= 15", interval/4, got, interval)
	}
}

// TestRestoreKeepsPacingClock is the REST twin of
// TestMigrateKeepsPacingClock: checkpoint, create with {"speed", "restore"}
// and delete the origin, all through Handler().
func TestRestoreKeepsPacingClock(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	call := func(method, path string, body string, want int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
		return rec.Body.Bytes()
	}
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.3, Speed: 20})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	keepsPace(t, inst, func(cur *Instance) *Instance {
		doc := call("POST", "/api/v1/instances/"+cur.ID()+"/checkpoint", "", http.StatusOK)
		var st Status
		if err := json.Unmarshal(call("POST", "/api/v1/instances", `{"speed":20,"restore":`+string(doc)+`}`, http.StatusCreated), &st); err != nil {
			t.Fatal(err)
		}
		call("DELETE", "/api/v1/instances/"+cur.ID(), "", http.StatusOK)
		next, ok := s.Registry().Get(st.ID)
		if !ok {
			t.Fatalf("restored instance %s not in registry", st.ID)
		}
		return next
	})
}

// TestPeerMigrationKeepsPacingClock bounces the instance between two
// daemons over real connections.
func TestPeerMigrationKeepsPacingClock(t *testing.T) {
	servers := [2]*Server{testServer(t), testServer(t)}
	var urls [2]string
	for k, s := range servers {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls[k] = ts.URL
	}
	inst, err := servers[0].CreateInstance(InstanceSpec{Load: 0.3, Speed: 20})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	at := 0
	keepsPace(t, inst, func(cur *Instance) *Instance {
		res, err := servers[at].MigrateToPeer(cur.ID(), urls[1-at])
		if err != nil {
			t.Fatalf("migrate %s to daemon %d: %v", cur.ID(), 1-at, err)
		}
		at = 1 - at
		next, ok := servers[at].Registry().Get(res.To)
		if !ok {
			t.Fatalf("restored instance %s not on daemon %d", res.To, at)
		}
		return next
	})
}

// TestRestoreRefusesBadHandOver: a tick schedule no origin could have
// written is a 400 naming the field and creates nothing; a stale or
// skewed one is not an error, it is clamped.
func TestRestoreRefusesBadHandOver(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const interval = 100 * time.Second
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !cp.paced() {
		t.Fatalf("checkpoint of a paced, running instance carries no schedule: %+v", cp)
	}
	with := func(edit func(*InstanceCheckpoint)) *InstanceCheckpoint {
		out := *cp
		edit(&out)
		return &out
	}

	for _, tc := range []struct {
		name  string
		spec  InstanceSpec
		names string
	}{
		{"batch above stretchMax", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.Batch = 99 })}, "batch 99"},
		{"batch missing", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.Batch = 0 })}, "batch 0"},
		{"stretch negative", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.Stretch = -1 })}, "stretch -1"},
		{"stretch above stretchMax", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.Stretch = 9 })}, "stretch 9"},
		{"negative due time", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.NextDueUnixNano = -5 })}, "next_due_unix_ns -5"},
		{"batch without a due time", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.NextDueUnixNano = 0 })}, "next_due_unix_ns 0"},
		{"free-running override", InstanceSpec{Restore: cp, Speed: SpeedMax}, "next_due_unix_ns"},
		{"free-running checkpoint", InstanceSpec{Restore: with(func(c *InstanceCheckpoint) { c.Speed = SpeedMax })}, "next_due_unix_ns"},
	} {
		body := doReq(t, ts.Client(), "POST", ts.URL+"/api/v1/instances", jsonBody(t, tc.spec), 400)
		if !strings.Contains(string(body), tc.names) {
			t.Errorf("%s: 400 body %s does not name %q", tc.name, body, tc.names)
		}
	}
	if n := s.Registry().Len(); n != 1 {
		t.Fatalf("pool holds %d instances after the refusals, want only the original", n)
	}

	restore := func(due time.Duration) *Instance {
		t.Helper()
		doc := with(func(c *InstanceCheckpoint) { c.NextDueUnixNano = time.Now().Add(due).UnixNano() })
		var st Status
		if err := json.Unmarshal(doReq(t, ts.Client(), "POST", ts.URL+"/api/v1/instances", jsonBody(t, InstanceSpec{Restore: doc}), 201), &st); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Registry().Get(st.ID)
		if !ok {
			t.Fatalf("restored instance %s not in registry", st.ID)
		}
		return got
	}
	// A checkpoint held for an hour ticks now (the interval is 100 s: a
	// fresh cadence would run into the await's deadline).
	held := restore(-time.Hour)
	awaitInstance(t, held, "first slice of a stale hand-over", func() bool { return held.Status().Epoch > cp.Engine.Epoch })
	// One from a daemon whose clock runs an hour ahead waits one slice.
	if wait := time.Until(readCadence(restore(time.Hour)).nextAt); wait > time.Duration(cp.Batch)*interval {
		t.Errorf("hand-over due in an hour: first slice in %v, want at most %v", wait, time.Duration(cp.Batch)*interval)
	}
}
