package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNamedInstanceKeepsItsName: a create may name its instance. The
// name is checked and unique, and it survives a shard move and a peer
// move, where a peer that already hosts the name refuses the restore and
// the origin keeps running. Minted ids migrate as they always have.
func TestNamedInstanceKeepsItsName(t *testing.T) {
	s1 := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s1.Close)
	s2 := New(Config{Lab: testLab})
	t.Cleanup(s2.Close)
	ts1 := httptest.NewServer(s1.Handler())
	t.Cleanup(ts1.Close)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	client := ts1.Client()
	parked := jsonBody(t, InstanceSpec{Speed: 1e-6})
	create := func(base, query string, want int) Status {
		t.Helper()
		parked.Seek(0, 0)
		var st Status
		if body := doReq(t, client, "POST", base+"/api/v1/instances"+query, parked, want); want == http.StatusCreated {
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	if st := create(ts1.URL, "?id=web-1", 201); st.ID != "web-1" {
		t.Fatalf("named create answered id %q", st.ID)
	}
	create(ts1.URL, "?id=web-1", 409)
	for _, bad := range []string{"", "i7", "i007", "..%2Fx", "a%2Fb", "-x", "x%20y", strings.Repeat("x", 65)} {
		create(ts1.URL, "?id="+bad, 400)
	}
	if st := create(ts1.URL, "", 201); st.ID != "i1" {
		t.Fatalf("unnamed create after a named one minted %q, want i1", st.ID)
	}

	named, _ := s1.Registry().Get("web-1")
	res, err := s1.MigrateToShard("web-1", 1-named.Status().Shard)
	if err != nil || res.To != "web-1" {
		t.Fatalf("shard move of web-1 = %+v, %v; want it kept", res, err)
	}
	if res, err := s1.MigrateToShard("i1", 1-res.FromShard); err != nil || res.To != "i2" {
		t.Fatalf("shard move of i1 = %+v, %v; want the next minted id, i2", res, err)
	}

	// The peer hosts a web-1 of its own: the move is refused and the
	// origin serves on.
	create(ts2.URL, "?id=web-1", 201)
	var pe *peerError
	if _, err := s1.MigrateToPeer("web-1", ts2.URL); !errors.As(err, &pe) || !strings.Contains(err.Error(), "409") {
		t.Fatalf("move onto a peer holding the name: %v, want its 409", err)
	}
	if _, ok := s1.Registry().Get("web-1"); !ok {
		t.Fatal("web-1 was not reinstated after the refused move")
	}
	doReq(t, client, "DELETE", ts2.URL+"/api/v1/instances/web-1", nil, 200)
	if res, err := s1.MigrateToPeer("web-1", ts2.URL); err != nil || res.To != "web-1" {
		t.Fatalf("move onto the peer = %+v, %v; want it kept", res, err)
	}
	if _, ok := s2.Registry().Get("web-1"); !ok {
		t.Fatal("web-1 is not on the peer")
	}
	// The name left with the instance: the origin may give it out again.
	create(ts1.URL, "?id=web-1", 201)
}

// TestMigratingNameIsHeld: while an instance is away on a migration its
// name stays reserved, so a create cannot take it and a failed move can
// always reinstate the origin.
func TestMigratingNameIsHeld(t *testing.T) {
	s := New(Config{Lab: testLab})
	t.Cleanup(s.Close)
	inst, err := s.create(InstanceSpec{Speed: 1e-6}, "web-1", -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.reg.remove("web-1", true); !ok {
		t.Fatal("web-1 not registered")
	}
	if _, err := s.reg.Reserve(0, "web-1"); !errors.Is(err, errNameTaken) {
		t.Fatalf("reserving a migrating name: %v, want errNameTaken", err)
	}
	s.reg.readd(inst)
	if got, ok := s.reg.Get("web-1"); !ok || got != inst {
		t.Fatal("web-1 not reinstated")
	}
	if _, err := s.reg.Reserve(0, "web-1"); !errors.Is(err, errNameTaken) {
		t.Fatalf("reserving a live name: %v, want errNameTaken", err)
	}
}

// TestConcurrentCreatesOfOneName: of many creates racing for one name,
// exactly one wins and every other answers 409.
func TestConcurrentCreatesOfOneName(t *testing.T) {
	s := New(Config{Lab: testLab})
	t.Cleanup(s.Close)
	h := s.Handler()
	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/instances?id=dup", strings.NewReader(`{"speed":1e-6}`)))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	won := 0
	for _, c := range codes {
		switch c {
		case http.StatusCreated:
			won++
		case http.StatusConflict:
		default:
			t.Fatalf("a racing create answered %d", c)
		}
	}
	if won != 1 || s.Registry().Len() != 1 {
		t.Fatalf("%d of %d racing creates won and %d instances live, want 1 and 1", won, n, s.Registry().Len())
	}
}

// TestJobsRunOnNamedInstances: the job scheduler places work on a named
// instance as on a minted one — a federated member hosts nothing else.
func TestJobsRunOnNamedInstances(t *testing.T) {
	s := New(Config{Lab: testLab, schedInterval: 10 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()
	doReq(t, client, "POST", ts.URL+"/api/v1/instances?id=f1", jsonBody(t, InstanceSpec{Load: 0.3, Speed: 500}), 201)
	var job JobStatus
	if err := json.Unmarshal(doReq(t, client, "POST", ts.URL+"/api/v1/jobs", jsonBody(t, JobSubmission{Workload: "brain", WorkS: 1e9}), 201), &job); err != nil {
		t.Fatal(err)
	}
	waitForJobState(t, s, client, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID), "dispatch onto f1", func(st JobStatus) bool {
		return st.State == "running" && st.Instance == "f1"
	})
}
