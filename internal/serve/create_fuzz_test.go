package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"heracles/internal/engine"
	"heracles/internal/machine"
	"heracles/internal/sched"
)

// FuzzCreateInstanceBody posts arbitrary bytes to POST /api/v1/instances,
// the one route that accepts a whole checkpoint from outside the process,
// under an arbitrary ?id= (none when it is empty). Whatever arrives, the
// server answers 201 or a 4xx — never a panic (the handler runs on the
// fuzzing goroutine, so one would surface here). An id of the daemon's
// own i<digits> form, or one that is not path-safe, is a 400. An accepted
// id is exactly the one asked for: GET finds the instance under it and a
// second create of it is a 409. An instance the server did create
// deletes cleanly, leaving the pool empty.
func FuzzCreateInstanceBody(f *testing.F) {
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	h := srv.Handler()

	// Seeds: a plain spec, a restore document from a live instance, one in
	// the 600-sample shape older builds wrote, one whose window runs
	// backwards, one that hands a tick schedule over, one whose schedule no
	// origin could have written, and one cut short.
	inst, err := srv.CreateInstance(InstanceSpec{BEs: []BEAttachment{{Workload: "brain"}}, Load: 0.5, Speed: SpeedMax, MaxEpochs: 40})
	if err != nil {
		f.Fatalf("create: %v", err)
	}
	awaitInstance(f, inst, "seed instance done", func() bool { return inst.Status().State == StateDone })
	cp, err := inst.Checkpoint()
	if err != nil {
		f.Fatalf("checkpoint: %v", err)
	}
	if _, _, ok := srv.reg.Remove(inst.ID()); !ok {
		f.Fatal("seed instance vanished")
	}
	inst.Stop()
	restoreDoc := func(cp *InstanceCheckpoint) []byte {
		doc, err := json.Marshal(InstanceSpec{Restore: cp, Speed: SpeedMax, MaxEpochs: int(cp.Engine.Epoch) + 20})
		if err != nil {
			f.Fatalf("marshal restore document: %v", err)
		}
		return doc
	}
	valid := restoreDoc(cp)

	long, err := DecodeCheckpointFile(corpusSeed(f, "binary-valid-long"))
	if err != nil {
		f.Fatalf("600-sample seed: %v", err)
	}

	w := append([]machine.TailSample(nil), cp.Engine.Machines[0].Window...)
	w[3], w[4] = w[4], w[3]
	disordered := withWindow(cp, w)

	pacedDoc := func(batch int) []byte {
		doc, err := json.Marshal(InstanceSpec{Restore: withSchedule(cp, batch), Speed: 50, MaxEpochs: int(cp.Engine.Epoch) + 20})
		if err != nil {
			f.Fatalf("marshal restore document: %v", err)
		}
		return doc
	}

	plain := []byte(`{"lc":"memkeyval","bes":[{"workload":"streetview"}],"load":0.5,"speed":-1,"max_epochs":20}`)
	for _, body := range [][]byte{plain, pacedDoc(4), pacedDoc(99), valid, restoreDoc(long), restoreDoc(disordered), valid[:len(valid)/2], []byte(`{}`)} {
		f.Add(body, "")
	}
	// Names: accepted ones, the daemon's own form, and ones that are not
	// path-safe or run past 64 bytes.
	for _, id := range []string{"web-1", "f12", "i", "A.b_c", "i7", "i007", "../x", "a/b", "x y", "-x", ".", "caf\u00e9", strings.Repeat("x", 64), strings.Repeat("x", 65)} {
		f.Add(plain, id)
	}
	f.Add(valid, "moved-1")

	f.Fuzz(func(t *testing.T, body []byte, id string) {
		target := "/api/v1/instances"
		if id != "" {
			target += "?id=" + url.QueryEscape(id)
		}
		create := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", target, bytes.NewReader(body)))
			return rec
		}
		rec := create()
		minted := len(id) > 1 && id[0] == 'i' && strings.Trim(id[1:], "0123456789") == ""
		unsafe := url.PathEscape(id) != id || id == "." || id == ".."
		if id != "" && (minted || unsafe) && rec.Code != http.StatusBadRequest {
			t.Fatalf("create under id %q answered %d, want 400: %s", id, rec.Code, rec.Body)
		}
		switch {
		case rec.Code == http.StatusCreated:
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("201 without a status: %v; %s", err, rec.Body)
			}
			if id != "" {
				if st.ID != id {
					t.Fatalf("asked for id %q, created %q", id, st.ID)
				}
				get := httptest.NewRecorder()
				h.ServeHTTP(get, httptest.NewRequest("GET", "/api/v1/instances/"+id, nil))
				if get.Code != http.StatusOK {
					t.Fatalf("GET %s = %d: %s", id, get.Code, get.Body)
				}
				if again := create(); again.Code != http.StatusConflict {
					t.Fatalf("second create of %q answered %d, want 409: %s", id, again.Code, again.Body)
				}
			}
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest("DELETE", "/api/v1/instances/"+st.ID, nil))
			if del.Code != http.StatusOK {
				t.Fatalf("DELETE %s = %d: %s", st.ID, del.Code, del.Body)
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
		}
		if n := srv.reg.Len(); n != 0 {
			t.Fatalf("%d instances left in the pool after cleanup", n)
		}
	})
}

// TestCreateRefusesDisorderedWindow: a restore document whose poll window
// does not run forward in time is a 400 naming the sample, over REST and
// for a caller that decoded a checkpoint file, and creates nothing.
func TestCreateRefusesDisorderedWindow(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: SpeedMax, MaxEpochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "run complete", func() bool { return inst.Status().State == StateDone })
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	w := cp.Engine.Machines[0].Window
	w[9].Time = w[8].Time

	body := doReq(t, ts.Client(), "POST", ts.URL+"/api/v1/instances", jsonBody(t, InstanceSpec{Restore: cp}), 400)
	if !strings.Contains(string(body), "window[9]") {
		t.Fatalf("400 body %s does not name the offending sample", body)
	}

	file, err := AppendCheckpointFileBinary(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpointFile(file)
	if err != nil {
		t.Fatalf("the envelope is intact, only its window is wrong: %v", err)
	}
	if _, err := s.CreateInstance(InstanceSpec{Restore: decoded}); err == nil || !strings.Contains(err.Error(), "window[9]") {
		t.Fatalf("restore from the decoded file: %v, want an error naming window[9]", err)
	}
	if n := s.Registry().Len(); n != 1 {
		t.Fatalf("pool holds %d instances, want only the original", n)
	}
}

// TestCreateRefusesEngineScheduler: a live engine runs no job scheduler
// of its own (an instance's jobs are the server's), so a restore whose
// engine carries one, or bindings for one, is a 400 naming the field and
// creates nothing.
func TestCreateRefusesEngineScheduler(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: SpeedMax, MaxEpochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "run complete", func() bool { return inst.Status().State == StateDone })
	for _, tc := range []struct {
		field string
		set   func(*engine.Checkpoint)
	}{
		{"sched", func(e *engine.Checkpoint) { e.Sched = &sched.State{Policy: sched.SlackGreedy{}.Name()} }},
		{"sched_bindings", func(e *engine.Checkpoint) { e.SchedBindings = []engine.SchedBinding{{Job: 1}} }},
	} {
		cp, err := inst.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		tc.set(cp.Engine)
		body := doReq(t, ts.Client(), "POST", ts.URL+"/api/v1/instances", jsonBody(t, InstanceSpec{Restore: cp}), 400)
		if !strings.Contains(string(body), "carries "+tc.field+":") {
			t.Fatalf("400 body %s does not name %s", body, tc.field)
		}
	}
	if n := s.Registry().Len(); n != 1 {
		t.Fatalf("pool holds %d instances, want only the original", n)
	}
}
