package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"heracles/internal/machine"
)

// FuzzCreateInstanceBody posts arbitrary bytes to POST /api/v1/instances,
// the one route that accepts a whole checkpoint from outside the process.
// Whatever arrives, the server answers 201 or a 4xx — never a panic (the
// handler runs on the fuzzing goroutine, so one would surface here) — and
// an instance it did create deletes cleanly, leaving the pool empty.
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

	long, err := DecodeCheckpointFile(corpusSeed(f, "binary-valid-v2-long"))
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

	f.Add([]byte(`{"lc":"memkeyval","bes":[{"workload":"streetview"}],"load":0.5,"speed":-1,"max_epochs":20}`))
	f.Add(pacedDoc(4))
	f.Add(pacedDoc(99))
	f.Add(valid)
	f.Add(restoreDoc(long))
	f.Add(restoreDoc(disordered))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/instances", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusCreated:
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("201 without a status: %v; %s", err, rec.Body)
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

	file, err := EncodeCheckpointFileBinary(cp)
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
