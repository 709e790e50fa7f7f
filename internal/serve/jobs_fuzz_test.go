package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobSubmission posts arbitrary bytes to POST /api/v1/jobs on a
// server with no instances. Whatever arrives, the server answers 201 or
// a 4xx — never a panic (the handler runs on the fuzzing goroutine, so
// one would surface here) — and a job it accepted cancels cleanly, so
// the queue stays empty.
func FuzzJobSubmission(f *testing.F) {
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	h := srv.Handler()

	// Seeds: the work_s that overflowed the scheduler's Duration and
	// panicked the handler, and the bodies the job tests post.
	f.Add([]byte(`{"workload":"brain","work_s":1e10}`))
	for _, sub := range []JobSubmission{
		{Workload: "nope", WorkS: 10},
		{Workload: "brain"},
		{Name: "batch-1", Workload: "brain", WorkS: 20},
		{Name: "doomed", Workload: "streetview", WorkS: 1e7},
		{Name: "starved", Workload: "brain", WorkS: 5},
		{Workload: "brain", WorkS: MaxJobWorkS},
	} {
		body, err := json.Marshal(sub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusCreated:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID < 1 {
				t.Fatalf("201 without a job: %v; %s", err, rec.Body)
			}
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest("DELETE", fmt.Sprintf("/api/v1/jobs/%d", st.ID), nil))
			if del.Code != http.StatusOK {
				t.Fatalf("DELETE job %d = %d: %s", st.ID, del.Code, del.Body)
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("submit answered %d: %s", rec.Code, rec.Body)
		}
		if q := srv.jobs.Status().QueueDepth; q != 0 {
			t.Fatalf("%d jobs queued after cleanup", q)
		}
	})
}
