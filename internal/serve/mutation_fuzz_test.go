package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzInstanceMutation sends arbitrary bytes to the routes that change a
// live instance: PUT load, slo and degrade, POST bes and faults. Whatever
// arrives, the server answers 2xx or 4xx — never a panic (the handler runs
// on the fuzzing goroutine, so one would surface here) — and the instance
// keeps stepping afterwards. Load, degradation and the BE tasks are what
// the machine's epoch record keys on, so ±0, subnormals and extreme
// factors reach it through here.
func FuzzInstanceMutation(f *testing.F) {
	srv := New(Config{Lab: testLab, restartBackoff: time.Millisecond})
	defer srv.Close()
	h := srv.Handler()

	routes := []struct{ method, path string }{
		{"PUT", "load"}, {"PUT", "slo"}, {"PUT", "degrade"}, {"POST", "bes"}, {"POST", "faults"},
	}
	for route, bodies := range [][]string{
		{`{"load":0.5}`, `{"load":-0}`, `{"load":5e-324}`, `{"load":1}`, `{"load":2}`},
		{`{"scale":0.7}`, `{"scale":5e-324}`, `{"scale":1e308}`, `{"scale":0}`},
		{`{"factor":1.5}`, `{"factor":-0}`, `{"factor":1e308}`, `{"factor":-1}`},
		{`{"workload":"brain"}`, `{"workload":"iperf","placement":"ht-sibling"}`,
			`{"workload":"streetview","placement":"os-shared"}`, `{"workload":"nope"}`},
		{`{"kind":"slow-machine","factor":1e308,"duration_s":1e300}`, `{"kind":"leaf-crash","duration_s":2}`,
			`{"kind":"be-kill","workload":"brain"}`, `{"kind":"telemetry-blackout","duration_s":5e-324}`,
			`{"kind":"actuation-fail"}`, `{"kind":"driver-panic"}`},
	} {
		for _, body := range bodies {
			f.Add(uint8(route), []byte(body))
		}
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		inst, err := srv.CreateInstance(InstanceSpec{BEs: []BEAttachment{{Workload: "brain"}}, Load: 0.5, Speed: 2000})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		defer func() {
			if _, _, ok := srv.reg.Remove(inst.ID()); ok {
				inst.Stop()
			}
		}()
		rt := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rt.method, "/api/v1/instances/"+inst.ID()+"/"+rt.path, bytes.NewReader(body)))
		if c := rec.Code; c < 200 || c >= 300 && c < 400 || c >= 500 {
			t.Fatalf("%s %s answered %d: %s", rt.method, rt.path, c, rec.Body)
		}
		epoch := inst.Status().Epoch
		awaitInstance(t, inst, "two more epochs", func() bool { return inst.Status().Epoch >= epoch+2 })
	})
}
