package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heracles/internal/slo"
)

// TestSortFamiliesOrdersByName checks the reference the differential
// tests compare the exposition writer against.
func TestSortFamiliesOrdersByName(t *testing.T) {
	in := "# HELP b_total b.\n# TYPE b_total counter\nb_total 1\n" +
		"# HELP a_gauge a.\n# TYPE a_gauge gauge\na_gauge{x=\"1\"} 2\n"
	got := sortFamiliesRef(in)
	want := "# HELP a_gauge a.\n# TYPE a_gauge gauge\na_gauge{x=\"1\"} 2\n" +
		"# HELP b_total b.\n# TYPE b_total counter\nb_total 1\n"
	if got != want {
		t.Fatalf("sortFamiliesRef:\n%s\nwant:\n%s", got, want)
	}
}

// familyOrder extracts the family names of an exposition in emission
// order.
func familyOrder(text string) []string {
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[1] == "HELP" {
			names = append(names, f[2])
		}
	}
	return names
}

// TestE2ESLOBudgetTraceAndStream drives one instance into a fast-burn
// page and checks every SLO surface: the slo SSE event with its alert
// transitions, GET /slo, GET /trace, the heracles_slo_* metric families
// and the sorted family order of the /metrics exposition.
func TestE2ESLOBudgetTraceAndStream(t *testing.T) {
	s := New(Config{Lab: testLab})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	body := doReq(t, client, "POST", ts.URL+"/api/v1/instances",
		jsonBody(t, InstanceSpec{LC: "websearch", Load: 0.8, Speed: 2000}), 201)
	var created Status
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID
	if created.SLO == nil || created.SLO.Objective != slo.DefaultObjective {
		t.Fatalf("created status carries no SLO snapshot: %+v", created.SLO)
	}

	// The budget engine is always attached; a fresh instance reports a
	// clean budget.
	body = doReq(t, client, "GET", ts.URL+"/api/v1/instances/"+id+"/slo", nil, 200)
	var st slo.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Objective != slo.DefaultObjective || st.Page || st.Ticket {
		t.Fatalf("fresh budget status = %+v", st)
	}
	doReq(t, client, "GET", ts.URL+"/api/v1/instances/nosuch/slo", nil, 404)

	// Subscribe before forcing violations so the page-fire transition
	// cannot slip past the stream.
	resp, err := client.Get(ts.URL + "/api/v1/instances/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse := newSSEReader(resp.Body)

	// Heavy service degradation pushes the tail far past the workload SLO,
	// making every subsequent epoch a violation; the fast-burn page needs
	// the 1h window up too, so it fires once ~519 violating epochs
	// accumulate.
	doReq(t, client, "PUT", ts.URL+"/api/v1/instances/"+id+"/degrade",
		jsonBody(t, map[string]float64{"factor": 3}), 200)

	deadline := time.Now().Add(60 * time.Second)
	var up SLOUpdate
	for {
		ev, err := sse.Next()
		if err != nil {
			t.Fatalf("stream ended before an slo event: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no slo event within the deadline")
		}
		if ev.Event != "slo" {
			continue
		}
		if err := json.Unmarshal(ev.Data, &up); err != nil {
			t.Fatalf("slo payload: %v; %s", err, ev.Data)
		}
		break
	}
	if up.Instance != id || len(up.Transitions) == 0 {
		t.Fatalf("slo event = %+v", up)
	}
	tr := up.Transitions[0]
	if tr.Alert != slo.AlertPage || !tr.Firing {
		t.Fatalf("first transition = %+v, want page fire", tr)
	}
	if !up.Status.Page || up.Status.Violations == 0 || up.Status.BudgetSpent <= 0 {
		t.Fatalf("slo event status = %+v", up.Status)
	}

	// GET /slo agrees with the stream.
	body = doReq(t, client, "GET", ts.URL+"/api/v1/instances/"+id+"/slo", nil, 200)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Page || st.Violations == 0 || st.Burn[slo.W5m] < slo.FastBurn {
		t.Fatalf("budget status after page = %+v", st)
	}

	// The trace ring holds recent epoch spans, oldest first, bounded.
	body = doReq(t, client, "GET", ts.URL+"/api/v1/instances/"+id+"/trace", nil, 200)
	var trace struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) == 0 || len(trace.Spans) > traceRingCap {
		t.Fatalf("trace returned %d spans, want 1..%d", len(trace.Spans), traceRingCap)
	}
	for i := 1; i < len(trace.Spans); i++ {
		if trace.Spans[i].Epoch != trace.Spans[i-1].Epoch+1 {
			t.Fatalf("trace spans not consecutive: %d after %d",
				trace.Spans[i].Epoch, trace.Spans[i-1].Epoch)
		}
	}
	doReq(t, client, "GET", ts.URL+"/api/v1/instances/nosuch/trace", nil, 404)

	// /metrics: SLO families present, families sorted, histograms live.
	mbody := string(doReq(t, client, "GET", ts.URL+"/metrics", nil, 200))
	for _, want := range []string{
		`heracles_slo_burn_rate{instance="` + id + `",window="5m"}`,
		`heracles_slo_alert_firing{instance="` + id + `",alert="page"} 1`,
		`heracles_slo_violations_total{instance="` + id + `"}`,
		"heracles_fleet_slo_pages_firing 1",
		"heracles_epoch_slice_duration_seconds_count",
		"heracles_mailbox_command_duration_seconds_count",
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	names := familyOrder(mbody)
	if len(names) < 40 {
		t.Fatalf("only %d families rendered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("families out of order: %q before %q", names[i-1], names[i])
		}
	}

	doReq(t, client, "DELETE", ts.URL+"/api/v1/instances/"+id, nil, 200)
}
