package fed

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"heracles/internal/expo"
	"heracles/internal/serve"
)

// updateGolden regenerates testdata/fed_metrics.golden instead of
// comparing:
//
//	go test ./internal/fed -run TestFedMetricsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// sortFamiliesRef is how /metrics ordered its families before
// internal/expo, kept as the reference the handler is compared with: it
// re-parses a rendered exposition on "# HELP " and sorts the whole
// family chunks as strings.
func sortFamiliesRef(text string) string {
	chunks := strings.Split(text, "# HELP ")
	fams := make([]string, 0, len(chunks))
	for _, c := range chunks {
		if c != "" {
			fams = append(fams, "# HELP "+c)
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, "")
}

// goldenSnapshot is a fixed federation: a member whose name needs each
// label escape, a member that is down, and members with one and two
// shards.
func goldenSnapshot() Snapshot {
	return Snapshot{
		Members: []MemberSnapshot{
			{
				Member: "http://a\"b\\c\n:8080", Up: true, Instances: 12, Migrations: 3,
				Shards: []serve.ShardStatus{
					{Shard: 0, Instances: 7},
					{Shard: 1, Instances: 5},
				},
			},
			{Member: "http://down:8080", Up: false},
			{
				Member: "http://c:8080", Up: true, Instances: 1 << 20,
				Shards: []serve.ShardStatus{{Shard: 0, Instances: 1 << 20}},
			},
		},
		Migrations: 9,
		Proxied:    1 << 41,
	}
}

func goldenProxyHist() *expo.Histogram {
	h := new(expo.Histogram)
	for _, d := range []time.Duration{
		0, 90 * time.Microsecond, 128 * time.Microsecond, 129 * time.Microsecond,
		3 * time.Millisecond, 120 * time.Second,
	} {
		h.Observe(d)
	}
	return h
}

// TestFedMetricsGolden pins the federation exposition byte for byte on a
// fixed snapshot and proxy histogram, then on the empty federation. The
// file was generated by the fmt.Fprintf renderer internal/expo replaced.
func TestFedMetricsGolden(t *testing.T) {
	got := append(renderMetrics(goldenSnapshot(), goldenProxyHist()).Bytes(),
		renderMetrics(Snapshot{}, new(expo.Histogram)).Bytes()...)

	path := filepath.Join("testdata", "fed_metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition differs from %s (rerun with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

// TestFedMetricNamesMatchRenderer checks that MetricNames — read off a
// rendering of the empty federation, and what the docs check holds
// docs/API.md to — is the family set a populated scrape emits.
func TestFedMetricNamesMatchRenderer(t *testing.T) {
	rendered := renderMetrics(goldenSnapshot(), goldenProxyHist()).Names()
	declared := MetricNames()
	sort.Strings(rendered)
	sort.Strings(declared)
	if got, want := strings.Join(declared, " "), strings.Join(rendered, " "); got != want || len(declared) < 8 {
		t.Fatalf("MetricNames = %s\nthe renderer emits %s", got, want)
	}
}

// unproxied drops the two families every poll of the members moves —
// the proxied-request counter and the proxy-latency histogram — so two
// renderings of the same fleet compare equal. TestFedMetricsGolden pins
// their format.
func unproxied(text string) string {
	var keep []string
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, "heracles_fed_proxied_requests_total ") &&
			!strings.HasPrefix(line, "heracles_fed_proxy_duration_seconds_") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// TestFedMetricsHandlerMatchesReference is the differential test for the
// router's /metrics handler: over a real connection, with one member
// down, the body must be what the old pipeline produced — the blocks
// rendered in the old sequence, re-parsed and sorted by sortFamiliesRef —
// and must carry its length.
func TestFedMetricsHandlerMatchesReference(t *testing.T) {
	members, rt, fts := newFleet(t, 3, 16)
	for i := 0; i < 4; i++ {
		doReq(t, "POST", fts.URL+"/api/v1/instances",
			serve.InstanceSpec{Load: 0.3, Speed: serve.SpeedMax, MaxEpochs: 2}, http.StatusCreated)
	}
	// The body is compared with a second rendering taken a moment later:
	// let the two-epoch runs finish first, or a shard's queue depth can
	// move between the two.
	await(t, "instances to park", func() bool {
		for _, m := range members {
			for _, st := range m.srv.Registry().Statuses() {
				if st.State != serve.StateDone {
					return false
				}
			}
		}
		return true
	})
	members[1].ts.Close()

	resp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", got, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("response is %v-encoded, want identity", resp.TransferEncoding)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}

	if body != sortFamiliesRef(body) {
		t.Fatalf("/metrics body is not in the reference's family order:\n%s", body)
	}
	old := string(renderMetrics(rt.snapshot(), &proxyHist).Bytes())
	if got, want := unproxied(body), unproxied(sortFamiliesRef(old)); got != want {
		t.Fatalf("/metrics differs from the blocks in the old order, sorted by the reference\ngot:\n%s\nwant:\n%s", got, want)
	}
	down := `heracles_fed_member_up{member="` + members[1].ts.URL + `"} 0`
	if !strings.Contains(body, down) {
		t.Fatalf("/metrics lacks %q:\n%s", down, body)
	}

	names := MetricNames()
	for _, name := range names {
		if n := strings.Count(body, "# HELP "+name+" "); n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", name, n)
		}
		if n := strings.Count(body, "# TYPE "+name+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", name, n)
		}
	}
	if n := strings.Count(body, "# HELP "); n != len(names) {
		t.Errorf("/metrics carries %d families, MetricNames lists %d", n, len(names))
	}
}
