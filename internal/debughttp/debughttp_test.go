package debughttp

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestStartServesPprofAndRuntimeMetrics(t *testing.T) {
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profile list:\n%.300s", body)
	}
	body := get("/metrics")
	for _, want := range []string{
		"\ngo_goroutines ", "\ngo_gc_heap_allocs_bytes ",
		"\n# TYPE go_goroutines gauge\n", "\n# TYPE go_gc_heap_allocs_bytes counter\n",
		"\n# HELP go_gc_heap_allocs_bytes Cumulative sum of memory allocated to the heap",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
	// Families in name order, each a HELP and a TYPE line and then series
	// of its own Prometheus-legal name only.
	var prev, family string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			family = strings.Fields(help)[0]
			if family < prev {
				t.Fatalf("metrics out of order: %q after %q", family, prev)
			}
			prev = family
			continue
		}
		if strings.HasPrefix(line, "# TYPE "+family+" ") {
			continue
		}
		name := strings.Fields(line)[0]
		if name != family {
			t.Fatalf("series %q outside its family (in %q)", line, family)
		}
		for _, r := range name {
			if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_') {
				t.Fatalf("illegal metric name %q", name)
			}
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"/gc/heap/allocs:bytes":          "go_gc_heap_allocs_bytes",
		"/sched/gomaxprocs:threads":      "go_sched_gomaxprocs_threads",
		"/cpu/classes/total:cpu-seconds": "go_cpu_classes_total_cpu_seconds",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
