package fed

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"heracles/internal/serve"
)

// refusedRoutes are the daemon routes the router has no row for, so it
// answers them 404. A shard's counts reach the router's /healthz and
// /metrics, and GET /api/v1/sched merges every member's scheduler.
var refusedRoutes = []string{"GET /api/v1/shards", "GET /api/v1/scheduler"}

// TestRouterCoversDaemonRoutes: each daemon route is matched by a row of
// the router's table, which proxies it to the hosting member or answers
// it itself (docs/API.md says which), or is listed as refused and
// matched by none. A route added to the daemon fails here until it is
// given a router row or listed.
func TestRouterCoversDaemonRoutes(t *testing.T) {
	rt, err := NewRouter(Config{Members: []string{"http://member-a"}})
	if err != nil {
		t.Fatal(err)
	}
	sample := strings.NewReplacer("{id}", "f1", "{workload}", "brain")
	for _, route := range serve.Routes() {
		method, pattern, _ := strings.Cut(route, " ")
		_, row := rt.mux.Handler(httptest.NewRequest(method, sample.Replace(pattern), nil))
		switch refused := slices.Contains(refusedRoutes, route); {
		case row == "" && !refused:
			t.Errorf("daemon route %s has no router row and is not listed as refused", route)
		case row != "" && refused:
			t.Errorf("daemon route %s is listed as refused but the router's %q matches it", route, row)
		}
	}
}
