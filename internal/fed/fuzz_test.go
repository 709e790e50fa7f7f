package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"heracles/internal/serve"
)

// dialOnly makes http.DefaultTransport, which the router's member calls
// and the daemons' peer migrations go through, refuse every address but
// addrs until the test ends. A fuzzed body can join any URL as a member;
// the router then migrates instances onto it, and no such call may leave
// the test's own daemons.
func dialOnly(tb testing.TB, addrs ...string) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if !slices.Contains(addrs, addr) {
			return nil, fmt.Errorf("dial %s: not a daemon of this test", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	old := http.DefaultTransport
	http.DefaultTransport = tr
	tb.Cleanup(func() {
		http.DefaultTransport = old
		tr.CloseIdleConnections()
	})
}

// FuzzRouterBodies feeds any body to the router routes that change
// membership or move instances — join and leave a member, rebalance,
// migrate an instance — on one router over two daemons hosting one
// instance, which every input shares. Each answers 2xx, 4xx or 502 (a
// member call that failed), never panics, and leaves a member list that
// is sorted, free of duplicates and never empty.
func FuzzRouterBodies(f *testing.F) {
	var urls, addrs []string
	for range 2 {
		srv := serve.New(serve.Config{Lab: testLab})
		ts := httptest.NewServer(srv.Handler())
		f.Cleanup(ts.Close)
		f.Cleanup(srv.Close)
		urls = append(urls, ts.URL)
		addrs = append(addrs, ts.Listener.Addr().String())
	}
	dialOnly(f, addrs...)
	rt, err := NewRouter(Config{Members: urls})
	if err != nil {
		f.Fatalf("router: %v", err)
	}
	h := rt.Handler()
	serveReq := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	rec := serveReq("POST", "/api/v1/instances", []byte(`{"load":0.5,"max_epochs":20}`))
	var inst InstanceInfo
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &inst) != nil {
		f.Fatalf("create answered %d: %s", rec.Code, rec.Body)
	}

	routes := []struct{ method, path string }{
		{"POST", "/api/v1/members"}, {"DELETE", "/api/v1/members"},
		{"POST", "/api/v1/rebalance"}, {"POST", "/api/v1/instances/" + inst.ID + "/migrate"},
	}
	for _, u := range []string{urls[0], urls[1], urls[1] + "/", " " + urls[0], "http://127.0.0.1:1", "http://x.invalid", ""} {
		for _, route := range []int{3, 0, 1, 2} {
			key := "url"
			if route == 3 {
				key = "member"
			}
			body, _ := json.Marshal(map[string]string{key: u})
			f.Add(uint8(route), body)
		}
	}
	for _, body := range []string{`{}`, `null`, `[]`, `{"url":1}`, `{"url":"\u0000"}`, `{"url":"http://[::1"}`, `{`} {
		f.Add(uint8(0), []byte(body))
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := routes[int(route)%len(routes)]
		rec := serveReq(r.method, r.path, body)
		if c := rec.Code; c < 200 || c >= 300 && c < 400 || c >= 500 && c != http.StatusBadGateway {
			t.Fatalf("%s %s answered %d: %s", r.method, r.path, c, rec.Body)
		}
		rec = serveReq("GET", "/api/v1/members", nil)
		var list struct {
			Members []struct {
				URL string `json:"url"`
			} `json:"members"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &list) != nil {
			t.Fatalf("GET members answered %d: %s", rec.Code, rec.Body)
		}
		var members []string
		for _, m := range list.Members {
			members = append(members, m.URL)
		}
		if len(members) == 0 || !slices.IsSorted(members) || len(slices.Compact(slices.Clone(members))) != len(members) {
			t.Fatalf("after %s %s the members are %q: want a sorted, duplicate-free, non-empty list", r.method, r.path, members)
		}
	})
}
