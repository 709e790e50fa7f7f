package fed

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"heracles/internal/serve"
)

// connCounts tallies a member's connections as its server sees them.
type connCounts struct{ opened, closed atomic.Int64 }

func (c *connCounts) track(_ net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		c.opened.Add(1)
	case http.StateClosed, http.StateHijacked:
		c.closed.Add(1)
	}
}

// countedMember starts a member daemon whose handler is wrap(the
// daemon's) and whose server reports its connections to counts, with
// config adjusting its http.Server before it starts. The router over it
// hosts one federated instance, ticking every 100 s.
func countedMember(t *testing.T, wrap func(http.Handler) http.Handler, config func(*http.Server)) (member *httptest.Server, counts *connCounts, rt *Router, fts *httptest.Server, fid string) {
	t.Helper()
	srv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(srv.Close)
	counts = &connCounts{}
	member = httptest.NewUnstartedServer(wrap(srv.Handler()))
	member.Config.ConnState = counts.track
	if config != nil {
		config(member.Config)
	}
	member.Start()
	t.Cleanup(member.Close)
	rt, fts = startRouter(t, member.URL)
	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 0.01, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}
	return member, counts, rt, fts, info.ID
}

func plain(h http.Handler) http.Handler { return h }

// idleConns counts the connections the router has pooled to the member
// at base URL.
func idleConns(rt *Router, base string) int {
	t := &rt.proxied.members
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle[strings.TrimPrefix(base, "http://")])
}

// TestMemberTransportSkipsConnsTheMemberClosed: a member that closes
// idle connections after 20 ms has closed the pooled one by the time
// each request below comes; the router sees that before it reuses the
// connection, and every request is answered by the member.
func TestMemberTransportSkipsConnsTheMemberClosed(t *testing.T) {
	const idle = 20 * time.Millisecond
	member, counts, rt, fts, fid := countedMember(t, plain, func(s *http.Server) { s.IdleTimeout = idle })
	for i := range 5 {
		await(t, "the member closing its idle connection", func() bool { return counts.closed.Load() > int64(i) })
		doReq(t, "PUT", fts.URL+"/api/v1/instances/"+fid+"/load", map[string]float64{"load": 0.4}, 200)
	}
	if n := idleConns(rt, member.URL); n != 1 {
		t.Fatalf("%d pooled connections after one request at a time, want 1", n)
	}
}

// TestMemberTransportClosesADroppedStream: a client that drops a
// proxied SSE stream closes the member connection that carried it,
// which the router does not pool, and every goroutine the stream started
// ends.
func TestMemberTransportClosesADroppedStream(t *testing.T) {
	member, counts, rt, fts, fid := countedMember(t, plain, nil)
	// Runs first: a stream the router failed to end still lets both
	// servers shut down.
	t.Cleanup(member.CloseClientConnections)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", fts.URL+"/api/v1/instances/"+fid+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || !strings.HasPrefix(line, ": stream") {
		t.Fatalf("stream opened with %q (%v)", line, err)
	}
	if idleConns(rt, member.URL) != 0 {
		t.Fatal("the connection carrying the stream is pooled")
	}
	cancel()
	await(t, "the member connection closing", func() bool { return counts.closed.Load() == 1 })
	await(t, "the stream's goroutines ending", func() bool { return runtime.NumGoroutine() <= before })
	if n := idleConns(rt, member.URL); n != 0 {
		t.Fatalf("%d pooled connections after the stream was dropped, want 0", n)
	}
}

// TestMemberTransportRedialsARestartedMember: a member restarted on the
// same address closed the pooled connection on its way down; the next
// routed request dials the new one.
func TestMemberTransportRedialsARestartedMember(t *testing.T) {
	srv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(srv.Close)
	first := httptest.NewServer(srv.Handler())
	t.Cleanup(first.Close)
	rt, fts := startRouter(t, first.URL)
	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 0.01, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(rt, first.URL); n != 1 {
		t.Fatalf("%d pooled connections after the create, want 1", n)
	}
	first.Close()
	l, err := net.Listen("tcp", first.Listener.Addr().String())
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	second := &httptest.Server{Listener: l, Config: &http.Server{Handler: srv.Handler()}}
	second.Start()
	t.Cleanup(second.Close)
	doReq(t, "GET", fts.URL+"/api/v1/instances/"+info.ID, nil, 200)
}

// TestMemberTransportPoolsTwoPerMember: a burst of requests held at the
// member until all have arrived opens one connection each, and the
// router keeps two of them once the burst is over.
func TestMemberTransportPoolsTwoPerMember(t *testing.T) {
	const burst = 6
	var arrived sync.WaitGroup
	arrived.Add(burst)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	hold := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if path.Base(r.URL.Path) == "health" {
				arrived.Done()
				select {
				case <-all:
				case <-time.After(10 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	member, counts, rt, fts, fid := countedMember(t, hold, nil)
	var wg sync.WaitGroup
	for range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fts.URL + "/api/v1/instances/" + fid + "/health")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("health through the router = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if n := counts.opened.Load(); n < burst {
		t.Fatalf("the burst opened %d member connections, want %d", n, burst)
	}
	if n := idleConns(rt, member.URL); n != maxIdlePerMember {
		t.Fatalf("%d pooled connections after the burst, want %d", n, maxIdlePerMember)
	}
	await(t, "the member seeing the others closed", func() bool { return counts.closed.Load() == counts.opened.Load()-maxIdlePerMember })
}

// TestMemberTransportLeavesHTTPSToDefaultTransport: an https member is
// reached through http.DefaultTransport, which here trusts the member's
// certificate, and the member transport pools nothing for it.
func TestMemberTransportLeavesHTTPSToDefaultTransport(t *testing.T) {
	srv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(srv.Close)
	member := httptest.NewTLSServer(srv.Handler())
	t.Cleanup(member.Close)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.TLSClientConfig = member.Client().Transport.(*http.Transport).TLSClientConfig
	old := http.DefaultTransport
	http.DefaultTransport = tr
	t.Cleanup(func() {
		http.DefaultTransport = old
		tr.CloseIdleConnections()
	})
	rt, fts := startRouter(t, member.URL)
	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 0.01, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}
	doReq(t, "PUT", fts.URL+"/api/v1/instances/"+info.ID+"/load", map[string]float64{"load": 0.4}, 200)
	doReq(t, "GET", fts.URL+"/api/v1/instances/"+info.ID, nil, 200)
	rt.proxied.members.mu.Lock()
	defer rt.proxied.members.mu.Unlock()
	if len(rt.proxied.members.idle) != 0 {
		t.Fatalf("the member transport pooled %v for an https member", rt.proxied.members.idle)
	}
}

// TestMemberTransportPoolsReplyWithoutBody: a reply with no body — to a
// HEAD, or a 204 — hands its connection back when its head is read,
// before anyone reads or closes the body, and the next request reuses it.
func TestMemberTransportPoolsReplyWithoutBody(t *testing.T) {
	noContent := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if path.Base(r.URL.Path) == "nothing" {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	member, counts, rt, fts, fid := countedMember(t, noContent, nil)
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{"HEAD", "/api/v1/instances/" + fid, http.StatusOK},
		{"GET", "/api/v1/instances/" + fid + "/nothing", http.StatusNoContent},
	} {
		resp, err := rt.request(context.Background(), tc.method, member.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		pooled := idleConns(rt, member.URL)
		resp.Body.Close()
		if resp.StatusCode != tc.code || pooled != 1 {
			t.Errorf("%s %s = %d with %d pooled connections, want %d with 1", tc.method, tc.path, resp.StatusCode, pooled, tc.code)
		}
		doReq(t, tc.method, fts.URL+tc.path, nil, tc.code)
	}
	if n := counts.opened.Load(); n != 1 {
		t.Fatalf("the member saw %d connections, want the one", n)
	}
}

// TestMemberTransportFailsUnwritableRequest: a request the transport
// refuses to write, here for a control byte in its query, fails with
// that error at once; it does not wait for a reply the member will never
// send.
func TestMemberTransportFailsUnwritableRequest(t *testing.T) {
	member, _, rt, _, fid := countedMember(t, plain, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", member.URL+"/api/v1/instances/"+fid+"/slo", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.URL.RawQuery = "n=\x01"
	if resp, err := rt.proxied.RoundTrip(req); err == nil || ctx.Err() != nil {
		if err == nil {
			resp.Body.Close()
		}
		t.Fatalf("a request with a control byte in its URL ended with %v, want its write error at once", err)
	}
}

// TestMemberTransportDropsConnIdlePastTimeout: a pooled connection idle
// for idleTimeout is closed, not reused, when the next request comes.
func TestMemberTransportDropsConnIdlePastTimeout(t *testing.T) {
	member, counts, rt, fts, fid := countedMember(t, plain, nil)
	tr := &rt.proxied.members
	tr.mu.Lock()
	for _, c := range tr.idle[strings.TrimPrefix(member.URL, "http://")] {
		c.idleSince = c.idleSince.Add(-idleTimeout)
	}
	tr.mu.Unlock()
	doReq(t, "GET", fts.URL+"/api/v1/instances/"+fid, nil, 200)
	await(t, "the member seeing the stale connection closed", func() bool { return counts.closed.Load() == 1 })
	if n := counts.opened.Load(); n != 2 {
		t.Fatalf("the member saw %d connections, want 2", n)
	}
}

// TestMemberTransportFailsBodyThatBreaks: a small request body is read
// before anything is written, so one that fails part-way fails the
// request with its error and the member sees no request.
func TestMemberTransportFailsBodyThatBreaks(t *testing.T) {
	var loads atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if path.Base(r.URL.Path) == "load" {
				loads.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	member, _, rt, fts, fid := countedMember(t, count, nil)
	broke := errors.New("the body broke")
	req, err := http.NewRequest("PUT", member.URL+"/api/v1/instances/"+fid+"/load",
		io.MultiReader(strings.NewReader(`{"lo`), iotest.ErrReader(broke)))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(`{"load":0.4}`))
	if resp, err := rt.proxied.RoundTrip(req); !errors.Is(err, broke) {
		if err == nil {
			resp.Body.Close()
		}
		t.Fatalf("a body that broke part-way ended the request with %v, want its error", err)
	}
	doReq(t, "PUT", fts.URL+"/api/v1/instances/"+fid+"/load", map[string]float64{"load": 0.4}, 200)
	if n := loads.Load(); n != 1 {
		t.Fatalf("the member saw %d load requests, want only the whole one", n)
	}
}
