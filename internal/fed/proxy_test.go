package fed

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"heracles/internal/serve"
)

// recordingFleet is one member daemon behind the router, over real
// connections, that notes how each proxied request was framed when it
// arrived.
type recordingFleet struct {
	url string // the router's base URL
	fid string // one federated instance, ticking every 100 s

	mu   sync.Mutex
	seen map[string]framing // by "METHOD last-path-element"
}

type framing struct {
	length   int64
	encoding []string
}

func newRecordingFleet(t *testing.T) *recordingFleet {
	t.Helper()
	f := &recordingFleet{seen: map[string]framing{}}
	srv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.seen[r.Method+" "+path.Base(r.URL.Path)] = framing{r.ContentLength, r.TransferEncoding}
		f.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(member.Close)
	rt, err := NewRouter(Config{Members: []string{member.URL}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	fts := httptest.NewServer(rt.Handler())
	t.Cleanup(fts.Close)
	f.url = fts.URL

	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", f.url+"/api/v1/instances", serve.InstanceSpec{Speed: 0.01, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}
	f.fid = info.ID
	return f
}

// TestProxyKeepsLengths: a routed upload reaches the member with the
// Content-Length it arrived with, and a routed reply of known length
// reaches the client with the member's — neither is re-framed as chunked.
func TestProxyKeepsLengths(t *testing.T) {
	f := newRecordingFleet(t)
	for _, tc := range []struct {
		method, sub, body string
		want              int
	}{
		{"PUT", "load", `{"load":0.6}`, 200},
		{"GET", "slo", "", 200},
		{"PUT", "load", `{"load":7}`, 400},
	} {
		req, err := http.NewRequest(tc.method, f.url+"/api/v1/instances/"+f.fid+"/"+tc.sub, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.sub, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.sub, resp.StatusCode, tc.want, body)
		}
		if resp.Header.Get("Content-Length") == "" || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: reply of %d bytes framed Content-Length %q, Transfer-Encoding %v", tc.method, tc.sub,
				len(body), resp.Header.Get("Content-Length"), resp.TransferEncoding)
		}
		f.mu.Lock()
		got := f.seen[tc.method+" "+tc.sub]
		f.mu.Unlock()
		if got.length != int64(len(tc.body)) || len(got.encoding) != 0 {
			t.Errorf("%s %s: member saw Content-Length %d, Transfer-Encoding %v, want %d and none", tc.method, tc.sub,
				got.length, got.encoding, len(tc.body))
		}
	}
}

// TestProxyStreamsEventByEvent: an SSE stream has no length, so the router
// still flushes it as it arrives. The instance ticks every 100 s; the only
// events are the ones the test causes, and each must come out of the
// router before the next is caused — a buffered relay would hold them all.
func TestProxyStreamsEventByEvent(t *testing.T) {
	f := newRecordingFleet(t)
	resp, err := http.Get(f.url + "/api/v1/instances/" + f.fid + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength >= 0 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream answered Content-Length %d, Content-Type %q", resp.ContentLength, resp.Header.Get("Content-Type"))
	}
	// Room for every line the test causes (a few dozen), so the reader
	// never blocks on a test that has already failed and returned.
	lines := make(chan string, 256)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	expect := func(what, substr string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case line, open := <-lines:
				if !open {
					t.Fatalf("stream ended before %s", what)
				}
				if strings.Contains(line, substr) {
					return
				}
			case <-deadline:
				t.Fatalf("%s did not come through the router while the stream was open", what)
			}
		}
	}
	expect("the opening comment", ": stream ")
	for _, name := range []string{"first", "second"} {
		spec := serve.ScenarioSpec{Name: name, DurationS: 60, Load: &serve.ShapeSpec{Kind: "flat", Value: 0.3}}
		doReq(t, "POST", f.url+"/api/v1/instances/"+f.fid+"/scenario", spec, 202)
		expect("the "+name+" scenario's lifecycle event", `"detail":"`+name+`"`)
	}
	doReq(t, "DELETE", f.url+"/api/v1/instances/"+f.fid, nil, 200)
	expect("the closing comment", ": stream closed")
}

// TestRouterBodyIsCapped: the router's migrate, join, leave and job
// submit routes read at most 1 MiB, like every other mutating route, and
// answer a larger body 413, as the daemon does. Create reads at most the
// daemon's own cap. Both body-forwarding routes answer 413 themselves,
// without contacting a member.
func TestRouterBodyIsCapped(t *testing.T) {
	f := newRecordingFleet(t)
	f.mu.Lock()
	delete(f.seen, "POST instances")
	f.mu.Unlock()
	for _, tc := range []struct {
		method, path string
		limit        int64
		code         int
	}{
		{"POST", "/api/v1/instances/" + f.fid + "/migrate", 1 << 20, http.StatusRequestEntityTooLarge},
		{"POST", "/api/v1/members", 1 << 20, http.StatusRequestEntityTooLarge},
		{"DELETE", "/api/v1/members", 1 << 20, http.StatusRequestEntityTooLarge},
		{"POST", "/api/v1/jobs", 1 << 20, http.StatusRequestEntityTooLarge},
		{"POST", "/api/v1/instances", serve.RestoreBodyLimit, http.StatusRequestEntityTooLarge},
	} {
		// A JSON string value that runs one byte past the cap.
		prefix := `{"url":"`
		body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(xs{}, tc.limit+1-int64(len(prefix))))
		req, err := http.NewRequest(tc.method, f.url+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(msg), "too large") {
			t.Errorf("%s %s body of %d bytes answered %d: %s", tc.method, tc.path, tc.limit+1, resp.StatusCode, msg)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, route := range []string{"POST instances", "POST jobs"} {
		if got, ok := f.seen[route]; ok {
			t.Errorf("the member saw the oversized %s (Content-Length %d)", route, got.length)
		}
	}
}

// xs reads as an endless run of 'x'.
type xs struct{}

func (xs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestProxyCancelsMemberRequestWithClient: a client that drops a proxied
// stream takes the member request down with it. The member here never
// writes, so nothing but the inbound request's context can end its
// handler.
func TestProxyCancelsMemberRequestWithClient(t *testing.T) {
	srv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	started, ended, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if path.Base(r.URL.Path) != "stream" {
			h.ServeHTTP(w, r)
			return
		}
		w.(http.Flusher).Flush()
		close(started)
		select {
		case <-r.Context().Done():
			close(ended)
		case <-release: // a failed test still has to shut its servers down
		}
	}))
	t.Cleanup(member.Close)
	rt, err := NewRouter(Config{Members: []string{member.URL}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	fts := httptest.NewServer(rt.Handler())
	t.Cleanup(fts.Close)
	t.Cleanup(func() { close(release) }) // runs first: both servers wait for their handlers
	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 0.01, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}

	// The client runs beside the test and reports how it ended. The
	// proxy flushes a reply of unknown length's status line at once, so
	// Do may return before the cancel; the cancel then ends the body.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", fts.URL+"/api/v1/instances/"+info.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		clientDone <- err
	}()
	<-started
	cancel()
	if err := <-clientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("client request ended with %v, want its own cancellation", err)
	}
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the member's handler is still running 10 s after the client dropped the proxied stream")
	}
}

// shortenMemberTimeout lowers the bound on the router's own requests for
// one test. Call it before starting any server: cleanups run last in,
// first out, so the bound comes back after every server has shut down.
func shortenMemberTimeout(t *testing.T, d time.Duration) {
	old := memberTimeout
	memberTimeout = d
	t.Cleanup(func() { memberTimeout = old })
}

// TestProxiedStreamOutlivesMemberTimeout: the bound on the requests the
// router makes on its own behalf does not reach the ones it makes for a
// client. An instance ticking 20 epochs a second keeps streaming through
// the router for four times the bound.
func TestProxiedStreamOutlivesMemberTimeout(t *testing.T) {
	const bound = 250 * time.Millisecond
	shortenMemberTimeout(t, bound)
	_, _, fts := newFleet(t, 1, 4)
	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 20, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}
	// The client's own timeout only keeps a broken test from hanging.
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Get(fts.URL + "/api/v1/instances/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	start := time.Now()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: epoch") && time.Since(start) > 4*bound {
			return
		}
	}
	t.Fatalf("the proxied stream ended after %v (%v); the router's own %v bound cut it",
		time.Since(start).Round(time.Millisecond), sc.Err(), bound)
}

// TestSilentMemberIsCutAtMemberTimeout: a member that takes a poll and
// never answers holds /healthz for one bound, after which the router
// reports that member down and the rest up.
func TestSilentMemberIsCutAtMemberTimeout(t *testing.T) {
	const bound = 250 * time.Millisecond
	shortenMemberTimeout(t, bound)
	members, _, _ := newFleet(t, 1, 4)
	release := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release: // a failed test still has to shut its servers down
		}
	}))
	t.Cleanup(silent.Close)
	t.Cleanup(func() { close(release) })
	rt, err := NewRouter(Config{Members: []string{members[0].ts.URL, silent.URL}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	fts := httptest.NewServer(rt.Handler())
	t.Cleanup(fts.Close)

	start := time.Now()
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz with a silent member: %v", err)
	}
	defer resp.Body.Close()
	took := time.Since(start)
	var hz struct {
		Status    string `json:"status"`
		MembersUp int    `json:"members_up"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.MembersUp != 1 {
		t.Fatalf("healthz = %+v, want degraded with 1 member up", hz)
	}
	if took < bound || took > 10*time.Second {
		t.Fatalf("healthz answered after %v, want the %v bound", took, bound)
	}
}

// TestProxyPassesHeaders: a proxied stream still arrives with the
// member's Content-Type and Cache-Control, and every other end-to-end
// header the member sets (X-Accel-Buffering here) passes through too.
func TestProxyPassesHeaders(t *testing.T) {
	f := newRecordingFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", f.url+"/api/v1/instances/"+f.fid+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for k, want := range map[string]string{
		"Content-Type":      "text/event-stream",
		"Cache-Control":     "no-cache",
		"X-Accel-Buffering": "no",
	} {
		if got := resp.Header.Get(k); got != want {
			t.Errorf("proxied stream's %s = %q, want %q", k, got, want)
		}
	}
}

// TestRouterBodiesAreStrict: the router's own bodies decode as strictly
// as the daemon's, so a join naming an unknown field is refused, not
// joined.
func TestRouterBodiesAreStrict(t *testing.T) {
	f := newRecordingFleet(t)
	doReq(t, "POST", f.url+"/api/v1/members", map[string]string{"url": "http://c:8080", "weight": "2"}, 400)
	var list struct {
		Members []struct {
			URL string `json:"url"`
		} `json:"members"`
	}
	if err := json.Unmarshal(doReq(t, "GET", f.url+"/api/v1/members", nil, 200), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Members) != 1 {
		t.Fatalf("members after a refused join = %+v, want the one", list.Members)
	}
}

// TestOversizedBodyTextIsShared: the router's own 1 MiB routes and the
// daemon's answer an oversized body with the same 413 text.
func TestOversizedBodyTextIsShared(t *testing.T) {
	srv := serve.New(serve.Config{Lab: testLab})
	t.Cleanup(srv.Close)
	rt, err := NewRouter(Config{Members: []string{"http://member-a"}})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(h http.Handler, method, path string) string {
		rec := httptest.NewRecorder()
		body := io.MultiReader(strings.NewReader(`{"url":"`), io.LimitReader(xs{}, serve.BodyLimit))
		h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with an oversized body answered %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	daemon := answer(srv.Handler(), "POST", "/api/v1/jobs")
	for _, route := range []string{"POST /api/v1/members", "DELETE /api/v1/members", "POST /api/v1/jobs", "POST /api/v1/instances/f1/migrate"} {
		method, path, _ := strings.Cut(route, " ")
		if got := answer(rt.Handler(), method, path); got != daemon {
			t.Errorf("%s answered %q, the daemon %q", route, got, daemon)
		}
	}
}
