package fed

import (
	"bufio"
	"bytes"
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

// TestMigrateBodyIsCapped: the router's migrate route reads at most 1 MiB,
// like every other mutating route.
func TestMigrateBodyIsCapped(t *testing.T) {
	f := newRecordingFleet(t)
	big := append([]byte(`{"member":"`), bytes.Repeat([]byte("x"), 2<<20)...)
	big = append(big, `"}`...)
	resp, err := http.Post(f.url+"/api/v1/instances/"+f.fid+"/migrate", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "too large") {
		t.Fatalf("2 MiB migrate body answered %d: %s", resp.StatusCode, msg)
	}
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

	// The router sends its status line with the first chunk, so the
	// client's Do does not return before the cancel: it runs beside the
	// test and reports how it ended.
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
