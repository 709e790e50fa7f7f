package fed

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"syscall"
	"time"
)

// memberTransport carries a member request on the calling goroutine,
// where http.Transport hands it to a writer and a reader goroutine. It
// writes the request and reads the reply over a pooled keep-alive
// connection, dialed by http.DefaultTransport's dialer and held to its
// idle bounds. A request that is not plain http to a host, or that
// DefaultTransport's proxy rule (ProxyFromEnvironment) proxies, goes to
// http.DefaultTransport.
type memberTransport struct {
	mu   sync.Mutex
	idle map[string][]*memberConn // by address, most recently used last
}

const maxIdlePerMember, idleTimeout = http.DefaultMaxIdleConnsPerHost, 90 * time.Second

// maxInlineBody bounds the request body inline reads ahead: a
// sub-resource's JSON, not a checkpoint restored through create.
const maxInlineBody = 4 << 10

func (t *memberTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	dt, ok := http.DefaultTransport.(*http.Transport)
	if ok && dt.Proxy != nil {
		proxy, err := dt.Proxy(req)
		ok = proxy == nil && err == nil
	}
	if !ok || dt.DialContext == nil || req.URL.Scheme != "http" || req.URL.Host == "" {
		return http.DefaultTransport.RoundTrip(req)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	c := t.get(addr)
	if c == nil {
		conn, err := dt.DialContext(ctx, "tcp", addr)
		if err != nil {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, err
		}
		// A new variable, so that abort captures it by value and a
		// request that reuses a connection allocates no c.
		nc := &memberConn{Conn: conn, t: t, addr: addr, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
		nc.abort, nc.peek = func() { nc.Close() }, nc.peekFD
		nc.inlineBody = io.NopCloser(&nc.bodyRd)
		if sc, ok := conn.(syscall.Conn); ok {
			nc.raw, _ = sc.SyscallConn()
		}
		c = nc
	}
	stop := context.AfterFunc(ctx, c.abort) // ends any read or write blocked on c
	out := req
	if n := req.ContentLength; n > 0 && n <= maxInlineBody && req.Body != nil {
		var err error
		if out, err = c.inline(req); err != nil {
			stop()
			c.Close()
			return nil, err
		}
	}
	werr := out.Write(c.bw)
	c.out = http.Request{} // holds nothing of req while c is idle
	if werr == nil {
		werr = c.bw.Flush()
	}
	// A member that refused the body part-way may have replied; a
	// request that failed before its connection did (a control byte in
	// its URL, a failed body) has no reply coming.
	read := werr == nil
	if !read {
		var netErr *net.OpError // declared here: its address escapes
		read = errors.As(werr, &netErr)
	}
	resp, err := (*http.Response)(nil), werr
	if read {
		resp, err = http.ReadResponse(c.br, req)
		for err == nil && resp.StatusCode < 200 && resp.StatusCode != http.StatusSwitchingProtocols {
			resp, err = http.ReadResponse(c.br, req) // a 1xx precedes the reply
		}
	}
	if err != nil {
		stop()
		c.Close()
		return nil, cmp.Or(ctx.Err(), werr, err)
	}
	reuse := werr == nil && !req.Close && !resp.Close
	if resp.Body == http.NoBody {
		c.release(stop() && reuse)
	} else {
		resp.Body = &memberBody{ReadCloser: resp.Body, ctx: ctx, c: c, stop: stop, reuse: reuse}
	}
	return resp, nil
}

// inline reads req's body into c and returns a copy of req whose body
// reads it from memory. Request.Write flushes the head apart from a body
// it cannot see in memory; an inline body goes out in the head's write,
// so the member wakes for one segment, not two.
func (c *memberConn) inline(req *http.Request) (*http.Request, error) {
	c.body = slices.Grow(c.body[:0], int(req.ContentLength))[:req.ContentLength]
	_, err := io.ReadFull(req.Body, c.body)
	req.Body.Close()
	c.bodyRd.Reset(c.body)
	c.out = *req
	c.out.Body = c.inlineBody
	return &c.out, err
}

// get takes the most recently used pooled connection to addr that is
// alive, closing each one it finds idle past idleTimeout or dead.
func (t *memberTransport) get(addr string) *memberConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	for idle := t.idle[addr]; len(idle) > 0; idle = t.idle[addr] {
		c := idle[len(idle)-1]
		t.idle[addr] = slices.Delete(idle, len(idle)-1, len(idle))
		if time.Since(c.idleSince) < idleTimeout && c.alive() {
			return c
		}
		c.Close()
	}
	return nil
}

// memberConn is one keep-alive member connection. Its callbacks are
// made when it is dialed, so that a request allocates none.
type memberConn struct {
	net.Conn
	t         *memberTransport
	addr      string
	br        *bufio.Reader
	bw        *bufio.Writer
	idleSince time.Time
	abort     func()
	raw       syscall.RawConn       // nil: the connection is never reused
	peek      func(fd uintptr) bool // peekFD, which sets live
	live      bool
	peeked    [1]byte

	body       []byte        // inline's copy of a request body
	bodyRd     bytes.Reader  // reads body
	inlineBody io.ReadCloser // bodyRd, unclosable
	out        http.Request  // inline's copy of the request
}

// alive reports whether a pooled connection can carry a request: its
// last reply left nothing buffered, and a non-blocking MSG_PEEK finds
// neither the member's close nor bytes it sent unasked.
func (c *memberConn) alive() bool {
	c.live = false
	return c.raw != nil && c.br.Buffered() == 0 && c.raw.Read(c.peek) == nil && c.live
}

// release pools the connection if reuse and the pool has room, or
// closes it.
func (c *memberConn) release(reuse bool) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if idle := c.t.idle[c.addr]; !reuse || len(idle) >= maxIdlePerMember {
		c.Close()
	} else if c.t.idle == nil {
		c.t.idle = map[string][]*memberConn{c.addr: {c}}
	} else {
		c.t.idle[c.addr] = append(idle, c)
	}
	c.idleSince = time.Now()
}

// memberBody is a reply body read straight from its connection, which
// is pooled at the body's end and closed if the body fails or is closed
// first: the wrapped body's Close would read a stream on to an end that
// never comes. A read cut by the request's context fails with the
// context's error, as http.Transport's does.
type memberBody struct {
	io.ReadCloser
	ctx   context.Context
	c     *memberConn // nil once released
	stop  func() bool // stops the context's abort
	reuse bool
}

func (b *memberBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish(err == io.EOF)
		if err != io.EOF && b.ctx.Err() != nil {
			err = b.ctx.Err()
		}
	}
	return n, err
}

func (b *memberBody) Close() error { b.finish(false); return nil }

func (b *memberBody) finish(eof bool) {
	if c := b.c; c != nil {
		b.c = nil
		c.release(b.stop() && b.reuse && eof)
	}
}
