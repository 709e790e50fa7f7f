// Package fed federates several heraclesd daemons behind one control
// plane (DESIGN.md §14). The router mints each federated id, places it
// on a member by rendezvous hashing and creates the instance there under
// that id, so it keeps only an id → member map, and every instance route
// but migrate is one pooled reverse proxy. Sync rebuilds the map from
// the members' listings when the router starts and when a member joins.
// Migration rides the daemons' checkpoint/restore primitive, which keeps
// the name: the router asks the source to peer-migrate, then maps the id
// to the target. /healthz and /metrics aggregate every member, so a
// fleet of daemons scrapes like one.
package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heracles/internal/chash"
	"heracles/internal/sched"
	"heracles/internal/serve"
)

// DefaultSeed seeds the router's placement table when the config leaves
// it zero; fixed so a restarted router re-derives the same placements.
const DefaultSeed = 0x4865726146656431 // "HeraFed1"

// Config configures a Router.
type Config struct {
	// Members are the base URLs of the member daemons ("http://host:port").
	Members []string
	// Seed fixes hash placement; 0 selects DefaultSeed.
	Seed uint64
}

// memberTimeout bounds every member request the router makes on its own
// behalf — fan-out polls, and migrations alone or in a rebalance — as a
// context deadline; restore bodies shipped during migration can be
// large. A request made for a client carries only the client's context,
// so a proxied SSE stream lasts as long as its client stays.
var memberTimeout = 120 * time.Second

// jobRef records which member scheduler owns a federated job.
type jobRef struct {
	member  string
	localID int
}

// InstanceInfo is a member instance as the router reports it: the
// daemon's own Status plus the hosting member and the id the member
// holds it under, which is the federated id.
type InstanceInfo struct {
	serve.Status
	Member   string `json:"member"`
	MemberID string `json:"member_id"`
}

// FedMigrateRequest is the body of the router's migrate route: the base
// URL of the member to move the instance to.
type FedMigrateRequest struct {
	Member string `json:"member"`
}

// Router proxies a federated control plane over member daemons.
type Router struct {
	mux   *http.ServeMux
	proxy *httputil.ReverseProxy // every instance route but migrate

	mu      sync.Mutex
	seed    uint64
	table   *chash.Table
	members []string            // sorted member URLs, the hash population
	targets map[string]*url.URL // each member URL met, parsed once (nil if it does not parse); kept after it leaves
	seq     int
	insts   map[string]string // fed id → hosting member's URL
	jobSeq  int
	jobs    map[int]jobRef

	proxied    countingTransport // carries and counts every member request
	buffers    bufferPool        // the proxy's copy buffers
	migrations atomic.Int64      // router-driven migrations
}

// NewRouter builds a router over the configured members. Placement is a
// pure function of (seed, member set, fed id), so two routers configured
// alike agree on where everything goes.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fed: no members configured")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	members := make([]string, 0, len(cfg.Members))
	targets := make(map[string]*url.URL, len(cfg.Members))
	for _, m := range cfg.Members {
		m = strings.TrimSuffix(strings.TrimSpace(m), "/")
		if m == "" {
			return nil, fmt.Errorf("fed: empty member URL")
		}
		members = append(members, m)
		targets[m], _ = url.Parse(m)
	}
	slices.Sort(members)
	rt := &Router{
		seed:    seed,
		table:   chash.New(seed, members...),
		members: members,
		targets: targets,
		insts:   make(map[string]string),
		jobs:    make(map[int]jobRef),
	}
	// Every instance route but migrate is this one proxy. It passes every
	// end-to-end header both ways, keeps both bodies' lengths, and flushes
	// a reply of unknown length (an SSE stream) as it arrives.
	rt.proxy = &httputil.ReverseProxy{
		Rewrite:        rt.rewrite,
		Transport:      &rt.proxied,
		BufferPool:     &rt.buffers,
		ModifyResponse: rt.tagReply,
		ErrorHandler:   rt.proxyError,
	}
	rt.mux = serve.Mount(rt, routeTable)
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Members returns the current member URLs (sorted).
func (rt *Router) Members() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]string(nil), rt.members...)
}

// routeTable is the single source of truth for the router's HTTP
// surface; Routes exposes it for documentation enforcement.
var routeTable = []serve.Route[*Router]{
	{Method: "GET", Pattern: "/healthz", Doc: "aggregate liveness across member daemons", Handle: (*Router).handleHealthz},
	{Method: "GET", Pattern: "/metrics", Doc: "aggregated heracles_fed_* exposition across members", Handle: (*Router).handleMetrics},
	{Method: "GET", Pattern: "/api/v1/members", Doc: "list member daemons and the placement table", Handle: (*Router).handleMembersList},
	{Method: "POST", Pattern: "/api/v1/members", BodyCap: serve.BodyLimit, Doc: "join a member daemon to the federation", Handle: (*Router).handleMemberJoin},
	{Method: "DELETE", Pattern: "/api/v1/members", BodyCap: serve.BodyLimit, Doc: "remove a member daemon, migrating its instances away first", Handle: (*Router).handleMemberLeave},
	{Method: "POST", Pattern: "/api/v1/rebalance", Doc: "migrate every instance whose hash home changed back onto it", Handle: (*Router).handleRebalance},
	{Method: "GET", Pattern: "/api/v1/instances", Doc: "list federated instances across all members", Handle: (*Router).handleInstancesList},
	{Method: "POST", Pattern: "/api/v1/instances", BodyCap: serve.RestoreBodyLimit, Doc: "create an instance, placed on a member by consistent hash", Handle: (*Router).handleInstanceCreate},
	{Method: "GET", Pattern: "/api/v1/instances/{id}", Doc: "inspect one federated instance", Handle: (*Router).handleInstance},
	{Method: "DELETE", Pattern: "/api/v1/instances/{id}", Doc: "stop and remove a federated instance", Handle: (*Router).handleInstance},
	{Method: "POST", Pattern: "/api/v1/instances/{id}/migrate", BodyCap: serve.BodyLimit, Doc: "migrate a federated instance onto another member daemon", Handle: (*Router).handleInstanceMigrate},
	{Method: "ANY", Pattern: "/api/v1/instances/{id}/{rest...}", Doc: "proxy any other instance sub-resource (load, slo, faults, stream, ...) to the hosting member", Handle: (*Router).handleInstance},
	{Method: "POST", Pattern: "/api/v1/jobs", BodyCap: serve.BodyLimit, Doc: "submit a best-effort job to a member scheduler round-robin", Handle: (*Router).handleJobSubmit},
	{Method: "GET", Pattern: "/api/v1/jobs", Doc: "list federated jobs across all members", Handle: (*Router).handleJobsList},
	{Method: "GET", Pattern: "/api/v1/jobs/{id}", Doc: "inspect one federated job", Handle: (*Router).handleJob},
	{Method: "DELETE", Pattern: "/api/v1/jobs/{id}", Doc: "cancel a federated job", Handle: (*Router).handleJob},
	{Method: "GET", Pattern: "/api/v1/sched", Doc: "merged fleet-scheduler accounting across members", Handle: (*Router).handleSched},
}

// The proxied routes whose replies the router reads, by the mux pattern
// a request carries.
const (
	createRoute = "POST /api/v1/instances"
	getRoute    = "GET /api/v1/instances/{id}"
	deleteRoute = "DELETE /api/v1/instances/{id}"
)

// Routes lists "METHOD /pattern" for every registered route; the docs
// check keeps docs/API.md complete against it.
func Routes() []string { return serve.RouteNames(routeTable) }

// --- Handler plumbing --------------------------------------------------

// lookup resolves a federated id to its hosting member.
func (rt *Router) lookup(fid string) (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	member, ok := rt.insts[fid]
	return member, ok
}

// repoint maps a federated id to the member now hosting it.
func (rt *Router) repoint(fid, member string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.insts[fid] = member
}

// forget drops a federated id's mapping.
func (rt *Router) forget(fid string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.insts, fid)
}

// countingTransport is the round-tripper every member request the router
// makes goes through, proxied or its own: it counts each request, sends
// it through the router's member transport and times it into proxyHist
// until the member's reply headers are read.
type countingTransport struct {
	atomic.Int64
	members memberTransport
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.Add(1)
	start := time.Now()
	resp, err := c.members.RoundTrip(req)
	proxyHist.Observe(time.Since(start))
	return resp, err
}

// bufferPool lends the proxy the 32 KiB buffers it copies bodies
// through, so a proxied request does not allocate one of its own.
type bufferPool struct{ sync.Pool }

func (p *bufferPool) Get() []byte {
	if b, ok := p.Pool.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, 32<<10)
}

func (p *bufferPool) Put(b []byte) { p.Pool.Put(&b) }

// request sends one member request under ctx; body, when non-nil, is its
// JSON payload.
func (rt *Router) request(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return rt.proxied.RoundTrip(req)
}

// memberCall makes one job request for a client, under the inbound
// request's context. A reply with any status but want is relayed
// verbatim; want's body is decoded, passed to reply — which rewrites the
// member's job id into the router's — and written back with that status.
func memberCall[T any](rt *Router, w http.ResponseWriter, r *http.Request, member, method, path string, body []byte, want int, reply func(*T) any) {
	resp, err := rt.request(r.Context(), method, member+path, body)
	if err != nil {
		serve.APIError(w, http.StatusBadGateway, "member %s: %v", member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		relay(w, resp)
		return
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		serve.APIError(w, http.StatusBadGateway, "member %s: decoding reply: %v", member, err)
		return
	}
	serve.WriteJSON(w, want, reply(&v))
}

// polled is one member's answer to a fan-out poll: its decoded 200
// reply, or ok false (and a zero body) if it failed, answered another
// status or sent a body that does not decode.
type polled[T any] struct {
	member string
	body   T
	ok     bool
}

// fanOut polls path on each of members concurrently, under the router's
// own deadline, and returns the answers in member order.
func fanOut[T any](rt *Router, members []string, path string) []polled[T] {
	ctx, cancel := context.WithTimeout(context.Background(), memberTimeout)
	defer cancel()
	out := make([]polled[T], len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		out[i].member = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.request(ctx, "GET", m+path, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var v T
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&v) == nil {
				out[i].body, out[i].ok = v, true
			}
		}()
	}
	wg.Wait()
	return out
}

// relay copies a member's job reply the router does not rewrite — an
// unexpected status — through to the client: its Content-Type, its
// Content-Length when known, its status and its body.
func relay(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	// A failed copy means one end hung up mid-reply; the status line is
	// out, so there is nobody left to tell.
	_, _ = io.Copy(w, resp.Body)
}

// --- Instance routes ---------------------------------------------------

// rewrite sends a proxied request out as it came in, re-hosted at the
// member its id maps to; a create also names the instance there. An id
// forgotten since its handler looked it up leaves the request without a
// host, which the transport refuses and proxyError answers.
func (rt *Router) rewrite(pr *httputil.ProxyRequest) {
	fid := pr.In.PathValue("id")
	rt.mu.Lock()
	target := rt.targets[rt.insts[fid]]
	rt.mu.Unlock()
	if target != nil {
		pr.SetURL(target)
	}
	if pr.In.Pattern == createRoute {
		pr.Out.URL.RawQuery = "id=" + fid
	}
}

// tagReply keeps the id map in step with a create's or a delete's
// answer, and adds member and member_id to a member's Status — a
// create's 201, a read's 200 — by splicing them in after its opening
// brace, without decoding the member's bytes.
func (rt *Router) tagReply(resp *http.Response) error {
	req, code := resp.Request, resp.StatusCode
	fid := req.PathValue("id")
	switch {
	case req.Pattern == deleteRoute && (code == http.StatusOK || code == http.StatusNotFound),
		req.Pattern == createRoute && code != http.StatusCreated:
		rt.forget(fid)
		return nil
	case req.Pattern == getRoute && (code != http.StatusOK || req.Method == http.MethodHead),
		req.Pattern != getRoute && req.Pattern != createRoute:
		return nil
	}
	member, ok := rt.lookup(fid)
	if !ok {
		return nil
	}
	// The fields' closing brace gives way to the body's opening one,
	// which becomes their separating comma.
	fields, err := json.Marshal(struct {
		Member   string `json:"member"`
		MemberID string `json:"member_id"`
	}{member, fid})
	if err != nil {
		return err
	}
	at := len(fields) - 1
	buf := bytes.NewBuffer(slices.Grow(fields[:at], int(max(resp.ContentLength, 0))+bytes.MinRead))
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if out := buf.Bytes(); len(out) > at+1 && out[at] == '{' && out[at+1] == '"' {
		out[at] = ','
	} else {
		buf.Next(at) // not an object with fields: the body as it came
	}
	resp.Body, resp.ContentLength = io.NopCloser(buf), int64(buf.Len())
	resp.Header.Set("Content-Length", strconv.Itoa(buf.Len()))
	return nil
}

// proxyError answers a proxied request the member did not answer: 404
// if the id was forgotten meanwhile, else 502, forgetting a failed
// create's id.
func (rt *Router) proxyError(w http.ResponseWriter, r *http.Request, err error) {
	fid := r.PathValue("id")
	member, ok := rt.lookup(fid)
	if !ok {
		serve.APIError(w, http.StatusNotFound, "no instance %q", fid)
		return
	}
	if r.Pattern == createRoute {
		rt.forget(fid)
	}
	serve.APIError(w, http.StatusBadGateway, "member %s: %v", member, err)
}

// handleInstanceCreate mints the next federated id, maps it to its hash
// home and proxies the create there. It reads the body first, so one
// over its row's cap (serve.RestoreBodyLimit) is the router's own 413.
func (rt *Router) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		serve.BodyError(w, err)
		return
	}
	rt.mu.Lock()
	rt.seq++
	fid := "f" + strconv.Itoa(rt.seq)
	rt.insts[fid] = rt.table.Place(fid)
	rt.mu.Unlock()
	r.Body, r.ContentLength, r.TransferEncoding = io.NopCloser(bytes.NewReader(body)), int64(len(body)), nil
	r.SetPathValue("id", fid)
	rt.proxy.ServeHTTP(w, r)
}

// handleInstance proxies a read, a delete or any sub-resource (load,
// slo, faults, checkpoint, SSE stream, ...) to the hosting member.
func (rt *Router) handleInstance(w http.ResponseWriter, r *http.Request) {
	if _, ok := rt.lookup(r.PathValue("id")); !ok {
		serve.APIError(w, http.StatusNotFound, "no instance %q", r.PathValue("id"))
		return
	}
	rt.proxy.ServeHTTP(w, r)
}

// instanceList is a member's answer to GET /api/v1/instances.
type instanceList struct {
	Instances []serve.Status `json:"instances"`
}

func (rt *Router) handleInstancesList(w http.ResponseWriter, _ *http.Request) {
	polls := fanOut[instanceList](rt, rt.Members(), "/api/v1/instances")
	// A member instance no federated id maps to was created out-of-band
	// and stays hidden.
	out := []InstanceInfo{}
	rt.mu.Lock()
	for _, p := range polls {
		for _, st := range p.body.Instances {
			if rt.insts[st.ID] == p.member {
				out = append(out, InstanceInfo{Status: st, Member: p.member, MemberID: st.ID})
			}
		}
	}
	rt.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	serve.WriteJSON(w, http.StatusOK, map[string]any{"instances": out})
}

// fedSeq parses a federated id, "f" and a canonical positive integer.
func fedSeq(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "f"))
	return n, err == nil && n > 0 && id == "f"+strconv.Itoa(n)
}

// Sync adopts the federated instances the named members host: each
// f<digits> id a member lists maps to that member unless the router
// already maps it, and the next id the router mints is past the largest
// one seen. A router syncs every member before it serves and a joiner
// before it joins, so a restart loses no instance and mints no id a
// member already holds. Jobs are not adopted: a job id resolves only on
// the router that submitted it. A member that does not list its
// instances is an error, after the others are adopted.
func (rt *Router) Sync(members ...string) error {
	polls := fanOut[instanceList](rt, members, "/api/v1/instances")
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var errs []error
	for _, p := range polls {
		if !p.ok {
			errs = append(errs, fmt.Errorf("fed: member %s did not list its instances", p.member))
			continue
		}
		if rt.targets[p.member] == nil {
			rt.targets[p.member], _ = url.Parse(p.member) // a joiner
		}
		for _, st := range p.body.Instances {
			n, ok := fedSeq(st.ID)
			if !ok {
				continue
			}
			rt.seq = max(rt.seq, n)
			if _, mapped := rt.insts[st.ID]; !mapped {
				rt.insts[st.ID] = p.member
			}
		}
	}
	return errors.Join(errs...)
}

// --- Migration and rebalancing -----------------------------------------

// migrate moves one federated instance to the target member by asking
// the hosting daemon to peer-migrate it, which keeps its name, then maps
// the id to the target.
func (rt *Router) migrate(fid, target string) (*serve.MigrateResult, error) {
	member, ok := rt.lookup(fid)
	if !ok {
		return nil, fmt.Errorf("no instance %q", fid)
	}
	if member == target {
		return nil, fmt.Errorf("instance %q is already on %s", fid, target)
	}
	body, _ := json.Marshal(serve.MigrateRequest{Peer: target})
	ctx, cancel := context.WithTimeout(context.Background(), memberTimeout)
	defer cancel()
	resp, err := rt.request(ctx, "POST", member+"/api/v1/instances/"+fid+"/migrate", body)
	if err != nil {
		return nil, fmt.Errorf("member %s: %w", member, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("member %s refused the migration: %s: %s", member, resp.Status, strings.TrimSpace(string(msg)))
	}
	var res serve.MigrateResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("member %s: decoding migrate result: %w", member, err)
	}
	rt.repoint(fid, target)
	rt.migrations.Add(1)
	return &res, nil
}

func (rt *Router) handleInstanceMigrate(w http.ResponseWriter, r *http.Request) {
	var req FedMigrateRequest
	if !serve.DecodeBody(w, r, &req) {
		return
	}
	target := strings.TrimSuffix(strings.TrimSpace(req.Member), "/")
	rt.mu.Lock()
	known := slices.Contains(rt.members, target)
	rt.mu.Unlock()
	if !known {
		serve.APIError(w, http.StatusBadRequest, "no member %q", target)
		return
	}
	res, err := rt.migrate(r.PathValue("id"), target)
	if err != nil {
		serve.APIError(w, http.StatusBadGateway, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}

// rebalance migrates every federated instance whose placement disagrees
// with table onto its hash home and answers with the number moved and
// the first error, added to out; a sweep with an error answers
// failCode. The sweep keeps going on per-instance failures so one stuck
// instance cannot wedge a whole rebalance.
func (rt *Router) rebalance(w http.ResponseWriter, table *chash.Table, out map[string]any, failCode int) {
	rt.mu.Lock()
	type move struct{ fid, want string }
	var moves []move
	for fid, member := range rt.insts {
		if want := table.Place(fid); want != member {
			moves = append(moves, move{fid, want})
		}
	}
	rt.mu.Unlock()
	sort.Slice(moves, func(a, b int) bool { return moves[a].fid < moves[b].fid })
	moved := 0
	var firstErr error
	for _, m := range moves {
		if _, err := rt.migrate(m.fid, m.want); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("migrating %s: %w", m.fid, err)
			}
			continue
		}
		moved++
	}
	out["moved"] = moved
	code := http.StatusOK
	if firstErr != nil {
		out["error"] = firstErr.Error()
		code = failCode
	}
	serve.WriteJSON(w, code, out)
}

func (rt *Router) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	table := rt.table
	rt.mu.Unlock()
	rt.rebalance(w, table, map[string]any{}, http.StatusOK)
}

// --- Membership --------------------------------------------------------

func (rt *Router) handleMembersList(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	counts := make(map[string]int)
	for _, member := range rt.insts {
		counts[member]++
	}
	type memberInfo struct {
		URL       string `json:"url"`
		Instances int    `json:"instances"`
	}
	out := make([]memberInfo, 0, len(rt.members))
	for _, m := range rt.members {
		out = append(out, memberInfo{URL: m, Instances: counts[m]})
	}
	seed := rt.seed
	rt.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, map[string]any{"seed": seed, "members": out})
}

// memberURL decodes a join or leave body into the member base URL it
// names.
func memberURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		URL string `json:"url"`
	}
	if !serve.DecodeBody(w, r, &req) {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimSpace(req.URL), "/"), true
}

// handleMemberJoin adopts the joiner's federated instances (Sync), adds
// it to the hash population and rebalances the minimal set of instances
// — exactly those whose hash home moved, to the joiner or off it — onto
// their homes. A joiner the router cannot list is not joined.
func (rt *Router) handleMemberJoin(w http.ResponseWriter, r *http.Request) {
	url, ok := memberURL(w, r)
	if !ok {
		return
	}
	if url == "" {
		serve.APIError(w, http.StatusBadRequest, "url must be set")
		return
	}
	if err := rt.Sync(url); err != nil {
		serve.APIError(w, http.StatusBadGateway, "%v", err)
		return
	}
	rt.mu.Lock()
	if slices.Contains(rt.members, url) {
		rt.mu.Unlock()
		serve.APIError(w, http.StatusConflict, "member %q already joined", url)
		return
	}
	rt.table = rt.table.Add(url)
	rt.members = append(rt.members, url)
	slices.Sort(rt.members)
	table := rt.table
	rt.mu.Unlock()
	rt.rebalance(w, table, map[string]any{"member": url}, http.StatusOK)
}

// handleMemberLeave migrates the member's instances onto their new hash
// homes, then drops it from the population.
func (rt *Router) handleMemberLeave(w http.ResponseWriter, r *http.Request) {
	url, ok := memberURL(w, r)
	if !ok {
		return
	}
	rt.mu.Lock()
	i := slices.Index(rt.members, url)
	if i < 0 {
		rt.mu.Unlock()
		serve.APIError(w, http.StatusNotFound, "no member %q", url)
		return
	}
	if len(rt.members) == 1 {
		rt.mu.Unlock()
		serve.APIError(w, http.StatusConflict, "cannot remove the last member")
		return
	}
	rt.table = rt.table.Remove(url)
	rt.members = slices.Delete(rt.members, i, i+1)
	table := rt.table
	rt.mu.Unlock()
	rt.rebalance(w, table, map[string]any{"member": url}, http.StatusBadGateway)
}

// --- Jobs --------------------------------------------------------------

func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		serve.BodyError(w, err)
		return
	}
	rt.mu.Lock()
	rt.jobSeq++
	gid := rt.jobSeq
	member := rt.members[(gid-1)%len(rt.members)]
	rt.mu.Unlock()
	memberCall(rt, w, r, member, "POST", "/api/v1/jobs", body, http.StatusCreated, func(st *serve.JobStatus) any {
		rt.mu.Lock()
		rt.jobs[gid] = jobRef{member: member, localID: st.ID}
		rt.mu.Unlock()
		st.ID = gid
		return st
	})
}

// handleJob inspects (GET) or cancels (DELETE) one job by federated id,
// with the same method on the owning member, rewriting ids in both
// directions.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	gid, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || gid < 1 {
		serve.APIError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	rt.mu.Lock()
	ref, ok := rt.jobs[gid]
	rt.mu.Unlock()
	if !ok {
		serve.APIError(w, http.StatusNotFound, "no job %d", gid)
		return
	}
	memberCall(rt, w, r, ref.member, r.Method, fmt.Sprintf("/api/v1/jobs/%d", ref.localID), nil, http.StatusOK, func(st *serve.JobStatus) any {
		st.ID = gid
		return st
	})
}

func (rt *Router) handleJobsList(w http.ResponseWriter, _ *http.Request) {
	got := make(map[jobRef]serve.JobStatus)
	for _, l := range fanOut[struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}](rt, rt.Members(), "/api/v1/jobs") {
		for _, st := range l.body.Jobs {
			got[jobRef{l.member, st.ID}] = st
		}
	}
	rt.mu.Lock()
	out := make([]serve.JobStatus, 0, len(rt.jobs))
	for gid, ref := range rt.jobs {
		if st, ok := got[ref]; ok {
			st.ID = gid
			out = append(out, st)
		}
	}
	rt.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	serve.WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// SchedStatus is the reply of GET /api/v1/sched: the members' fleet
// scheduler accounting merged into one, with each answering member's own
// status beside it, in member order.
type SchedStatus struct {
	serve.SchedulerStatus
	Members []serve.SchedulerStatus `json:"shards"`
}

// mergeSched folds member scheduler statuses into one fleet view:
// counters and CPU ledgers sum, the queue's high-water mark is the
// largest member's (as sched.Accounting.Add keeps it), the goodput fraction is recomputed from
// the summed ledgers by sched.Accounting's rule (0 for an empty ledger,
// as each member reports it), and the mean queue delay is weighted by
// dispatch count.
func mergeSched(parts []serve.SchedulerStatus) SchedStatus {
	out := SchedStatus{Members: parts}
	agg := &out.SchedulerStatus
	agg.Policy = parts[0].Policy
	for _, p := range parts {
		agg.QueueDepth += p.QueueDepth
		agg.Running += p.Running
		agg.Submitted += p.Submitted
		agg.Dispatches += p.Dispatches
		agg.Completed += p.Completed
		agg.Evictions += p.Evictions
		agg.Failed += p.Failed
		agg.Cancelled += p.Cancelled
		agg.Aborted += p.Aborted
		agg.GoodCPUSec += p.GoodCPUSec
		agg.WastedCPUSec += p.WastedCPUSec
		agg.MaxQueueDepth = max(agg.MaxQueueDepth, p.MaxQueueDepth)
		agg.TickPanics += p.TickPanics
		if p.LastTickPanic != "" {
			agg.LastTickPanic = p.LastTickPanic
		}
		agg.MeanQueueDelayS += p.MeanQueueDelayS * float64(p.Dispatches)
	}
	if agg.Dispatches > 0 {
		agg.MeanQueueDelayS /= float64(agg.Dispatches)
	}
	agg.GoodputFrac = sched.Accounting{GoodCPUSec: agg.GoodCPUSec, WastedCPUSec: agg.WastedCPUSec}.GoodputFrac()
	return out
}

func (rt *Router) handleSched(w http.ResponseWriter, _ *http.Request) {
	var parts []serve.SchedulerStatus
	for _, p := range fanOut[serve.SchedulerStatus](rt, rt.Members(), "/api/v1/scheduler") {
		if p.ok {
			parts = append(parts, p.body)
		}
	}
	if len(parts) == 0 {
		serve.APIError(w, http.StatusBadGateway, "no member reachable")
		return
	}
	serve.WriteJSON(w, http.StatusOK, mergeSched(parts))
}

// --- Aggregated health and metrics -------------------------------------

// snapshot polls every member's shard endpoint and builds the
// federation-wide view /healthz and /metrics render.
func (rt *Router) snapshot() Snapshot {
	polls := fanOut[struct {
		Shards     []serve.ShardStatus `json:"shards"`
		Migrations int64               `json:"migrations"`
	}](rt, rt.Members(), "/api/v1/shards")
	snaps := make([]MemberSnapshot, len(polls))
	for i, p := range polls {
		snaps[i] = MemberSnapshot{Member: p.member, Up: p.ok, Shards: p.body.Shards, Migrations: p.body.Migrations}
		for _, sh := range p.body.Shards {
			snaps[i].Instances += sh.Instances
		}
	}
	return Snapshot{
		Members:    snaps,
		Migrations: rt.migrations.Load(),
		Proxied:    rt.proxied.Load(),
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := rt.snapshot()
	up, instances := 0, 0
	for _, m := range snap.Members {
		if m.Up {
			up++
		}
		instances += m.Instances
	}
	status := "ok"
	if up < len(snap.Members) {
		status = "degraded"
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"members":    len(snap.Members),
		"members_up": up,
		"instances":  instances,
		"migrations": snap.Migrations,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	renderMetrics(rt.snapshot(), &proxyHist).Respond(w)
}
