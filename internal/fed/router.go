// Package fed federates several heraclesd daemons behind one control
// plane (DESIGN.md §14). The router owns the public instance namespace:
// creates are placed on a member by rendezvous hashing of the federated
// id, reads and actuation proxy through to the hosting member, and
// migration rides the daemons' own checkpoint/restore migration
// primitive — the router asks the source daemon to peer-migrate, then
// repoints its mapping at the restored copy. /healthz and /metrics
// aggregate every member, so a fleet of daemons scrapes like one.
package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heracles/internal/chash"
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

// placement records where a federated instance currently lives.
type placement struct {
	member  string // member base URL
	localID string // the member daemon's own instance id
}

// jobRef records which member scheduler owns a federated job.
type jobRef struct {
	member  string
	localID int
}

// InstanceInfo is a member instance as the router reports it: the
// daemon's own Status with ID rewritten to the federated id, plus the
// hosting member and the member-local id.
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
	mux *http.ServeMux

	mu      sync.Mutex
	seed    uint64
	table   *chash.Table
	members []string // sorted member URLs, the hash population
	seq     int
	insts   map[string]placement         // fed id → placement
	rev     map[string]map[string]string // member → local id → fed id
	jobSeq  int
	jobs    map[int]jobRef

	proxied    atomic.Int64 // requests forwarded to members
	migrations atomic.Int64 // router-driven migrations
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
	for _, m := range cfg.Members {
		m = strings.TrimSuffix(strings.TrimSpace(m), "/")
		if m == "" {
			return nil, fmt.Errorf("fed: empty member URL")
		}
		members = append(members, m)
	}
	slices.Sort(members)
	rt := &Router{
		seed:    seed,
		table:   chash.New(seed, members...),
		members: members,
		insts:   make(map[string]placement),
		rev:     make(map[string]map[string]string),
		jobs:    make(map[int]jobRef),
	}
	rt.mux = http.NewServeMux()
	for _, r := range routeTable {
		handler := r.handler
		pattern := r.Pattern
		if r.Method != "ANY" {
			pattern = r.Method + " " + r.Pattern
		}
		rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
			handler(rt, w, req)
		})
	}
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

// Route is one registered router route.
type Route struct {
	Method  string // "ANY" matches every method
	Pattern string
	Doc     string

	handler func(*Router, http.ResponseWriter, *http.Request)
}

// routeTable is the single source of truth for the router's HTTP
// surface; Routes exposes it for documentation enforcement.
var routeTable = []Route{
	{"GET", "/healthz", "aggregate liveness across member daemons", (*Router).handleHealthz},
	{"GET", "/metrics", "aggregated heracles_fed_* exposition across members", (*Router).handleMetrics},
	{"GET", "/api/v1/members", "list member daemons and the placement table", (*Router).handleMembersList},
	{"POST", "/api/v1/members", "join a member daemon to the federation", (*Router).handleMemberJoin},
	{"DELETE", "/api/v1/members", "remove a member daemon, migrating its instances away first", (*Router).handleMemberLeave},
	{"POST", "/api/v1/rebalance", "migrate every instance whose hash home changed back onto it", (*Router).handleRebalance},
	{"GET", "/api/v1/instances", "list federated instances across all members", (*Router).handleInstancesList},
	{"POST", "/api/v1/instances", "create an instance, placed on a member by consistent hash", (*Router).handleInstanceCreate},
	{"GET", "/api/v1/instances/{id}", "inspect one federated instance", (*Router).handleInstanceGet},
	{"DELETE", "/api/v1/instances/{id}", "stop and remove a federated instance", (*Router).handleInstanceDelete},
	{"POST", "/api/v1/instances/{id}/migrate", "migrate a federated instance onto another member daemon", (*Router).handleInstanceMigrate},
	{"ANY", "/api/v1/instances/{id}/{rest...}", "proxy any other instance sub-resource (load, slo, faults, stream, ...) to the hosting member", (*Router).handleInstanceProxy},
	{"POST", "/api/v1/jobs", "submit a best-effort job to a member scheduler round-robin", (*Router).handleJobSubmit},
	{"GET", "/api/v1/jobs", "list federated jobs across all members", (*Router).handleJobsList},
	{"GET", "/api/v1/jobs/{id}", "inspect one federated job", (*Router).handleJob},
	{"DELETE", "/api/v1/jobs/{id}", "cancel a federated job", (*Router).handleJob},
	{"GET", "/api/v1/sched", "merged fleet-scheduler accounting across members", (*Router).handleSched},
}

// Routes lists "METHOD /pattern" for every registered route; the docs
// check keeps docs/API.md complete against it.
func Routes() []string {
	out := make([]string, len(routeTable))
	for i, r := range routeTable {
		out[i] = r.Method + " " + r.Pattern
	}
	return out
}

// --- Handler plumbing --------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// lookup resolves a federated id to its placement.
func (rt *Router) lookup(fid string) (placement, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, ok := rt.insts[fid]
	return p, ok
}

// repoint atomically moves a federated id's mapping.
func (rt *Router) repoint(fid string, p placement) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if old, ok := rt.insts[fid]; ok {
		delete(rt.rev[old.member], old.localID)
	}
	rt.insts[fid] = p
	if rt.rev[p.member] == nil {
		rt.rev[p.member] = make(map[string]string)
	}
	rt.rev[p.member][p.localID] = fid
}

// forget drops a federated id's mapping.
func (rt *Router) forget(fid string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if p, ok := rt.insts[fid]; ok {
		delete(rt.rev[p.member], p.localID)
		delete(rt.insts, fid)
	}
}

// send issues one built member request and counts it.
func (rt *Router) send(req *http.Request) (*http.Response, error) {
	rt.proxied.Add(1)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	proxyHist.Observe(time.Since(start))
	return resp, err
}

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
	return rt.send(req)
}

// memberCall makes one member request for a client, under the inbound
// request's context. A reply with any status but want is relayed
// verbatim; want's body is decoded, passed to reply — which rewrites the
// member's ids into the router's — and written back with that status.
func memberCall[T any](rt *Router, w http.ResponseWriter, r *http.Request, member, method, path string, body []byte, want int, reply func(*T) any) {
	resp, err := rt.request(r.Context(), method, member+path, body)
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		relay(w, resp)
		return
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		apiError(w, http.StatusBadGateway, "member %s: decoding reply: %v", member, err)
		return
	}
	writeJSON(w, want, reply(&v))
}

// polled is one member's answer to a fan-out poll: its decoded 200
// reply, or ok false (and a zero body) if it failed, answered another
// status or sent a body that does not decode.
type polled[T any] struct {
	member string
	body   T
	ok     bool
}

// fanOut polls path on every member concurrently, under the router's own
// deadline, and returns the answers in member order.
func fanOut[T any](rt *Router, path string) []polled[T] {
	members := rt.Members()
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

// decode reads a JSON request body capped at 1 MiB, answering 400
// itself on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		apiError(w, http.StatusBadRequest, "decoding body: %v", err)
		return false
	}
	return true
}

// instanceInfo reports a member's instance status under its federated id.
func instanceInfo(fid, member string, st serve.Status) InstanceInfo {
	info := InstanceInfo{Status: st, Member: member, MemberID: st.ID}
	info.ID = fid
	return info
}

// relay copies a member response through to the client verbatim. A reply
// of known length keeps its Content-Length and goes out in one copy; only
// one of unknown length (an SSE stream) is flushed per chunk, so it passes
// through live.
func relay(w http.ResponseWriter, resp *http.Response) {
	for _, k := range []string{"Content-Type", "Cache-Control"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
		w.WriteHeader(resp.StatusCode)
		// A failed copy means one end hung up mid-reply; the status line
		// is out, so there is nobody left to tell.
		_, _ = io.Copy(w, resp.Body)
		return
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// --- Instance routes ---------------------------------------------------

func (rt *Router) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	rt.mu.Lock()
	rt.seq++
	fid := fmt.Sprintf("f%d", rt.seq)
	member := rt.table.Place(fid)
	rt.mu.Unlock()
	memberCall(rt, w, r, member, "POST", "/api/v1/instances", body, http.StatusCreated, func(st *serve.Status) any {
		rt.repoint(fid, placement{member: member, localID: st.ID})
		return instanceInfo(fid, member, *st)
	})
}

func (rt *Router) handleInstancesList(w http.ResponseWriter, _ *http.Request) {
	lists := fanOut[struct {
		Instances []serve.Status `json:"instances"`
	}](rt, "/api/v1/instances")
	rt.mu.Lock()
	out := make([]InstanceInfo, 0, len(rt.insts))
	for _, l := range lists {
		for _, st := range l.body.Instances {
			// An id the router did not map was created out-of-band.
			if fid, ok := rt.rev[l.member][st.ID]; ok {
				out = append(out, instanceInfo(fid, l.member, st))
			}
		}
	}
	rt.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, map[string]any{"instances": out})
}

func (rt *Router) handleInstanceGet(w http.ResponseWriter, r *http.Request) {
	fid := r.PathValue("id")
	p, ok := rt.lookup(fid)
	if !ok {
		apiError(w, http.StatusNotFound, "no instance %q", fid)
		return
	}
	memberCall(rt, w, r, p.member, "GET", "/api/v1/instances/"+p.localID, nil, http.StatusOK, func(st *serve.Status) any {
		return instanceInfo(fid, p.member, *st)
	})
}

func (rt *Router) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	fid := r.PathValue("id")
	p, ok := rt.lookup(fid)
	if !ok {
		apiError(w, http.StatusNotFound, "no instance %q", fid)
		return
	}
	resp, err := rt.request(r.Context(), "DELETE", p.member+"/api/v1/instances/"+p.localID, nil)
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", p.member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotFound {
		rt.forget(fid)
	}
	relay(w, resp)
}

// handleInstanceProxy forwards any other instance sub-resource — load,
// slo, degrade, faults, checkpoint, SSE stream — to the hosting member
// with the member-local id spliced into the path.
func (rt *Router) handleInstanceProxy(w http.ResponseWriter, r *http.Request) {
	fid := r.PathValue("id")
	p, ok := rt.lookup(fid)
	if !ok {
		apiError(w, http.StatusNotFound, "no instance %q", fid)
		return
	}
	url := p.member + "/api/v1/instances/" + p.localID + "/" + r.PathValue("rest")
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	// The inbound length travels with the body: left to itself net/http
	// cannot size an opaque reader and re-sends every upload chunked.
	body := r.Body
	if r.ContentLength == 0 {
		body = http.NoBody
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, body)
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", p.member, err)
		return
	}
	req.ContentLength = r.ContentLength
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.send(req)
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", p.member, err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp)
}

// --- Migration and rebalancing -----------------------------------------

// migrate moves one federated instance to the target member by asking
// the hosting daemon to peer-migrate, then repoints the mapping at the
// restored copy.
func (rt *Router) migrate(fid, target string) (*serve.MigrateResult, error) {
	p, ok := rt.lookup(fid)
	if !ok {
		return nil, fmt.Errorf("no instance %q", fid)
	}
	if p.member == target {
		return nil, fmt.Errorf("instance %q is already on %s", fid, target)
	}
	body, _ := json.Marshal(serve.MigrateRequest{Peer: target})
	ctx, cancel := context.WithTimeout(context.Background(), memberTimeout)
	defer cancel()
	resp, err := rt.request(ctx, "POST", p.member+"/api/v1/instances/"+p.localID+"/migrate", body)
	if err != nil {
		return nil, fmt.Errorf("member %s: %w", p.member, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("member %s refused the migration: %s: %s", p.member, resp.Status, strings.TrimSpace(string(msg)))
	}
	var res serve.MigrateResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("member %s: decoding migrate result: %w", p.member, err)
	}
	rt.repoint(fid, placement{member: target, localID: res.To})
	rt.migrations.Add(1)
	return &res, nil
}

func (rt *Router) handleInstanceMigrate(w http.ResponseWriter, r *http.Request) {
	var req FedMigrateRequest
	if !decode(w, r, &req) {
		return
	}
	target := strings.TrimSuffix(strings.TrimSpace(req.Member), "/")
	rt.mu.Lock()
	known := slices.Contains(rt.members, target)
	rt.mu.Unlock()
	if !known {
		apiError(w, http.StatusBadRequest, "no member %q", target)
		return
	}
	res, err := rt.migrate(r.PathValue("id"), target)
	if err != nil {
		apiError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
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
	for fid, p := range rt.insts {
		if want := table.Place(fid); want != p.member {
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
	writeJSON(w, code, out)
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
	for _, p := range rt.insts {
		counts[p.member]++
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
	writeJSON(w, http.StatusOK, map[string]any{"seed": seed, "members": out})
}

// memberURL decodes a join or leave body into the member base URL it
// names.
func memberURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		URL string `json:"url"`
	}
	if !decode(w, r, &req) {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimSpace(req.URL), "/"), true
}

// handleMemberJoin adds a member to the hash population and rebalances
// the minimal set of instances — exactly those whose hash home moved to
// the joiner — onto it.
func (rt *Router) handleMemberJoin(w http.ResponseWriter, r *http.Request) {
	url, ok := memberURL(w, r)
	if !ok {
		return
	}
	if url == "" {
		apiError(w, http.StatusBadRequest, "url must be set")
		return
	}
	rt.mu.Lock()
	if slices.Contains(rt.members, url) {
		rt.mu.Unlock()
		apiError(w, http.StatusConflict, "member %q already joined", url)
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
		apiError(w, http.StatusNotFound, "no member %q", url)
		return
	}
	if len(rt.members) == 1 {
		rt.mu.Unlock()
		apiError(w, http.StatusConflict, "cannot remove the last member")
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "reading body: %v", err)
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
	var gid int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &gid); err != nil {
		apiError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	rt.mu.Lock()
	ref, ok := rt.jobs[gid]
	rt.mu.Unlock()
	if !ok {
		apiError(w, http.StatusNotFound, "no job %d", gid)
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
	}](rt, "/api/v1/jobs") {
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
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (rt *Router) handleSched(w http.ResponseWriter, _ *http.Request) {
	var parts []serve.SchedulerStatus
	for _, p := range fanOut[serve.SchedulerStatus](rt, "/api/v1/scheduler") {
		if p.ok {
			parts = append(parts, p.body)
		}
	}
	if len(parts) == 0 {
		apiError(w, http.StatusBadGateway, "no member reachable")
		return
	}
	agg := serve.MergeSchedulerStatuses(parts)
	agg.Shards = parts
	writeJSON(w, http.StatusOK, agg)
}

// --- Aggregated health and metrics -------------------------------------

// snapshot polls every member's shard endpoint and builds the
// federation-wide view /healthz and /metrics render.
func (rt *Router) snapshot() Snapshot {
	polls := fanOut[struct {
		Shards     []serve.ShardStatus `json:"shards"`
		Migrations int64               `json:"migrations"`
	}](rt, "/api/v1/shards")
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
	writeJSON(w, http.StatusOK, map[string]any{
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
