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
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
	// Client performs member requests; nil selects a 120s-timeout client
	// (restore bodies shipped during migration can be large).
	Client *http.Client
}

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
	client *http.Client
	mux    *http.ServeMux

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
	sort.Strings(members)
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 120 * time.Second}
	}
	rt := &Router{
		client:  client,
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
	{"GET", "/api/v1/jobs/{id}", "inspect one federated job", (*Router).handleJobGet},
	{"DELETE", "/api/v1/jobs/{id}", "cancel a federated job", (*Router).handleJobCancel},
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

// memberDo performs one member request and counts it.
func (rt *Router) memberDo(method, url string, body io.Reader, contentType string) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return rt.memberSend(req)
}

// memberSend sends one built member request and counts it.
func (rt *Router) memberSend(req *http.Request) (*http.Response, error) {
	rt.proxied.Add(1)
	start := time.Now()
	resp, err := rt.client.Do(req)
	proxyHist.Observe(time.Since(start))
	return resp, err
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

	resp, err := rt.memberDo("POST", member+"/api/v1/instances", bytes.NewReader(body), "application/json")
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		relay(w, resp)
		return
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		apiError(w, http.StatusBadGateway, "member %s: decoding create response: %v", member, err)
		return
	}
	rt.repoint(fid, placement{member: member, localID: st.ID})
	info := InstanceInfo{Status: st, Member: member, MemberID: st.ID}
	info.ID = fid
	writeJSON(w, http.StatusCreated, info)
}

func (rt *Router) handleInstancesList(w http.ResponseWriter, _ *http.Request) {
	type memberList struct {
		member string
		sts    []serve.Status
		err    error
	}
	members := rt.Members()
	results := make([]memberList, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			resp, err := rt.memberDo("GET", m+"/api/v1/instances", nil, "")
			if err != nil {
				results[i] = memberList{member: m, err: err}
				return
			}
			defer resp.Body.Close()
			var body struct {
				Instances []serve.Status `json:"instances"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			results[i] = memberList{member: m, sts: body.Instances, err: err}
		}(i, m)
	}
	wg.Wait()

	rt.mu.Lock()
	out := make([]InstanceInfo, 0, len(rt.insts))
	for _, res := range results {
		for _, st := range res.sts {
			fid, ok := rt.rev[res.member][st.ID]
			if !ok {
				continue // created out-of-band, not federated
			}
			info := InstanceInfo{Status: st, Member: res.member, MemberID: st.ID}
			info.ID = fid
			out = append(out, info)
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
	resp, err := rt.memberDo("GET", p.member+"/api/v1/instances/"+p.localID, nil, "")
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", p.member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", p.member, err)
		return
	}
	info := InstanceInfo{Status: st, Member: p.member, MemberID: st.ID}
	info.ID = fid
	writeJSON(w, http.StatusOK, info)
}

func (rt *Router) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	fid := r.PathValue("id")
	p, ok := rt.lookup(fid)
	if !ok {
		apiError(w, http.StatusNotFound, "no instance %q", fid)
		return
	}
	resp, err := rt.memberDo("DELETE", p.member+"/api/v1/instances/"+p.localID, nil, "")
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
	resp, err := rt.memberSend(req)
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
	resp, err := rt.memberDo("POST", p.member+"/api/v1/instances/"+p.localID+"/migrate", bytes.NewReader(body), "application/json")
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
	fid := r.PathValue("id")
	var req FedMigrateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		apiError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	target := strings.TrimSuffix(strings.TrimSpace(req.Member), "/")
	rt.mu.Lock()
	known := slicesContains(rt.members, target)
	rt.mu.Unlock()
	if !known {
		apiError(w, http.StatusBadRequest, "no member %q", target)
		return
	}
	res, err := rt.migrate(fid, target)
	if err != nil {
		apiError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// rebalanceOnto migrates every federated instance whose placement
// disagrees with the given table onto its hash home. Returns the number
// moved and the first error (the sweep keeps going on per-instance
// failures so one stuck instance cannot wedge a whole rebalance).
func (rt *Router) rebalanceOnto(table *chash.Table) (int, error) {
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
	return moved, firstErr
}

func (rt *Router) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	table := rt.table
	rt.mu.Unlock()
	moved, err := rt.rebalanceOnto(table)
	out := map[string]any{"moved": moved}
	if err != nil {
		out["error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

// --- Membership --------------------------------------------------------

type memberRequest struct {
	URL string `json:"url"`
}

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

// handleMemberJoin adds a member to the hash population and rebalances
// the minimal set of instances — exactly those whose hash home moved to
// the joiner — onto it.
func (rt *Router) handleMemberJoin(w http.ResponseWriter, r *http.Request) {
	var req memberRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	url := strings.TrimSuffix(strings.TrimSpace(req.URL), "/")
	if url == "" {
		apiError(w, http.StatusBadRequest, "url must be set")
		return
	}
	rt.mu.Lock()
	if slicesContains(rt.members, url) {
		rt.mu.Unlock()
		apiError(w, http.StatusConflict, "member %q already joined", url)
		return
	}
	rt.table = rt.table.Add(url)
	rt.members = append(rt.members, url)
	sort.Strings(rt.members)
	table := rt.table
	rt.mu.Unlock()
	moved, err := rt.rebalanceOnto(table)
	out := map[string]any{"member": url, "moved": moved}
	if err != nil {
		out["error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMemberLeave migrates the member's instances onto their new hash
// homes, then drops it from the population.
func (rt *Router) handleMemberLeave(w http.ResponseWriter, r *http.Request) {
	var req memberRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	url := strings.TrimSuffix(strings.TrimSpace(req.URL), "/")
	rt.mu.Lock()
	if !slicesContains(rt.members, url) {
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
	for i, m := range rt.members {
		if m == url {
			rt.members = append(rt.members[:i], rt.members[i+1:]...)
			break
		}
	}
	table := rt.table
	rt.mu.Unlock()
	moved, err := rt.rebalanceOnto(table)
	out := map[string]any{"member": url, "moved": moved}
	if err != nil {
		out["error"] = err.Error()
		writeJSON(w, http.StatusBadGateway, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func slicesContains(list []string, v string) bool {
	for _, m := range list {
		if m == v {
			return true
		}
	}
	return false
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

	resp, err := rt.memberDo("POST", member+"/api/v1/jobs", bytes.NewReader(body), "application/json")
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		apiError(w, http.StatusBadGateway, "member %s: decoding job: %v", member, err)
		return
	}
	rt.mu.Lock()
	rt.jobs[gid] = jobRef{member: member, localID: st.ID}
	rt.mu.Unlock()
	st.ID = gid
	writeJSON(w, resp.StatusCode, st)
}

// jobDo proxies one job request by federated id, rewriting ids in both
// directions.
func (rt *Router) jobDo(w http.ResponseWriter, r *http.Request, method string) {
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
	resp, err := rt.memberDo(method, fmt.Sprintf("%s/api/v1/jobs/%d", ref.member, ref.localID), nil, "")
	if err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", ref.member, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		apiError(w, http.StatusBadGateway, "member %s: %v", ref.member, err)
		return
	}
	st.ID = gid
	writeJSON(w, http.StatusOK, st)
}

func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rt.jobDo(w, r, "GET")
}

func (rt *Router) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rt.jobDo(w, r, "DELETE")
}

func (rt *Router) handleJobsList(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	refs := make(map[int]jobRef, len(rt.jobs))
	for gid, ref := range rt.jobs {
		refs[gid] = ref
	}
	rt.mu.Unlock()
	// One list per member, then rewrite ids through the reverse mapping.
	byMember := make(map[string]map[int]serve.JobStatus)
	for _, m := range rt.Members() {
		resp, err := rt.memberDo("GET", m+"/api/v1/jobs", nil, "")
		if err != nil {
			continue
		}
		var body struct {
			Jobs []serve.JobStatus `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		byMember[m] = make(map[int]serve.JobStatus, len(body.Jobs))
		for _, st := range body.Jobs {
			byMember[m][st.ID] = st
		}
	}
	out := make([]serve.JobStatus, 0, len(refs))
	for gid, ref := range refs {
		st, ok := byMember[ref.member][ref.localID]
		if !ok {
			continue
		}
		st.ID = gid
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (rt *Router) handleSched(w http.ResponseWriter, _ *http.Request) {
	var parts []serve.SchedulerStatus
	for _, m := range rt.Members() {
		resp, err := rt.memberDo("GET", m+"/api/v1/scheduler", nil, "")
		if err != nil {
			continue
		}
		var st serve.SchedulerStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			continue
		}
		parts = append(parts, st)
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

// snapshot polls every member's shard endpoint concurrently and builds
// the federation-wide view /healthz and /metrics render.
func (rt *Router) snapshot() Snapshot {
	members := rt.Members()
	snaps := make([]MemberSnapshot, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			snaps[i] = MemberSnapshot{Member: m}
			resp, err := rt.memberDo("GET", m+"/api/v1/shards", nil, "")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var body struct {
				Shards     []serve.ShardStatus `json:"shards"`
				Migrations int64               `json:"migrations"`
			}
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
				return
			}
			snaps[i].Up = true
			snaps[i].Shards = body.Shards
			snaps[i].Migrations = body.Migrations
			for _, sh := range body.Shards {
				snaps[i].Instances += sh.Instances
			}
		}(i, m)
	}
	wg.Wait()
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
