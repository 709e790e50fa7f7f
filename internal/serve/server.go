package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"heracles/internal/experiment"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/sched"
	"heracles/internal/workload"
)

// Config configures a control-plane server.
type Config struct {
	// Lab supplies calibrated workloads and the reference hardware; nil
	// selects experiment.DefaultLab(). All instances on the reference
	// generation share it, so each workload calibrates at most once.
	Lab *experiment.Lab
	// DefaultSpeed is the tick rate for instances that do not set one:
	// simulated seconds per wall-clock second. 0 selects 1 (real time);
	// SpeedMax (-1) free-runs.
	DefaultSpeed float64
	// MaxInstances caps the pool (0 selects 64); creates beyond the cap
	// fail with 503.
	MaxInstances int
	// Drivers is the epoch scheduler's worker pool size — the number of
	// goroutines stepping instance epochs concurrently (the daemon's
	// -drivers knob). 0 selects GOMAXPROCS.
	Drivers int
	// Shards places instances on that many shards behind a
	// consistent-hash instance→shard map (the daemon's -shards knob): a
	// shard is a label an instance keeps for life and a migration
	// target. Every shard shares the one epoch scheduler and the one job
	// scheduler. 0 selects 1 (unsharded).
	Shards int

	// SchedPolicy names the fleet scheduler's placement policy
	// (slack-greedy, bin-pack, spread, random; default "slack-greedy").
	// The scheduler dispatches jobs submitted via POST /api/v1/jobs over
	// the live instance pool.
	SchedPolicy string

	// Tunables only this package's tests set; zero selects the default.
	schedInterval    time.Duration // job dispatch cadence (1s)
	schedSeed        uint64        // job scheduler's choice streams
	restartBackoff   time.Duration // supervisorConfig.backoff
	maxCrashRestarts int           // supervisorConfig.maxConsec
	checkpointEpochs int           // supervisorConfig.ckptEvery
	stableEpochs     int           // supervisorConfig.stable
}

// Server owns the instance pool, the one fleet job driver dispatching
// over it, and the HTTP API over both.
type Server struct {
	cfg  Config
	lab  *experiment.Lab
	reg  *Registry
	jobs *jobDriver
	mux  *http.ServeMux

	compactOnce sync.Once
	compactLab  *experiment.Lab
}

// New builds a server and its route table. Unknown scheduler policy
// names panic: server configuration is programmer input.
func New(cfg Config) *Server {
	if cfg.Lab == nil {
		cfg.Lab = experiment.DefaultLab()
	}
	if cfg.DefaultSpeed == 0 {
		cfg.DefaultSpeed = 1
	}
	if cfg.MaxInstances == 0 {
		cfg.MaxInstances = 64
	}
	if cfg.SchedPolicy == "" {
		cfg.SchedPolicy = "slack-greedy"
	}
	if cfg.schedInterval <= 0 {
		cfg.schedInterval = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	policy, err := sched.PolicyByName(cfg.SchedPolicy)
	if err != nil {
		panic("serve: " + err.Error())
	}
	reg := NewRegistry(cfg.Drivers, cfg.Shards)
	s := &Server{
		cfg:  cfg,
		lab:  cfg.Lab,
		reg:  reg,
		jobs: newJobDriver(reg, policy, cfg.schedSeed, cfg.schedInterval),
	}
	s.mux = Mount(s, routeTable)
	return s
}

// Handler returns the HTTP handler serving every route in Routes.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the instance pool (the daemon bootstraps through it).
func (s *Server) Registry() *Registry { return s.reg }

// CreateInstance validates the spec, builds the instance and registers
// it under the next minted id on its consistent-hash home shard — the
// programmatic equivalent of POST /api/v1/instances.
func (s *Server) CreateInstance(spec InstanceSpec) (*Instance, error) {
	return s.create(spec, "", -1)
}

// ResumeInstance restores a stored checkpoint under the id it was stored
// as — a name, or a minted i<n>, which moves the mint counter past n — so
// a daemon resuming its checkpoint directory keeps every id. A
// free-running speed drops the checkpoint's tick schedule instead of
// refusing it: it fast-forwards a paced daemon's snapshot.
func (s *Server) ResumeInstance(id string, spec InstanceSpec) (*Instance, error) {
	if !validName(id) && !minted(id) {
		return nil, fmt.Errorf("%q is not an instance id", id)
	}
	if spec.Restore != nil && spec.Speed < 0 {
		spec.Restore = spec.Restore.unpaced()
	}
	return s.create(spec, id, -1)
}

// create reserves name — or, when name is empty, mints an id — and
// builds the instance under it on shard or, with shard < 0, on the id's
// consistent-hash home.
func (s *Server) create(spec InstanceSpec, name string, shard int) (*Instance, error) {
	id, err := s.reg.Reserve(s.cfg.MaxInstances, name)
	if err != nil {
		return nil, err
	}
	if shard < 0 {
		shard = s.reg.table.PlaceIndex(id)
	}
	inst, err := s.createInstance(spec, id, shard)
	if err != nil {
		s.reg.Unreserve(id)
	}
	return inst, err
}

// createInstance builds the instance under id, which the caller has
// reserved, on shard, and registers it. The shard is the instance's for
// life. A failure leaves the reservation to the caller.
func (s *Server) createInstance(spec InstanceSpec, id string, shard int) (*Instance, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	speed, compact := spec.Speed, spec.Compact
	if cp := spec.Restore; cp != nil {
		// The checkpoint knows its own hardware generation and tick
		// rate; validateSpec has already rejected conflicting fields.
		speed, compact = cmp.Or(speed, cp.Speed), cp.Compact
	}
	speed = cmp.Or(speed, s.cfg.DefaultSpeed)
	if err := checkSchedule(spec.Restore, speed); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	sup := supervisorConfig{
		backoff:   s.cfg.restartBackoff,
		maxConsec: s.cfg.maxCrashRestarts,
		ckptEvery: s.cfg.checkpointEpochs,
		stable:    s.cfg.stableEpochs,
		// A crash kills the fleet scheduler's tasks with the machine:
		// evict their jobs (requeuing against the retry budget) before
		// the instance restarts from its checkpoint.
		onCrash: func(in *Instance) { s.jobs.killJobsOn(in, "", "instance crashed") },
	}
	inst, err := newInstance(id, shard, spec, s.labFor(compact), speed, sup, s.reg.pool)
	if err != nil {
		return nil, err
	}
	s.reg.Put(inst)
	return inst, nil
}

// Close stops the job dispatch loop, then every instance. The order
// matters: the job driver holds task references into live instances, so
// it must quiesce before the pool tears down. Safe to call more than
// once.
func (s *Server) Close() {
	s.jobs.stop()
	s.reg.Close()
}

// labFor resolves the lab for a hardware generation, building the
// compact-generation lab on first use.
func (s *Server) labFor(compact bool) *experiment.Lab {
	if !compact {
		return s.lab
	}
	s.compactOnce.Do(func() { s.compactLab = experiment.NewLab(hw.CompactConfig()) })
	return s.compactLab
}

var (
	errTooMany   = errors.New("serve: instance cap reached")
	errNameTaken = errors.New("serve: instance id already taken")
)

// validName reports whether id may name an instance: 1-64 bytes of
// A-Z a-z 0-9 _ . -, starting with a letter or digit — path-safe — and
// not of the form the daemon mints.
func validName(id string) bool {
	if id == "" || len(id) > 64 || minted(id) {
		return false
	}
	for i, c := range []byte(id) {
		alnum := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// minted reports whether id has the form the daemon mints, i<digits>.
func minted(id string) bool {
	return len(id) > 1 && id[0] == 'i' && strings.Trim(id[1:], "0123456789") == ""
}

// validateSpec rejects a create request with unknown workload names or
// out-of-range numbers before any simulation state is built.
func validateSpec(spec InstanceSpec) error {
	if spec.Restore != nil {
		if spec.LC != "" || len(spec.BEs) > 0 || spec.Load != 0 || spec.SLOScale != 0 || spec.Scenario != nil || spec.Compact {
			return fmt.Errorf("restore conflicts with lc/bes/load/slo_scale/scenario/compact: that state comes from the checkpoint")
		}
		if err := validateCheckpoint(spec.Restore); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	if spec.LC != "" {
		if _, ok := workload.LCByName(spec.LC); !ok {
			return fmt.Errorf("unknown LC workload %q", spec.LC)
		}
	}
	for _, att := range spec.BEs {
		if err := checkBEName(att.Workload); err != nil {
			return err
		}
		if _, err := placementByName(att.Placement); err != nil {
			return err
		}
	}
	if spec.Load < 0 || spec.Load > 1 {
		return fmt.Errorf("load %v outside [0, 1]", spec.Load)
	}
	if spec.SLOScale < 0 {
		return fmt.Errorf("slo_scale %v must not be negative", spec.SLOScale)
	}
	if spec.Speed < 0 && spec.Speed != SpeedMax {
		return fmt.Errorf("speed %v invalid (positive, 0 for server default, or -1 for max)", spec.Speed)
	}
	if spec.MaxEpochs < 0 {
		return fmt.Errorf("max_epochs %v must not be negative", spec.MaxEpochs)
	}
	return nil
}

// Route is one endpoint of a route table whose handlers take a receiver
// of type T: the daemon's table and the federation router's.
type Route[T any] struct {
	Method  string // "ANY" matches every method
	Pattern string
	Doc     string
	Handle  func(T, http.ResponseWriter, *http.Request)
}

// Mount builds a mux serving every route, with recv as the receiver of
// each handler.
func Mount[T any](recv T, routes []Route[T]) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		pattern := rt.Pattern
		if rt.Method != "ANY" {
			pattern = rt.Method + " " + pattern
		}
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { rt.Handle(recv, w, r) })
	}
	return mux
}

// RouteNames lists every route as a "METHOD PATTERN" string, in table
// order.
func RouteNames[T any](routes []Route[T]) []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.Method + " " + rt.Pattern
	}
	return out
}

// routeTable is the single source of truth for the HTTP surface: the mux
// is built from it and Routes exposes it for documentation enforcement.
var routeTable = []Route[*Server]{
	{"GET", "/healthz", "liveness probe: status and instance count", (*Server).handleHealthz},
	{"GET", "/metrics", "Prometheus exposition across all instances", (*Server).handleMetrics},
	{"GET", "/api/v1/instances", "list instance statuses", (*Server).handleList},
	{"POST", "/api/v1/instances", "create an instance from an InstanceSpec", (*Server).handleCreate},
	{"GET", "/api/v1/instances/{id}", "inspect one instance", onInstance((*Server).handleGet)},
	{"DELETE", "/api/v1/instances/{id}", "stop and remove an instance", (*Server).handleDelete},
	{"PUT", "/api/v1/instances/{id}/load", "change the offered LC load target", onInstance((*Server).handleSetLoad)},
	{"PUT", "/api/v1/instances/{id}/slo", "change the controller-visible SLO scale", onInstance((*Server).handleSetSLO)},
	{"PUT", "/api/v1/instances/{id}/degrade", "inject or clear LC service degradation", onInstance((*Server).handleDegrade)},
	{"POST", "/api/v1/instances/{id}/bes", "attach a best-effort task", onInstance((*Server).handleAttachBE)},
	{"DELETE", "/api/v1/instances/{id}/bes/{workload}", "detach best-effort tasks by workload name", onInstance((*Server).handleDetachBE)},
	{"POST", "/api/v1/instances/{id}/scenario", "drive the instance by a declarative scenario", onInstance((*Server).handleScenario)},
	{"POST", "/api/v1/instances/{id}/checkpoint", "snapshot the instance's full simulation state for restore or migration", onInstance((*Server).handleCheckpoint)},
	{"POST", "/api/v1/instances/{id}/migrate", "checkpoint, ship and restore the instance onto another shard or a peer daemon mid-run", onInstance((*Server).handleMigrate)},
	{"GET", "/api/v1/instances/{id}/health", "supervisor health: crash and restart counters, circuit-breaker state", onInstance((*Server).handleInstanceHealth)},
	{"POST", "/api/v1/instances/{id}/faults", "inject a fault: leaf-crash, telemetry-blackout, slow-machine, actuation-fail, be-kill or driver-panic", onInstance((*Server).handleFaultInject)},
	{"GET", "/api/v1/instances/{id}/slo", "error-budget status: objective, budget spent, burn rates per window, firing alerts", onInstance((*Server).handleSLO)},
	{"GET", "/api/v1/instances/{id}/trace", "recent epoch span timings from the instance's trace ring", onInstance((*Server).handleTrace)},
	{"GET", "/api/v1/instances/{id}/stream", "SSE stream of epoch telemetry, controller and scheduler events", onInstance((*Server).handleStream)},
	{"GET", "/api/v1/shards", "per-shard instance counts and the migration total", (*Server).handleShards},
	{"GET", "/api/v1/scheduler", "fleet scheduler status and goodput accounting", (*Server).handleSchedStatus},
	{"GET", "/api/v1/jobs", "list best-effort jobs", (*Server).handleJobsList},
	{"POST", "/api/v1/jobs", "submit a best-effort job for fleet-wide dispatch", (*Server).handleJobSubmit},
	{"GET", "/api/v1/jobs/{id}", "inspect one job", (*Server).handleJobGet},
	{"DELETE", "/api/v1/jobs/{id}", "cancel a job, evicting it if running", (*Server).handleJobCancel},
}

// Routes lists every registered endpoint as "METHOD PATTERN" strings, in
// registration order.
func Routes() []string { return RouteNames(routeTable) }

// --- Handler plumbing --------------------------------------------------

// WriteJSON answers code with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// APIError answers code with the body {"error": <message>}.
func APIError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Body caps on mutating routes, the federation router's included: a
// misbehaving client must not stream an unbounded request into memory.
// BodyLimit (1 MiB) caps every body but an instance create's, which may
// carry a full InstanceSpec.Restore checkpoint and gets RestoreBodyLimit
// (64 MiB).
const (
	BodyLimit        = 1 << 20
	RestoreBodyLimit = 64 << 20
)

// DecodeBody strictly decodes a JSON request body of at most limit bytes
// into v; unknown fields are an error. A failure is answered (BodyError)
// and reported false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		BodyError(w, err)
		return false
	}
	return true
}

// BodyError answers a request body that failed to read or decode: 413
// when it ran past its cap (the connection then closes), 400 otherwise.
func BodyError(w http.ResponseWriter, err error) {
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		APIError(w, http.StatusRequestEntityTooLarge, "request body too large: the limit is %d bytes", mbe.Limit)
		return
	}
	APIError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// onInstance mounts a handler of one instance: it resolves {id} first,
// answering an unknown one 404.
func onInstance(h func(*Server, http.ResponseWriter, *http.Request, *Instance)) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if inst, ok := s.reg.Get(id); ok {
			h(s, w, r, inst)
		} else {
			APIError(w, http.StatusNotFound, "no instance %q", id)
		}
	}
}

// doErr maps an instance mutation error onto an HTTP response.
func doErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrStopped):
		APIError(w, http.StatusConflict, "instance stopped")
	case errors.Is(err, ErrQuarantined):
		APIError(w, http.StatusConflict, "instance quarantined after repeated crashes")
	case errors.Is(err, ErrCrashed):
		APIError(w, http.StatusServiceUnavailable, "instance crashed, restart in progress")
	default:
		APIError(w, http.StatusBadRequest, "%v", err)
	}
	return false
}

// --- Handlers ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"instances":       s.reg.Len(),
		"shards":          s.reg.ShardCount(),
		"migrations":      s.reg.Migrations(),
		"epoch_scheduler": s.reg.pool.status(),
	})
}

func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"shards":     s.reg.ShardStatuses(),
		"migrations": s.reg.Migrations(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	sts := s.reg.Statuses()
	WriteJSON(w, http.StatusOK, map[string]any{"instances": sts})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := ""
	if q := r.URL.Query(); q.Has("id") {
		name = q.Get("id")
		if !validName(name) {
			APIError(w, http.StatusBadRequest, "id %q: want 1-64 of A-Z a-z 0-9 _ . - starting with a letter or digit, and not the daemon's own i<n> form", name)
			return
		}
	}
	var spec InstanceSpec
	if !DecodeBody(w, r, &spec, RestoreBodyLimit) {
		return
	}
	inst, err := s.create(spec, name, -1)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, errTooMany):
			code = http.StatusServiceUnavailable
		case errors.Is(err, errNameTaken):
			code = http.StatusConflict
		}
		APIError(w, code, "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, inst.Status())
}

func (s *Server) handleGet(w http.ResponseWriter, _ *http.Request, inst *Instance) {
	WriteJSON(w, http.StatusOK, inst.Status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inst, _, ok := s.reg.Remove(id)
	if !ok {
		APIError(w, http.StatusNotFound, "no instance %q", id)
		return
	}
	inst.publishLifecycle("deleted", "")
	inst.Stop()
	WriteJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleSetLoad(w http.ResponseWriter, r *http.Request, inst *Instance) {
	var body struct {
		Load float64 `json:"load"`
	}
	if !DecodeBody(w, r, &body, BodyLimit) {
		return
	}
	if body.Load < 0 || body.Load > 1 {
		APIError(w, http.StatusBadRequest, "load %v outside [0, 1]", body.Load)
		return
	}
	if !doErr(w, inst.SetLoad(body.Load)) {
		return
	}
	WriteJSON(w, http.StatusOK, map[string]float64{"load": body.Load})
}

func (s *Server) handleSetSLO(w http.ResponseWriter, r *http.Request, inst *Instance) {
	var body struct {
		Scale float64 `json:"scale"`
	}
	if !DecodeBody(w, r, &body, BodyLimit) {
		return
	}
	if body.Scale <= 0 {
		APIError(w, http.StatusBadRequest, "scale %v must be positive", body.Scale)
		return
	}
	slo, err := inst.SetSLOScale(body.Scale)
	if !doErr(w, err) {
		return
	}
	WriteJSON(w, http.StatusOK, map[string]float64{
		"slo_scale": body.Scale,
		"slo_ms":    1e3 * slo.Seconds(),
	})
}

func (s *Server) handleDegrade(w http.ResponseWriter, r *http.Request, inst *Instance) {
	var body struct {
		Factor float64 `json:"factor"`
	}
	if !DecodeBody(w, r, &body, BodyLimit) {
		return
	}
	if body.Factor < 0 {
		APIError(w, http.StatusBadRequest, "factor %v must not be negative", body.Factor)
		return
	}
	if !doErr(w, inst.SetDegrade(body.Factor)) {
		return
	}
	WriteJSON(w, http.StatusOK, map[string]float64{"factor": body.Factor})
}

func (s *Server) handleAttachBE(w http.ResponseWriter, r *http.Request, inst *Instance) {
	var att BEAttachment
	if !DecodeBody(w, r, &att, BodyLimit) {
		return
	}
	if err := checkBEName(att.Workload); err != nil {
		APIError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !doErr(w, inst.AttachBE(att)) {
		return
	}
	WriteJSON(w, http.StatusCreated, inst.Status())
}

func (s *Server) handleDetachBE(w http.ResponseWriter, r *http.Request, inst *Instance) {
	name := r.PathValue("workload")
	n, err := inst.DetachBE(name)
	if !doErr(w, err) {
		return
	}
	if n == 0 {
		APIError(w, http.StatusNotFound, "no BE task running workload %q", name)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"removed": n, "workload": name})
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request, inst *Instance) {
	var spec ScenarioSpec
	if !DecodeBody(w, r, &spec, BodyLimit) {
		return
	}
	sc, err := spec.Build()
	if err != nil {
		APIError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !doErr(w, inst.InstallScenario(sc, &spec)) {
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"scenario":   sc.Name,
		"duration_s": sc.Duration.Seconds(),
		"events":     len(sc.Events),
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request, inst *Instance) {
	cp, err := inst.Checkpoint()
	if !doErr(w, err) {
		return
	}
	WriteJSON(w, http.StatusOK, cp)
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request, inst *Instance) {
	st, enabled, err := inst.SLOStatus()
	if !doErr(w, err) {
		return
	}
	if !enabled {
		APIError(w, http.StatusNotFound, "instance %q runs without the error-budget engine", inst.ID())
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request, inst *Instance) {
	WriteJSON(w, http.StatusOK, map[string]any{"spans": inst.TraceSpans()})
}

func (s *Server) handleInstanceHealth(w http.ResponseWriter, _ *http.Request, inst *Instance) {
	WriteJSON(w, http.StatusOK, inst.Health())
}

func (s *Server) handleFaultInject(w http.ResponseWriter, r *http.Request, inst *Instance) {
	var req FaultRequest
	if !DecodeBody(w, r, &req, BodyLimit) {
		return
	}
	if err := req.check(); err != nil {
		APIError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Faults that kill BE tasks must go through the fleet scheduler's
	// bookkeeping first, so the affected jobs evict (charging their retry
	// budget) instead of lingering as running against dead tasks.
	killed := 0
	switch req.Kind {
	case fault.LeafCrash.String():
		killed = s.jobs.killJobsOn(inst, "", "killed by injected fault")
	case fault.BEKill.String():
		killed = s.jobs.killJobsOn(inst, req.Workload, "killed by injected fault")
	}
	if !doErr(w, inst.InjectFault(req)) {
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{"kind": req.Kind, "jobs_killed": killed})
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, inst *Instance) {
	serveSSE(w, r, inst.hub, "stream "+inst.ID())
}

// serveSSE streams hub's messages to the client as server-sent events,
// after a hello comment, until the client leaves or the hub closes. A
// closed hub gets a final comment, so clients can tell shutdown from a
// broken connection.
func serveSSE(w http.ResponseWriter, r *http.Request, hub *Hub, hello string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		APIError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub := hub.Subscribe(256)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": %s\n\n", hello)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case msg, open := <-sub.Ch():
			if !open {
				fmt.Fprint(w, ": stream closed\n\n")
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", msg.Event, msg.ID, msg.Data)
			fl.Flush()
		}
	}
}
