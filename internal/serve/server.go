package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
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
	// CompactLab backs instances created with "compact": true; nil builds
	// a lab on hw.CompactConfig() on first use.
	CompactLab *experiment.Lab
	// DefaultSpeed is the tick rate for instances that do not set one:
	// simulated seconds per wall-clock second. 0 selects 1 (real time);
	// SpeedMax (-1) free-runs.
	DefaultSpeed float64
	// MaxInstances caps the pool (0 selects 64); creates beyond the cap
	// fail with 503.
	MaxInstances int
	// Workers bounds status-snapshot and shutdown fan-out over the
	// instance pool (0 selects GOMAXPROCS).
	Workers int
	// Drivers is the total epoch-scheduler worker budget — the number of
	// goroutines stepping instance epochs concurrently (the daemon's
	// -drivers knob), divided across shards with a floor of one worker
	// each. 0 selects GOMAXPROCS.
	Drivers int
	// Shards splits the control plane into that many isolated domains —
	// each with its own epoch-scheduler heap and worker pool, lifecycle
	// SSE hub and fleet job scheduler — behind a consistent-hash
	// instance→shard map, with work-stealing between the shard pools
	// (the daemon's -shards knob). 0 selects 1 (unsharded).
	Shards int

	// SchedPolicy names the fleet scheduler's placement policy
	// (slack-greedy, bin-pack, spread, random; default "slack-greedy").
	// The scheduler dispatches jobs submitted via POST /api/v1/jobs over
	// the live instance pool.
	SchedPolicy string
	// SchedInterval is the dispatch loop's wall-clock cadence (default
	// 1s; tests shorten it).
	SchedInterval time.Duration
	// SchedSeed seeds the scheduler's deterministic choice streams.
	SchedSeed uint64

	// RestartBackoff is the supervisor's base restart delay after a
	// driver crash; it doubles per consecutive crash (capped at 16x) with
	// up to 50% deterministic jitter. 0 selects 250ms.
	RestartBackoff time.Duration
	// MaxCrashRestarts is the circuit breaker: an instance exceeding this
	// many consecutive crashes is quarantined instead of restarted. 0
	// selects 5; the counter clears after StableEpochs clean epochs.
	MaxCrashRestarts int
	// CheckpointEpochs is how often (in epochs) the supervisor refreshes
	// each instance's in-memory restart checkpoint. 0 selects 30.
	CheckpointEpochs int
	// StableEpochs is how many crash-free epochs return a degraded
	// instance to healthy and reset its consecutive-crash count. 0
	// selects 120.
	StableEpochs int
}

// Server owns the instance pool and the HTTP API over it.
type Server struct {
	cfg    Config
	lab    *experiment.Lab
	reg    *Registry
	mux    *http.ServeMux
	scheds []*schedDriver // one fleet driver per registry shard
	jobRR  atomic.Uint64  // round-robin cursor for job submission

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
	if cfg.SchedInterval <= 0 {
		cfg.SchedInterval = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	policy, err := sched.PolicyByName(cfg.SchedPolicy)
	if err != nil {
		panic("serve: " + err.Error())
	}
	s := &Server{
		cfg:        cfg,
		lab:        cfg.Lab,
		reg:        NewRegistry(cfg.Workers, cfg.Drivers, cfg.Shards),
		compactLab: cfg.CompactLab,
	}
	s.mux = http.NewServeMux()
	for _, rt := range routeTable {
		rt := rt
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.handler(s, w, r)
		})
	}
	for _, sh := range s.reg.shards {
		s.scheds = append(s.scheds, newSchedDriver(s, sh, cfg.Shards, policy, cfg.SchedSeed, cfg.SchedInterval))
	}
	return s
}

// Handler returns the HTTP handler serving every route in Routes.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the instance pool (the daemon bootstraps through it).
func (s *Server) Registry() *Registry { return s.reg }

// CreateInstance validates the spec, builds the instance and registers
// it on its consistent-hash home shard — the programmatic equivalent of
// POST /api/v1/instances.
func (s *Server) CreateInstance(spec InstanceSpec) (*Instance, error) {
	return s.createInstance(spec, -1, "")
}

// createInstance builds an instance on an explicit shard (the
// migrate-in path) or, with shardIdx < 0, on the id's consistent-hash
// home.
func (s *Server) createInstance(spec InstanceSpec, shardIdx int, detail string) (*Instance, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	speed := spec.Speed
	compact := spec.Compact
	if spec.Restore != nil {
		// The checkpoint knows its own hardware generation and tick
		// rate; validateSpec has already rejected conflicting fields.
		compact = spec.Restore.Compact
		if speed == 0 {
			speed = spec.Restore.Speed
		}
	}
	if speed == 0 {
		speed = s.cfg.DefaultSpeed
	}
	if speed < 0 && spec.Restore != nil && spec.Restore.paced() {
		return nil, fmt.Errorf("restore: checkpoint carries a tick schedule (next_due_unix_ns) but speed %v free-runs: restore it paced, or drop next_due_unix_ns, batch and stretch", speed)
	}
	id, ok := s.reg.Reserve(s.cfg.MaxInstances)
	if !ok {
		return nil, errTooMany
	}
	if shardIdx < 0 {
		shardIdx = s.reg.PlaceShard(id)
	}
	sh := s.reg.shards[shardIdx]
	driver := s.scheds[shardIdx]
	sup := supervisorConfig{
		backoff:   s.cfg.RestartBackoff,
		maxConsec: s.cfg.MaxCrashRestarts,
		ckptEvery: s.cfg.CheckpointEpochs,
		stable:    s.cfg.StableEpochs,
		// A crash kills the fleet scheduler's tasks with the machine:
		// evict their jobs (requeuing against the retry budget) before
		// the instance restarts from its checkpoint. The shard — and so
		// its driver — is fixed for the instance's lifetime.
		onCrash: func(in *Instance) { driver.evictCrashed(in) },
	}
	inst, err := newInstance(id, spec, s.labFor(compact), speed, sup, sh.sched)
	if err != nil {
		s.reg.Unreserve()
		return nil, err
	}
	if detail == "" {
		s.reg.Put(inst)
	} else {
		s.reg.PutShard(inst, shardIdx, detail)
	}
	return inst, nil
}

// Close stops every shard's dispatch loop, then every instance. The
// order matters: the drivers hold task references into live instances,
// so they must quiesce before the pool tears down. Safe to call more
// than once.
func (s *Server) Close() {
	for _, d := range s.scheds {
		d.stop()
	}
	s.reg.Close()
}

// labFor resolves the lab for a hardware generation, building the
// compact-generation lab on first use.
func (s *Server) labFor(compact bool) *experiment.Lab {
	if !compact {
		return s.lab
	}
	s.compactOnce.Do(func() {
		if s.compactLab == nil {
			s.compactLab = experiment.NewLab(hw.CompactConfig())
		}
	})
	return s.compactLab
}

var errTooMany = errors.New("serve: instance cap reached")

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

// Route is one registered API endpoint; the docs checker cross-references
// this table against docs/API.md.
type Route struct {
	Method  string
	Pattern string
	Doc     string

	handler func(*Server, http.ResponseWriter, *http.Request)
}

// routeTable is the single source of truth for the HTTP surface: the mux
// is built from it and Routes exposes it for documentation enforcement.
var routeTable = []Route{
	{"GET", "/healthz", "liveness probe: status and instance count", (*Server).handleHealthz},
	{"GET", "/metrics", "Prometheus exposition across all instances", (*Server).handleMetrics},
	{"GET", "/api/v1/instances", "list instance statuses", (*Server).handleList},
	{"POST", "/api/v1/instances", "create an instance from an InstanceSpec", (*Server).handleCreate},
	{"GET", "/api/v1/instances/{id}", "inspect one instance", (*Server).handleGet},
	{"DELETE", "/api/v1/instances/{id}", "stop and remove an instance", (*Server).handleDelete},
	{"PUT", "/api/v1/instances/{id}/load", "change the offered LC load target", (*Server).handleSetLoad},
	{"PUT", "/api/v1/instances/{id}/slo", "change the controller-visible SLO scale", (*Server).handleSetSLO},
	{"PUT", "/api/v1/instances/{id}/degrade", "inject or clear LC service degradation", (*Server).handleDegrade},
	{"POST", "/api/v1/instances/{id}/bes", "attach a best-effort task", (*Server).handleAttachBE},
	{"DELETE", "/api/v1/instances/{id}/bes/{workload}", "detach best-effort tasks by workload name", (*Server).handleDetachBE},
	{"POST", "/api/v1/instances/{id}/scenario", "drive the instance by a declarative scenario", (*Server).handleScenario},
	{"POST", "/api/v1/instances/{id}/checkpoint", "snapshot the instance's full simulation state for restore or migration", (*Server).handleCheckpoint},
	{"POST", "/api/v1/instances/{id}/migrate", "checkpoint, ship and restore the instance onto another shard or a peer daemon mid-run", (*Server).handleMigrate},
	{"GET", "/api/v1/instances/{id}/health", "supervisor health: crash and restart counters, circuit-breaker state", (*Server).handleInstanceHealth},
	{"POST", "/api/v1/instances/{id}/faults", "inject a fault: leaf-crash, telemetry-blackout, slow-machine, actuation-fail, be-kill or driver-panic", (*Server).handleFaultInject},
	{"GET", "/api/v1/instances/{id}/slo", "error-budget status: objective, budget spent, burn rates per window, firing alerts", (*Server).handleSLO},
	{"GET", "/api/v1/instances/{id}/trace", "recent epoch span timings from the instance's trace ring", (*Server).handleTrace},
	{"GET", "/api/v1/instances/{id}/stream", "SSE stream of epoch telemetry, controller and scheduler events", (*Server).handleStream},
	{"GET", "/api/v1/shards", "per-shard instance counts, epoch-scheduler and fleet-scheduler accounting", (*Server).handleShards},
	{"GET", "/api/v1/shards/{shard}/stream", "SSE stream of one shard's lifecycle events: creations, deletions, migrations", (*Server).handleShardStream},
	{"GET", "/api/v1/scheduler", "fleet scheduler status and goodput accounting", (*Server).handleSchedStatus},
	{"GET", "/api/v1/jobs", "list best-effort jobs", (*Server).handleJobsList},
	{"POST", "/api/v1/jobs", "submit a best-effort job for fleet-wide dispatch", (*Server).handleJobSubmit},
	{"GET", "/api/v1/jobs/{id}", "inspect one job", (*Server).handleJobGet},
	{"DELETE", "/api/v1/jobs/{id}", "cancel a job, evicting it if running", (*Server).handleJobCancel},
}

// Routes lists every registered endpoint as "METHOD PATTERN" strings, in
// registration order.
func Routes() []string {
	out := make([]string, len(routeTable))
	for i, rt := range routeTable {
		out[i] = rt.Method + " " + rt.Pattern
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

// Body limits on mutating routes: a misbehaving client must not be able
// to stream an unbounded request into memory. Ordinary mutation bodies
// are tiny; instance creation may carry a full restore checkpoint, so it
// gets a larger allowance.
const (
	defaultBodyLimit = 1 << 20  // 1 MiB
	restoreBodyLimit = 64 << 20 // 64 MiB: InstanceSpec.Restore checkpoints
)

// decodeBody strictly decodes a JSON request body into v, capped at the
// default body limit.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeBodyLimit(w, r, v, defaultBodyLimit)
}

// decodeBodyLimit is decodeBody with an explicit size cap; an oversized
// body answers 413 and closes the connection.
func decodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			apiError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return false
		}
		apiError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// instance resolves {id} or writes a 404.
func (s *Server) instance(w http.ResponseWriter, r *http.Request) (*Instance, bool) {
	id := r.PathValue("id")
	inst, ok := s.reg.Get(id)
	if !ok {
		apiError(w, http.StatusNotFound, "no instance %q", id)
	}
	return inst, ok
}

// doErr maps an instance mutation error onto an HTTP response.
func doErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrStopped):
		apiError(w, http.StatusConflict, "instance stopped")
	case errors.Is(err, ErrQuarantined):
		apiError(w, http.StatusConflict, "instance quarantined after repeated crashes")
	case errors.Is(err, ErrCrashed):
		apiError(w, http.StatusServiceUnavailable, "instance crashed, restart in progress")
	default:
		apiError(w, http.StatusBadRequest, "%v", err)
	}
	return false
}

// --- Handlers ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"instances":       s.reg.Len(),
		"shards":          s.reg.ShardCount(),
		"migrations":      s.reg.Migrations(),
		"epoch_scheduler": s.reg.SchedStatus(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	renderMetrics(s.reg.Statuses(), s.SchedStatus(), s.reg.SchedStatus(),
		s.reg.ShardStatuses(), s.reg.Migrations()).Respond(w)
}

// ShardStatuses snapshots every shard with its fleet-scheduler
// accounting attached.
func (s *Server) ShardStatuses() []ShardStatus {
	sts := s.reg.ShardStatuses()
	for i := range sts {
		st := s.scheds[i].Status()
		sts[i].Sched = &st
	}
	return sts
}

func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":     s.ShardStatuses(),
		"migrations": s.reg.Migrations(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	sts := s.reg.Statuses()
	writeJSON(w, http.StatusOK, map[string]any{"instances": sts})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec InstanceSpec
	if !decodeBodyLimit(w, r, &spec, restoreBodyLimit) {
		return
	}
	inst, err := s.CreateInstance(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errTooMany) {
			code = http.StatusServiceUnavailable
		}
		apiError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, inst.Status())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, inst.Status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inst, shardIdx, ok := s.reg.Remove(id)
	if !ok {
		apiError(w, http.StatusNotFound, "no instance %q", id)
		return
	}
	s.reg.shards[shardIdx].publish("deleted", id, "")
	inst.publishLifecycle("deleted", "")
	inst.Stop()
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleSetLoad(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var body struct {
		Load float64 `json:"load"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Load < 0 || body.Load > 1 {
		apiError(w, http.StatusBadRequest, "load %v outside [0, 1]", body.Load)
		return
	}
	if !doErr(w, inst.SetLoad(body.Load)) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"load": body.Load})
}

func (s *Server) handleSetSLO(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var body struct {
		Scale float64 `json:"scale"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Scale <= 0 {
		apiError(w, http.StatusBadRequest, "scale %v must be positive", body.Scale)
		return
	}
	slo, err := inst.SetSLOScale(body.Scale)
	if !doErr(w, err) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{
		"slo_scale": body.Scale,
		"slo_ms":    1e3 * slo.Seconds(),
	})
}

func (s *Server) handleDegrade(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var body struct {
		Factor float64 `json:"factor"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Factor < 0 {
		apiError(w, http.StatusBadRequest, "factor %v must not be negative", body.Factor)
		return
	}
	if !doErr(w, inst.SetDegrade(body.Factor)) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"factor": body.Factor})
}

func (s *Server) handleAttachBE(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var att BEAttachment
	if !decodeBody(w, r, &att) {
		return
	}
	if err := checkBEName(att.Workload); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !doErr(w, inst.AttachBE(att)) {
		return
	}
	writeJSON(w, http.StatusCreated, inst.Status())
}

func (s *Server) handleDetachBE(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	name := r.PathValue("workload")
	n, err := inst.DetachBE(name)
	if !doErr(w, err) {
		return
	}
	if n == 0 {
		apiError(w, http.StatusNotFound, "no BE task running workload %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": n, "workload": name})
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var spec ScenarioSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	sc, err := spec.Build()
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !doErr(w, inst.InstallScenario(sc, &spec)) {
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"scenario":   sc.Name,
		"duration_s": sc.Duration.Seconds(),
		"events":     len(sc.Events),
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	cp, err := inst.Checkpoint()
	if !doErr(w, err) {
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	st, enabled, err := inst.SLOStatus()
	if !doErr(w, err) {
		return
	}
	if !enabled {
		apiError(w, http.StatusNotFound, "instance %q runs without the error-budget engine", inst.ID())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"spans": inst.TraceSpans()})
}

func (s *Server) handleInstanceHealth(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, inst.Health())
}

func (s *Server) handleFaultInject(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var req FaultRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.check(); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Faults that kill BE tasks must go through the fleet scheduler's
	// bookkeeping first, so the affected jobs evict (charging their retry
	// budget) instead of lingering as running against dead tasks.
	killed := 0
	if d := s.schedFor(inst); d != nil {
		switch req.Kind {
		case fault.LeafCrash.String():
			killed = d.killJobsOn(inst, "", "killed by injected fault")
		case fault.BEKill.String():
			killed = d.killJobsOn(inst, req.Workload, "killed by injected fault")
		}
	}
	if !doErr(w, inst.InjectFault(req)) {
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"kind": req.Kind, "jobs_killed": killed})
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		apiError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub := inst.Subscribe(256)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream %s\n\n", inst.ID())
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case msg, open := <-sub.Ch():
			if !open {
				// Instance stopped: a final comment lets clients
				// distinguish shutdown from a broken connection.
				fmt.Fprint(w, ": stream closed\n\n")
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", msg.Event, msg.ID, msg.Data)
			fl.Flush()
		}
	}
}

// handleShardStream serves one shard's lifecycle SSE feed: instance
// creations, deletions and migrations in and out of the shard.
func (s *Server) handleShardStream(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		apiError(w, http.StatusNotFound, "no shard %q", r.PathValue("shard"))
		return
	}
	hub, ok := s.reg.ShardHub(idx)
	if !ok {
		apiError(w, http.StatusNotFound, "no shard %d (server has %d)", idx, s.reg.ShardCount())
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		apiError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub := hub.Subscribe(256)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": shard %d stream\n\n", idx)
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
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
