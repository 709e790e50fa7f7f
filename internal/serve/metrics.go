package serve

import (
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"heracles/internal/expo"
	"heracles/internal/slo"
)

// Prometheus exposition: the control plane aggregates the same
// quantities the Heracles evaluation reports — EMU, tail latency and SLO
// slack, BE allocations, shared-resource utilisation — plus controller
// actuation counters, across every live instance. Each instance keeps
// its rendered rows with the values they print, so a scrape formats only
// what moved (DESIGN.md §15).

// instanceFamily is a family with series per instance: value(s, j) is
// the j-th value an instance with status s prints under it, one series
// labelled by instance alone or, with label, one per entry of labels.
// The actions family, without value, prints a series per action count.
type instanceFamily struct {
	name, typ, help string
	value           func(s *Status, j int) float64
	label           string
	labels          []string
}

// gauge is a family with one value per instance.
func gauge(name, typ, help string, value func(*Status) float64) instanceFamily {
	return instanceFamily{name: name, typ: typ, help: help, value: func(s *Status, _ int) float64 { return value(s) }}
}

// values is how many values an instance prints under f.
func (f *instanceFamily) values() int {
	if f.value == nil {
		return 0
	}
	return max(1, len(f.labels))
}

// valuesOf appends the values an instance with status s prints under f
// to dst, by their float bits with every NaN as one.
func (f *instanceFamily) valuesOf(s *Status, dst []uint64) []uint64 {
	for j := range f.values() {
		x := f.value(s, j)
		if x != x {
			x = math.NaN()
		}
		dst = append(dst, math.Float64bits(x))
	}
	return dst
}

// appendFamily appends the series an instance prints under f — one per
// value, or one per action count for the actions family — to b: the one
// row code behind both the kept rows and WriteMetrics.
func appendFamily(b []byte, f *instanceFamily, id string, vals []uint64, acts []ActionCount) []byte {
	if f.value == nil {
		for _, a := range acts {
			b = expo.AppendInt(b, f.name, a.Count, "instance", id, "loop", a.Loop, "action", a.Action)
		}
	}
	for j, x := range vals {
		if f.label == "" {
			b = expo.AppendFloat(b, f.name, math.Float64frombits(x), "instance", id)
		} else {
			b = expo.AppendFloat(b, f.name, math.Float64frombits(x), "instance", id, f.label, f.labels[j])
		}
	}
	return b
}

var healthCodes = map[string]float64{HealthDegraded: 1, HealthQuarantined: 2}

func boolFloat(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// instanceFamilies lists the per-instance families in emission order.
var instanceFamilies = [...]instanceFamily{
	gauge("heracles_instance_up", "gauge", "1 while the instance simulation is advancing, 0 once done.",
		func(s *Status) float64 { return boolFloat(s.State == StateRunning) }),
	gauge("heracles_instance_epochs_total", "counter", "Simulated epochs resolved.",
		func(s *Status) float64 { return float64(s.Epoch) }),
	gauge("heracles_instance_load", "gauge", "Offered LC load as a fraction of peak QPS.",
		func(s *Status) float64 { return s.Last.Load }),
	gauge("heracles_instance_slo_seconds", "gauge", "Controller-visible latency target.",
		func(s *Status) float64 { return s.Last.SLOMs / 1e3 }),
	gauge("heracles_instance_tail_latency_seconds", "gauge", "LC tail latency at the workload SLO quantile, last epoch.",
		func(s *Status) float64 { return s.Last.TailMs / 1e3 }),
	gauge("heracles_instance_p95_latency_seconds", "gauge", "LC 95th-percentile latency, last epoch.",
		func(s *Status) float64 { return s.Last.P95Ms / 1e3 }),
	gauge("heracles_instance_slo_slack", "gauge", "(SLO - tail latency) / SLO, last epoch; negative means violating.",
		func(s *Status) float64 { return s.Last.Slack }),
	gauge("heracles_instance_emu", "gauge", "Effective machine utilisation (LC + BE throughput, each normalised to running alone).",
		func(s *Status) float64 { return s.Last.EMU }),
	gauge("heracles_instance_be_enabled", "gauge", "1 while best-effort execution is enabled.",
		func(s *Status) float64 { return boolFloat(s.Last.BEEnabled) }),
	gauge("heracles_instance_be_cores", "gauge", "Cores granted to best-effort tasks.",
		func(s *Status) float64 { return float64(s.Last.BECores) }),
	gauge("heracles_instance_be_ways", "gauge", "LLC ways granted to best-effort tasks.",
		func(s *Status) float64 { return float64(s.Last.BEWays) }),
	gauge("heracles_instance_dram_util", "gauge", "Achieved DRAM bandwidth over peak, all sockets.",
		func(s *Status) float64 { return s.Last.DRAMUtil }),
	gauge("heracles_instance_power_frac_tdp", "gauge", "Total package power over total TDP.",
		func(s *Status) float64 { return s.Last.PowerFracTDP }),
	gauge("heracles_instance_link_util", "gauge", "NIC egress utilisation.",
		func(s *Status) float64 { return s.Last.LinkUtil }),
	gauge("heracles_events_dropped_total", "counter", "Event-stream messages lost to full subscriber buffers.",
		func(s *Status) float64 { return float64(s.DroppedEvents) }),
	gauge("heracles_instance_health", "gauge", "Supervisor health: 0 healthy, 1 degraded (recent crash), 2 quarantined.",
		func(s *Status) float64 { return healthCodes[s.Health] }),
	gauge("heracles_instance_restarts_total", "counter", "Automatic restarts from the last checkpoint after a driver crash.",
		func(s *Status) float64 { return float64(s.Restarts) }),
	gauge("heracles_faults_injected_total", "counter", "Faults applied to the instance, injected via the API or a scenario schedule.",
		func(s *Status) float64 { return float64(s.FaultsInjected) }),
	{name: "heracles_controller_actions_total", typ: "counter", help: "Controller decisions by loop and action."},
	// Error-budget families (DESIGN.md §15).
	gauge("heracles_slo_objective", "gauge", "Availability objective the error budget is computed against.",
		func(s *Status) float64 { return s.SLO.Objective }),
	gauge("heracles_slo_violations_total", "counter", "Simulated epochs that violated the latency SLO.",
		func(s *Status) float64 { return float64(s.SLO.Violations) }),
	gauge("heracles_slo_budget_spent", "gauge", "Fraction of the 30-day error budget consumed (1 = exhausted).",
		func(s *Status) float64 { return s.SLO.BudgetSpent }),
	{name: "heracles_slo_burn_rate", typ: "gauge", label: "window", labels: slo.WindowNames[:],
		help:  "Error-budget burn rate per rolling sim-time window (1 = spending exactly the budget).",
		value: func(s *Status, j int) float64 { return s.SLO.Burn[j] }},
	{name: "heracles_slo_alert_firing", typ: "gauge", label: "alert", labels: []string{slo.AlertPage, slo.AlertTicket},
		help:  "1 while the multiwindow burn-rate alert fires (fast-burn page, slow-burn ticket).",
		value: func(s *Status, j int) float64 { return boolFloat([2]bool{s.SLO.Page, s.SLO.Ticket}[j]) }},
}

// rowValues is what an instance's rows print besides its id and action
// counts: its values in table order, as many as instanceFamilies print
// (the key test checks), so that == on two is "the rows print the same
// bytes". The id is not in it: the rows live on the Instance, whose id
// never changes (an id reused after a delete names a new Instance, which
// has no rows).
type rowValues [27]uint64

// familyAt[k] is where family k's values start in a rowValues: every
// instance prints the same values, so the rows have one layout.
var familyAt = func() (at [len(instanceFamilies) + 1]int) {
	for k := range instanceFamilies {
		at[k+1] = at[k] + instanceFamilies[k].values()
	}
	return at
}()

func (v *rowValues) fill(s *Status) {
	vals := v[:0]
	for k := range instanceFamilies {
		vals = instanceFamilies[k].valuesOf(s, vals)
	}
}

// same returns which families print the same lines under u as under v,
// one bit each: actions' when acts held.
func (v *rowValues) same(u *rowValues, acts bool) uint32 {
	same := uint32(0)
	for k := range instanceFamilies {
		at, end := familyAt[k], familyAt[k+1]
		if slices.Equal(v[at:end], u[at:end]) && (instanceFamilies[k].value != nil || acts) {
			same |= 1 << k
		}
	}
	return same
}

const allFamilies = 1<<len(instanceFamilies) - 1 // every family's bit

// instanceRows is what an instance's lines print, read at status
// generation gen and drop count dropped, its share of the fleet aggregates
// and where the lines are: member at of block blk. Under the scrape lock.
type instanceRows struct {
	gen     uint64
	dropped int64
	vals    rowValues
	acts    []ActionCount
	fleet   fleetStats
	blk     *block
	at      int
}

// fleetStats aggregates the pool into the fleet families.
type fleetStats struct {
	n                           int
	emuSum, minSlack, maxBudget float64
	pages                       int
}

func (f *fleetStats) add(s *Status) {
	if f.n == 0 || s.Last.Slack < f.minSlack {
		f.minSlack = s.Last.Slack
	}
	f.n++
	f.emuSum += s.Last.EMU
	if s.SLO.BudgetSpent > f.maxBudget {
		f.maxBudget = s.SLO.BudgetSpent
	}
	if s.SLO.Page {
		f.pages++
	}
}

// merge adds the instances g aggregates, as add would have one by one.
func (f *fleetStats) merge(g *fleetStats) {
	if f.n == 0 || g.minSlack < f.minSlack {
		f.minSlack = g.minSlack
	}
	f.n, f.emuSum, f.pages = f.n+g.n, f.emuSum+g.emuSum, f.pages+g.pages
	f.maxBudget = max(f.maxBudget, g.maxBudget) // neither is NaN: add skips one
}

// exposition brings the instance's rows up to what it prints now and
// returns which families print as its kept lines do (none if it has no
// lines). While the generation and the drop count hold, that is one
// comparison; otherwise a full compare. The caller holds c's lock.
func (i *Instance) exposition(c *scrapeCache) uint32 {
	if i.rows == nil {
		i.rows = &instanceRows{}
	}
	r := i.rows
	i.mu.Lock()
	// The hub counts drops without i.mu, so they have no generation.
	dropped := i.hub.Dropped()
	if r.blk != nil && r.gen == i.gen && r.dropped == dropped {
		i.mu.Unlock()
		return allFamilies
	}
	old, sameActs := r.vals, slices.Equal(r.acts, i.status.Actions)
	c.st = i.status
	c.st.DroppedEvents = dropped
	r.vals.fill(&c.st)
	r.acts = append(r.acts[:0], i.status.Actions...)
	r.gen, r.dropped, r.fleet = i.gen, dropped, fleetStats{}
	r.fleet.add(&c.st)
	i.mu.Unlock()
	if r.blk == nil {
		return 0
	}
	return old.same(&r.vals, sameActs)
}

const blockSize = 32 // instances, consecutive in list order, per block

// block is its n members' lines family-major: column k of rows is each
// member's family k in turn, member m's at Buf[cuts[k*n+m]:cuts[k*n+m+1]].
// It is never written once built, so a slow scraper never races a rebuild.
type block struct {
	rows    expo.Rows
	bounds  [len(instanceFamilies) + 1]int
	members []*Instance
	cuts    [len(instanceFamilies)*blockSize + 1]int32
}

func (b *block) line(m, k int) []byte {
	return b.rows.Buf[b.cuts[k*len(b.members)+m]:b.cuts[k*len(b.members)+m+1]]
}

// scrapeCache is what the server's scrapes share, under mu: the blocks
// of the last scrape in list order, and scratch.
type scrapeCache struct {
	mu     sync.Mutex
	blocks []*block
	st     Status
	same   [blockSize]uint32
	line   []byte
}

// gather returns the blocks of insts' lines, the last scrape's unless a
// member moved or was replaced, and adds every instance to fleet.
func (c *scrapeCache) gather(insts []*Instance, fleet *fleetStats) []*expo.Rows {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*expo.Rows, 0, (len(insts)+blockSize-1)/blockSize)
	for b := 0; b*blockSize < len(insts); b++ {
		members := insts[b*blockSize : min((b+1)*blockSize, len(insts))]
		moved := false
		for m, inst := range members {
			c.same[m] = inst.exposition(c)
			moved = moved || c.same[m] != allFamilies
			fleet.merge(&inst.rows.fleet)
		}
		if b == len(c.blocks) {
			c.blocks = append(c.blocks, nil)
		}
		if blk := c.blocks[b]; blk == nil || moved || !slices.Equal(blk.members, members) {
			c.blocks[b] = c.build(members)
		}
		out = append(out, &c.blocks[b].rows)
	}
	clear(c.blocks[len(out):])
	c.blocks = c.blocks[:len(out)]
	return out
}

// build returns a block of members' lines, member m's family k copied
// where bit k of c.same[m] is set, else formatted; their rows point at it.
func (c *scrapeCache) build(members []*Instance) *block {
	blk, n := &block{members: slices.Clone(members)}, len(members)
	b := c.line[:0]
	for k := range instanceFamilies {
		f := &instanceFamilies[k]
		blk.bounds[k] = len(b)
		for m, inst := range members {
			blk.cuts[k*n+m] = int32(len(b))
			r := inst.rows
			if c.same[m]&(1<<k) != 0 {
				b = append(b, r.blk.line(r.at, k)...)
			} else {
				b = appendFamily(b, f, inst.id, r.vals[familyAt[k]:familyAt[k+1]], r.acts)
			}
		}
	}
	blk.bounds[len(instanceFamilies)] = len(b)
	blk.cuts[len(instanceFamilies)*n] = int32(len(b))
	c.line = b
	blk.rows = expo.Rows{Buf: slices.Clone(b), Bounds: blk.bounds[:]}
	for m, inst := range members {
		inst.rows.blk, inst.rows.at = blk, m
	}
	return blk
}

// writeInstanceMetrics writes the instance block: the instance count,
// the per-instance families — family writes the k-th — and the fleet
// aggregates.
func writeInstanceMetrics(e *expo.Writer, fleet *fleetStats, family func(k int, f *instanceFamily)) {
	e.ScalarInt("heracles_instances", "gauge", "Number of live instances.", int64(fleet.n))
	for k := range instanceFamilies {
		family(k, &instanceFamilies[k])
	}
	emuMean := 0.0
	if fleet.n > 0 {
		emuMean = fleet.emuSum / float64(fleet.n)
	}
	e.ScalarFloat("heracles_fleet_emu_mean", "gauge", "Mean EMU across live instances.", emuMean)
	e.ScalarFloat("heracles_fleet_slo_slack_min", "gauge", "Worst SLO slack across live instances.", fleet.minSlack)
	e.ScalarFloat("heracles_fleet_slo_budget_spent_max", "gauge", "Worst error-budget spend across live instances.", fleet.maxBudget)
	e.ScalarInt("heracles_fleet_slo_pages_firing", "gauge", "Instances whose fast-burn page currently fires.", int64(fleet.pages))
}

// writeStatuses writes the instance block for the given snapshots.
func writeStatuses(e *expo.Writer, sts []Status) {
	var fleet fleetStats
	for j := range sts {
		fleet.add(&sts[j])
	}
	writeInstanceMetrics(e, &fleet, func(_ int, f *instanceFamily) {
		e.Family(f.name, f.typ, f.help)
		for j := range sts {
			var vals [slo.NumWindows]uint64
			var line [512]byte
			e.Lines(appendFamily(line[:0], f, sts[j].ID, f.valuesOf(&sts[j], vals[:0]), sts[j].Actions))
		}
	})
}

// metricsBytes bounds a scrape of the pool, so a buffer of that size
// never regrows: 18 KB of headers, aggregates, scheduler blocks and
// histograms, ~40 bytes per shard, and per instance 28 series plus one
// per controller action — ~1350 bytes before the instance ids and ~90 per
// action, with about 10% headroom for long float values.
func metricsBytes(sts []Status, shards int) int {
	n := 18<<10 + 64*shards
	for i := range sts {
		actions := len(sts[i].Actions)
		n += 1500 + (28+actions)*len(sts[i].ID) + 96*actions
	}
	return n
}

// WriteMetrics renders the per-instance and fleet families for the given
// instance snapshots, in emission order.
func WriteMetrics(w io.Writer, sts []Status) {
	e := expo.NewWriter(metricsBytes(sts, 0))
	writeStatuses(e, sts)
	// The signature carries no error: every caller renders into memory.
	_, _ = w.Write(e.Bytes())
}

// writeSchedMetrics renders the fleet scheduler's exposition block:
// queue depth, dispatch/eviction/completion counters and the
// goodput-vs-wasted CPU split.
func writeSchedMetrics(e *expo.Writer, st SchedulerStatus) {
	e.Family("heracles_sched_info", "gauge", "Fleet scheduler placement policy.")
	e.Int("heracles_sched_info", 1, "policy", st.Policy)
	e.ScalarInt("heracles_sched_queue_depth", "gauge",
		"Jobs submitted and waiting for placement.", int64(st.QueueDepth))
	e.ScalarInt("heracles_sched_running_jobs", "gauge",
		"Jobs currently placed on instances.", int64(st.Running))
	e.ScalarInt("heracles_sched_jobs_submitted_total", "counter",
		"Jobs ever submitted.", int64(st.Submitted))
	e.ScalarInt("heracles_sched_dispatches_total", "counter",
		"Job placements onto instances.", int64(st.Dispatches))
	e.ScalarInt("heracles_sched_jobs_completed_total", "counter",
		"Jobs that reached their required work.", int64(st.Completed))
	e.ScalarInt("heracles_sched_evictions_total", "counter",
		"Jobs evicted because a controller disabled BE.", int64(st.Evictions))
	e.ScalarInt("heracles_sched_jobs_failed_total", "counter",
		"Jobs that exhausted their retry budget.", int64(st.Failed))
	e.ScalarInt("heracles_sched_jobs_cancelled_total", "counter",
		"Jobs cancelled by the API.", int64(st.Cancelled))
	e.ScalarInt("heracles_sched_dispatch_aborts_total", "counter",
		"Dispatches refused by the target instance (controller flipped).", int64(st.Aborted))
	e.ScalarFloat("heracles_sched_goodput_cpu_seconds_total", "counter",
		"BE CPU-seconds banked by completed jobs.", st.GoodCPUSec)
	e.ScalarFloat("heracles_sched_wasted_cpu_seconds_total", "counter",
		"BE CPU-seconds discarded by evictions and cancellations.", st.WastedCPUSec)
	e.ScalarFloat("heracles_sched_queue_delay_mean_seconds", "gauge",
		"Mean dispatchable-to-dispatched wait.", st.MeanQueueDelayS)
	e.ScalarInt("heracles_sched_tick_panics_total", "counter",
		"Dispatch-loop ticks that panicked and were recovered.", int64(st.TickPanics))
}

// writeEpochSchedMetrics renders the epoch scheduler's exposition
// block: pool size, heap depth, dispatch and epoch counters, and the
// overload lag signal.
func writeEpochSchedMetrics(e *expo.Writer, st EpochSchedStatus) {
	e.ScalarInt("heracles_epoch_sched_drivers", "gauge",
		"Worker goroutines in the shared epoch-scheduler pool.", int64(st.Drivers))
	e.ScalarInt("heracles_epoch_sched_queue_depth", "gauge",
		"Entries queued in the epoch heap (scheduled instances plus pending restarts).", int64(st.QueueDepth))
	e.ScalarInt("heracles_epoch_sched_slices_total", "counter",
		"Slices dispatched to epoch workers.", st.Slices)
	e.ScalarInt("heracles_epoch_sched_epochs_total", "counter",
		"Simulated epochs advanced by the pool, all instances.", st.Epochs)
	e.ScalarFloat("heracles_epoch_sched_lag_seconds", "gauge",
		"How far the earliest due entry trails the wall clock (pool overload signal).", st.LagSeconds)
}

// writeShardMetrics renders the sharding exposition block: shard count,
// per-shard occupancy and the migration total.
func writeShardMetrics(e *expo.Writer, sts []ShardStatus, migrations int64) {
	e.ScalarInt("heracles_shards", "gauge",
		"Shards in this server's control plane.", int64(len(sts)))
	e.Family("heracles_shard_instances", "gauge", "Live instances homed on the shard.")
	for _, st := range sts {
		e.Int("heracles_shard_instances", int64(st.Instances), "shard", strconv.Itoa(st.Shard))
	}
	e.ScalarInt("heracles_migrations_total", "counter",
		"Instances migrated off this server's shards (cross-shard or to a peer).", migrations)
}

// Process-wide histograms over the control plane's hot paths. They are
// package-level because they aggregate across every instance and server
// in the process — the per-instance breakdown lives in the
// /trace span ring instead.
var (
	epochSliceHist expo.Histogram // one epoch-scheduler slice (runSlice)
	mailboxHist    expo.Histogram // one Instance.Do mailbox command, queueing included
	checkpointHist expo.Histogram // building one instance checkpoint
	restoreHist    expo.Histogram // rebuilding an engine from a checkpoint
	migrateHist    expo.Histogram // one completed migration, checkpoint to restored copy
)

// writeProcessMetrics renders the control plane's own latency
// histograms — slice, mailbox, checkpoint/restore and migration timings
// for this process.
func writeProcessMetrics(e *expo.Writer) {
	e.Histogram("heracles_epoch_slice_duration_seconds",
		"Wall time of one epoch-scheduler slice (a catch-up batch of epochs or a restart).", &epochSliceHist)
	e.Histogram("heracles_mailbox_command_duration_seconds",
		"Wall time of one instance mailbox command (Do), lock wait included.", &mailboxHist)
	e.Histogram("heracles_checkpoint_duration_seconds",
		"Wall time to build one instance checkpoint.", &checkpointHist)
	e.Histogram("heracles_restore_duration_seconds",
		"Wall time to rebuild an engine from a checkpoint (create-with-restore, crash restart, migration).", &restoreHist)
	e.Histogram("heracles_migrate_duration_seconds",
		"Wall time of one completed migration, checkpoint through restored copy.", &migrateHist)
}

// writeServerMetrics writes the blocks that follow the instance block.
func writeServerMetrics(e *expo.Writer, sched SchedulerStatus, epoch EpochSchedStatus, shards []ShardStatus, migrations int64) {
	writeSchedMetrics(e, sched)
	writeEpochSchedMetrics(e, epoch)
	writeShardMetrics(e, shards, migrations)
	writeProcessMetrics(e)
}

// renderMetrics renders a whole scrape from snapshots into one writer
// sized for the body: what /metrics answers for a pool in that state.
func renderMetrics(sts []Status, sched SchedulerStatus, epoch EpochSchedStatus, shards []ShardStatus, migrations int64) *expo.Writer {
	e := expo.NewWriter(metricsBytes(sts, len(shards)))
	writeStatuses(e, sts)
	writeServerMetrics(e, sched, epoch, shards, migrations)
	return e
}

// handleMetrics answers a scrape: the instances' blocks, built again
// only where a member moved, gathered under the block writer's families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var fleet fleetStats
	blocks := s.scrape.gather(s.reg.List(), &fleet)
	shards := s.reg.ShardStatuses()
	e := expo.NewWriter(metricsBytes(nil, len(shards)))
	writeInstanceMetrics(e, &fleet, func(k int, f *instanceFamily) { e.Gather(f.name, f.typ, f.help, k) })
	writeServerMetrics(e, s.jobs.Status(), s.reg.pool.status(), shards, s.reg.Migrations())
	e.Respond(w, blocks...)
}

// MetricNames lists every metric family the exposition can emit, read
// off a rendering of the empty pool: every family prints its header
// whether or not it has series. The docs check uses it to keep
// docs/API.md complete.
func MetricNames() []string {
	return renderMetrics(nil, SchedulerStatus{}, EpochSchedStatus{}, nil, 0).Names()
}
