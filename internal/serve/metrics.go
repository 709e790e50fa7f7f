package serve

import (
	"io"
	"strconv"

	"heracles/internal/expo"
	"heracles/internal/slo"
)

// Prometheus exposition: the control plane aggregates the same
// quantities the Heracles evaluation reports — EMU, tail latency and SLO
// slack, BE allocations, shared-resource utilisation — plus controller
// actuation counters, across every live instance, and renders them
// through internal/expo, which allocates nothing per series.

// metricFamily writes one family with a series per status.
func metricFamily(e *expo.Writer, name, typ, help string, sts []Status, value func(*Status) float64) {
	e.Family(name, typ, help)
	for i := range sts {
		e.Float(name, value(&sts[i]), "instance", sts[i].ID)
	}
}

// sloFamily writes one per-instance error-budget family, skipping
// instances without the SLO engine.
func sloFamily(e *expo.Writer, name, typ, help string, sts []Status, value func(*slo.Status) float64) {
	e.Family(name, typ, help)
	for i := range sts {
		if st := sts[i].SLO; st != nil {
			e.Float(name, value(st), "instance", sts[i].ID)
		}
	}
}

func boolFloat(v bool) float64 {
	if v {
		return 1
	}
	return 0
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
	writeInstanceMetrics(e, sts)
	// The signature carries no error: every caller renders into memory.
	_, _ = w.Write(e.Bytes())
}

func writeInstanceMetrics(e *expo.Writer, sts []Status) {
	e.ScalarInt("heracles_instances", "gauge", "Number of live instances.", int64(len(sts)))

	metricFamily(e, "heracles_instance_up", "gauge",
		"1 while the instance simulation is advancing, 0 once done.", sts,
		func(s *Status) float64 { return boolFloat(s.State == StateRunning) })
	metricFamily(e, "heracles_instance_epochs_total", "counter",
		"Simulated epochs resolved.", sts,
		func(s *Status) float64 { return float64(s.Epoch) })
	metricFamily(e, "heracles_instance_load", "gauge",
		"Offered LC load as a fraction of peak QPS.", sts,
		func(s *Status) float64 { return s.Last.Load })
	metricFamily(e, "heracles_instance_slo_seconds", "gauge",
		"Controller-visible latency target.", sts,
		func(s *Status) float64 { return s.Last.SLOMs / 1e3 })
	metricFamily(e, "heracles_instance_tail_latency_seconds", "gauge",
		"LC tail latency at the workload SLO quantile, last epoch.", sts,
		func(s *Status) float64 { return s.Last.TailMs / 1e3 })
	metricFamily(e, "heracles_instance_p95_latency_seconds", "gauge",
		"LC 95th-percentile latency, last epoch.", sts,
		func(s *Status) float64 { return s.Last.P95Ms / 1e3 })
	metricFamily(e, "heracles_instance_slo_slack", "gauge",
		"(SLO - tail latency) / SLO, last epoch; negative means violating.", sts,
		func(s *Status) float64 { return s.Last.Slack })
	metricFamily(e, "heracles_instance_emu", "gauge",
		"Effective machine utilisation (LC + BE throughput, each normalised to running alone).", sts,
		func(s *Status) float64 { return s.Last.EMU })
	metricFamily(e, "heracles_instance_be_enabled", "gauge",
		"1 while best-effort execution is enabled.", sts,
		func(s *Status) float64 { return boolFloat(s.Last.BEEnabled) })
	metricFamily(e, "heracles_instance_be_cores", "gauge",
		"Cores granted to best-effort tasks.", sts,
		func(s *Status) float64 { return float64(s.Last.BECores) })
	metricFamily(e, "heracles_instance_be_ways", "gauge",
		"LLC ways granted to best-effort tasks.", sts,
		func(s *Status) float64 { return float64(s.Last.BEWays) })
	metricFamily(e, "heracles_instance_dram_util", "gauge",
		"Achieved DRAM bandwidth over peak, all sockets.", sts,
		func(s *Status) float64 { return s.Last.DRAMUtil })
	metricFamily(e, "heracles_instance_power_frac_tdp", "gauge",
		"Total package power over total TDP.", sts,
		func(s *Status) float64 { return s.Last.PowerFracTDP })
	metricFamily(e, "heracles_instance_link_util", "gauge",
		"NIC egress utilisation.", sts,
		func(s *Status) float64 { return s.Last.LinkUtil })
	metricFamily(e, "heracles_events_dropped_total", "counter",
		"Event-stream messages lost to full subscriber buffers.", sts,
		func(s *Status) float64 { return float64(s.DroppedEvents) })
	metricFamily(e, "heracles_instance_health", "gauge",
		"Supervisor health: 0 healthy, 1 degraded (recent crash), 2 quarantined.", sts,
		func(s *Status) float64 {
			switch s.Health {
			case HealthDegraded:
				return 1
			case HealthQuarantined:
				return 2
			default:
				return 0
			}
		})
	metricFamily(e, "heracles_instance_restarts_total", "counter",
		"Automatic restarts from the last checkpoint after a driver crash.", sts,
		func(s *Status) float64 { return float64(s.Restarts) })
	metricFamily(e, "heracles_faults_injected_total", "counter",
		"Faults applied to the instance, injected via the API or a scenario schedule.", sts,
		func(s *Status) float64 { return float64(s.FaultsInjected) })

	e.Family("heracles_controller_actions_total", "counter", "Controller decisions by loop and action.")
	for i := range sts {
		for _, a := range sts[i].Actions {
			e.Int("heracles_controller_actions_total", a.Count, "instance", sts[i].ID, "loop", a.Loop, "action", a.Action)
		}
	}

	// Error-budget families (DESIGN.md §15). Headers always print so the
	// exposition shape is stable; series render per instance with the SLO
	// engine attached.
	sloFamily(e, "heracles_slo_objective", "gauge",
		"Availability objective the error budget is computed against.", sts,
		func(st *slo.Status) float64 { return st.Objective })
	sloFamily(e, "heracles_slo_violations_total", "counter",
		"Simulated epochs that violated the latency SLO.", sts,
		func(st *slo.Status) float64 { return float64(st.Violations) })
	sloFamily(e, "heracles_slo_budget_spent", "gauge",
		"Fraction of the 30-day error budget consumed (1 = exhausted).", sts,
		func(st *slo.Status) float64 { return st.BudgetSpent })
	e.Family("heracles_slo_burn_rate", "gauge", "Error-budget burn rate per rolling sim-time window (1 = spending exactly the budget).")
	for i := range sts {
		if st := sts[i].SLO; st != nil {
			for wi, name := range slo.WindowNames {
				e.Float("heracles_slo_burn_rate", st.Burn[wi], "instance", sts[i].ID, "window", name)
			}
		}
	}
	e.Family("heracles_slo_alert_firing", "gauge", "1 while the multiwindow burn-rate alert fires (fast-burn page, slow-burn ticket).")
	for i := range sts {
		if st := sts[i].SLO; st != nil {
			e.Float("heracles_slo_alert_firing", boolFloat(st.Page), "instance", sts[i].ID, "alert", slo.AlertPage)
			e.Float("heracles_slo_alert_firing", boolFloat(st.Ticket), "instance", sts[i].ID, "alert", slo.AlertTicket)
		}
	}

	// Fleet-level aggregates over all live instances.
	var emuSum float64
	minSlack := 0.0
	maxBudget := 0.0
	pagesFiring := 0
	for j := range sts {
		s := &sts[j]
		emuSum += s.Last.EMU
		if j == 0 || s.Last.Slack < minSlack {
			minSlack = s.Last.Slack
		}
		if s.SLO != nil {
			if s.SLO.BudgetSpent > maxBudget {
				maxBudget = s.SLO.BudgetSpent
			}
			if s.SLO.Page {
				pagesFiring++
			}
		}
	}
	emuMean := 0.0
	if len(sts) > 0 {
		emuMean = emuSum / float64(len(sts))
	}
	e.ScalarFloat("heracles_fleet_emu_mean", "gauge", "Mean EMU across live instances.", emuMean)
	e.ScalarFloat("heracles_fleet_slo_slack_min", "gauge", "Worst SLO slack across live instances.", minSlack)
	e.ScalarFloat("heracles_fleet_slo_budget_spent_max", "gauge", "Worst error-budget spend across live instances.", maxBudget)
	e.ScalarInt("heracles_fleet_slo_pages_firing", "gauge", "Instances whose fast-burn page currently fires.", int64(pagesFiring))
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

// renderMetrics renders one scrape: every block into one writer sized
// for the whole body, so that a thousand-instance scrape never regrows
// and copies its buffer.
func renderMetrics(sts []Status, sched SchedulerStatus, epoch EpochSchedStatus, shards []ShardStatus, migrations int64) *expo.Writer {
	e := expo.NewWriter(metricsBytes(sts, len(shards)))
	writeInstanceMetrics(e, sts)
	writeSchedMetrics(e, sched)
	writeEpochSchedMetrics(e, epoch)
	writeShardMetrics(e, shards, migrations)
	writeProcessMetrics(e)
	return e
}

// MetricNames lists every metric family the exposition can emit, read
// off a rendering of the empty pool: every family prints its header
// whether or not it has series. The docs check uses it to keep
// docs/API.md complete.
func MetricNames() []string {
	return renderMetrics(nil, SchedulerStatus{}, EpochSchedStatus{}, nil, 0).Names()
}
