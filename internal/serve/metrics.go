package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"heracles/internal/slo"
)

// Prometheus exposition: the control plane renders the text format by
// hand (the repository takes no dependencies), aggregating the same
// quantities the Heracles evaluation reports — EMU, tail latency and SLO
// slack, BE allocations, shared-resource utilisation — plus controller
// actuation counters, across every live instance.

// escapeLabel escapes a Prometheus label value.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The per-instance families are the bulk of a scrape (~27 lines per
// instance), so WriteMetrics appends them into one buffer with strconv
// instead of formatting line by line: no per-series allocation (escapeLabel
// returns its argument when nothing needs escaping), one Write.

// appendHeader appends one family's HELP and TYPE lines.
func appendHeader(b []byte, name, typ, help string) []byte {
	b = append(append(append(append(b, "# HELP "...), name...), ' '), help...)
	b = append(append(append(append(b, "\n# TYPE "...), name...), ' '), typ...)
	return append(b, '\n')
}

// appendSeries appends name{instance="id" and any further label pairs,
// leaving the label set open for appendFloat or appendInt to close.
func appendSeries(b []byte, name, id string, labels ...string) []byte {
	b = append(append(append(b, name...), `{instance="`...), escapeLabel.Replace(id)...)
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(append(append(b, `",`...), labels[i]...), `="`...), escapeLabel.Replace(labels[i+1])...)
	}
	return append(b, `"} `...)
}

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

func appendInt(b []byte, v int64) []byte {
	return append(strconv.AppendInt(b, v, 10), '\n')
}

// metricFamily appends one HELP/TYPE header followed by a series per
// status.
func metricFamily(b []byte, name, typ, help string, sts []Status, value func(*Status) float64) []byte {
	b = appendHeader(b, name, typ, help)
	for i := range sts {
		b = appendFloat(appendSeries(b, name, sts[i].ID), value(&sts[i]))
	}
	return b
}

// sloFamily appends one per-instance error-budget series family, skipping
// instances without the SLO engine.
func sloFamily(b []byte, name, typ, help string, sts []Status, value func(*slo.Status) float64) []byte {
	b = appendHeader(b, name, typ, help)
	for i := range sts {
		if st := sts[i].SLO; st != nil {
			b = appendFloat(appendSeries(b, name, sts[i].ID), value(st))
		}
	}
	return b
}

func boolFloat(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// WriteMetrics renders the full exposition for the given instance
// snapshots.
func WriteMetrics(w io.Writer, sts []Status) {
	b := make([]byte, 0, 4096+1600*len(sts))
	b = appendHeader(b, "heracles_instances", "gauge", "Number of live instances.")
	b = appendInt(append(b, "heracles_instances "...), int64(len(sts)))

	b = metricFamily(b, "heracles_instance_up", "gauge",
		"1 while the instance simulation is advancing, 0 once done.", sts,
		func(s *Status) float64 { return boolFloat(s.State == StateRunning) })
	b = metricFamily(b, "heracles_instance_epochs_total", "counter",
		"Simulated epochs resolved.", sts,
		func(s *Status) float64 { return float64(s.Epoch) })
	b = metricFamily(b, "heracles_instance_load", "gauge",
		"Offered LC load as a fraction of peak QPS.", sts,
		func(s *Status) float64 { return s.Last.Load })
	b = metricFamily(b, "heracles_instance_slo_seconds", "gauge",
		"Controller-visible latency target.", sts,
		func(s *Status) float64 { return s.Last.SLOMs / 1e3 })
	b = metricFamily(b, "heracles_instance_tail_latency_seconds", "gauge",
		"LC tail latency at the workload SLO quantile, last epoch.", sts,
		func(s *Status) float64 { return s.Last.TailMs / 1e3 })
	b = metricFamily(b, "heracles_instance_p95_latency_seconds", "gauge",
		"LC 95th-percentile latency, last epoch.", sts,
		func(s *Status) float64 { return s.Last.P95Ms / 1e3 })
	b = metricFamily(b, "heracles_instance_slo_slack", "gauge",
		"(SLO - tail latency) / SLO, last epoch; negative means violating.", sts,
		func(s *Status) float64 { return s.Last.Slack })
	b = metricFamily(b, "heracles_instance_emu", "gauge",
		"Effective machine utilisation (LC + BE throughput, each normalised to running alone).", sts,
		func(s *Status) float64 { return s.Last.EMU })
	b = metricFamily(b, "heracles_instance_be_enabled", "gauge",
		"1 while best-effort execution is enabled.", sts,
		func(s *Status) float64 { return boolFloat(s.Last.BEEnabled) })
	b = metricFamily(b, "heracles_instance_be_cores", "gauge",
		"Cores granted to best-effort tasks.", sts,
		func(s *Status) float64 { return float64(s.Last.BECores) })
	b = metricFamily(b, "heracles_instance_be_ways", "gauge",
		"LLC ways granted to best-effort tasks.", sts,
		func(s *Status) float64 { return float64(s.Last.BEWays) })
	b = metricFamily(b, "heracles_instance_dram_util", "gauge",
		"Achieved DRAM bandwidth over peak, all sockets.", sts,
		func(s *Status) float64 { return s.Last.DRAMUtil })
	b = metricFamily(b, "heracles_instance_power_frac_tdp", "gauge",
		"Total package power over total TDP.", sts,
		func(s *Status) float64 { return s.Last.PowerFracTDP })
	b = metricFamily(b, "heracles_instance_link_util", "gauge",
		"NIC egress utilisation.", sts,
		func(s *Status) float64 { return s.Last.LinkUtil })
	b = metricFamily(b, "heracles_events_dropped_total", "counter",
		"Event-stream messages lost to full subscriber buffers.", sts,
		func(s *Status) float64 { return float64(s.DroppedEvents) })
	b = metricFamily(b, "heracles_instance_health", "gauge",
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
	b = metricFamily(b, "heracles_instance_restarts_total", "counter",
		"Automatic restarts from the last checkpoint after a driver crash.", sts,
		func(s *Status) float64 { return float64(s.Restarts) })
	b = metricFamily(b, "heracles_faults_injected_total", "counter",
		"Faults applied to the instance, injected via the API or a scenario schedule.", sts,
		func(s *Status) float64 { return float64(s.FaultsInjected) })

	b = appendHeader(b, "heracles_controller_actions_total", "counter", "Controller decisions by loop and action.")
	for i := range sts {
		for _, a := range sts[i].Actions {
			b = appendInt(appendSeries(b, "heracles_controller_actions_total", sts[i].ID, "loop", a.Loop, "action", a.Action), a.Count)
		}
	}

	// Error-budget families (DESIGN.md §15). Headers always print so the
	// exposition shape is stable; series render per instance with the SLO
	// engine attached.
	b = sloFamily(b, "heracles_slo_objective", "gauge",
		"Availability objective the error budget is computed against.", sts,
		func(st *slo.Status) float64 { return st.Objective })
	b = sloFamily(b, "heracles_slo_violations_total", "counter",
		"Simulated epochs that violated the latency SLO.", sts,
		func(st *slo.Status) float64 { return float64(st.Violations) })
	b = sloFamily(b, "heracles_slo_budget_spent", "gauge",
		"Fraction of the 30-day error budget consumed (1 = exhausted).", sts,
		func(st *slo.Status) float64 { return st.BudgetSpent })
	b = appendHeader(b, "heracles_slo_burn_rate", "gauge", "Error-budget burn rate per rolling sim-time window (1 = spending exactly the budget).")
	for i := range sts {
		if st := sts[i].SLO; st != nil {
			for wi, name := range slo.WindowNames {
				b = appendFloat(appendSeries(b, "heracles_slo_burn_rate", sts[i].ID, "window", name), st.Burn[wi])
			}
		}
	}
	b = appendHeader(b, "heracles_slo_alert_firing", "gauge", "1 while the multiwindow burn-rate alert fires (fast-burn page, slow-burn ticket).")
	for i := range sts {
		if st := sts[i].SLO; st != nil {
			b = appendFloat(appendSeries(b, "heracles_slo_alert_firing", sts[i].ID, "alert", slo.AlertPage), boolFloat(st.Page))
			b = appendFloat(appendSeries(b, "heracles_slo_alert_firing", sts[i].ID, "alert", slo.AlertTicket), boolFloat(st.Ticket))
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
	b = appendHeader(b, "heracles_fleet_emu_mean", "gauge", "Mean EMU across live instances.")
	b = appendFloat(append(b, "heracles_fleet_emu_mean "...), emuMean)
	b = appendHeader(b, "heracles_fleet_slo_slack_min", "gauge", "Worst SLO slack across live instances.")
	b = appendFloat(append(b, "heracles_fleet_slo_slack_min "...), minSlack)
	b = appendHeader(b, "heracles_fleet_slo_budget_spent_max", "gauge", "Worst error-budget spend across live instances.")
	b = appendFloat(append(b, "heracles_fleet_slo_budget_spent_max "...), maxBudget)
	b = appendHeader(b, "heracles_fleet_slo_pages_firing", "gauge", "Instances whose fast-burn page currently fires.")
	b = appendInt(append(b, "heracles_fleet_slo_pages_firing "...), int64(pagesFiring))
	// The signature carries no error: every caller renders into memory and
	// the HTTP handler's own write reports a gone client.
	_, _ = w.Write(b)
}

// schedScalar writes one unlabelled scheduler series.
func schedScalar(w io.Writer, name, typ, help, value string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, value)
}

// WriteSchedMetrics renders the fleet scheduler's exposition block:
// queue depth, dispatch/eviction/completion counters and the
// goodput-vs-wasted CPU split.
func WriteSchedMetrics(w io.Writer, st SchedulerStatus) {
	fmt.Fprintf(w, "# HELP heracles_sched_info Fleet scheduler placement policy.\n# TYPE heracles_sched_info gauge\nheracles_sched_info{policy=\"%s\"} 1\n",
		escapeLabel.Replace(st.Policy))
	schedScalar(w, "heracles_sched_queue_depth", "gauge",
		"Jobs submitted and waiting for placement.", strconv.Itoa(st.QueueDepth))
	schedScalar(w, "heracles_sched_running_jobs", "gauge",
		"Jobs currently placed on instances.", strconv.Itoa(st.Running))
	schedScalar(w, "heracles_sched_jobs_submitted_total", "counter",
		"Jobs ever submitted.", strconv.Itoa(st.Submitted))
	schedScalar(w, "heracles_sched_dispatches_total", "counter",
		"Job placements onto instances.", strconv.Itoa(st.Dispatches))
	schedScalar(w, "heracles_sched_jobs_completed_total", "counter",
		"Jobs that reached their required work.", strconv.Itoa(st.Completed))
	schedScalar(w, "heracles_sched_evictions_total", "counter",
		"Jobs evicted because a controller disabled BE.", strconv.Itoa(st.Evictions))
	schedScalar(w, "heracles_sched_jobs_failed_total", "counter",
		"Jobs that exhausted their retry budget.", strconv.Itoa(st.Failed))
	schedScalar(w, "heracles_sched_jobs_cancelled_total", "counter",
		"Jobs cancelled by the API.", strconv.Itoa(st.Cancelled))
	schedScalar(w, "heracles_sched_dispatch_aborts_total", "counter",
		"Dispatches refused by the target instance (controller flipped).", strconv.Itoa(st.Aborted))
	schedScalar(w, "heracles_sched_goodput_cpu_seconds_total", "counter",
		"BE CPU-seconds banked by completed jobs.", fmtFloat(st.GoodCPUSec))
	schedScalar(w, "heracles_sched_wasted_cpu_seconds_total", "counter",
		"BE CPU-seconds discarded by evictions and cancellations.", fmtFloat(st.WastedCPUSec))
	schedScalar(w, "heracles_sched_queue_delay_mean_seconds", "gauge",
		"Mean dispatchable-to-dispatched wait.", fmtFloat(st.MeanQueueDelayS))
	schedScalar(w, "heracles_sched_tick_panics_total", "counter",
		"Dispatch-loop ticks that panicked and were recovered.", strconv.Itoa(st.TickPanics))
}

// WriteEpochSchedMetrics renders the shared epoch scheduler's exposition
// block: pool size, heap depth, dispatch and epoch counters, and the
// overload lag signal.
func WriteEpochSchedMetrics(w io.Writer, st EpochSchedStatus) {
	schedScalar(w, "heracles_epoch_sched_drivers", "gauge",
		"Worker goroutines in the shared epoch-scheduler pool.", strconv.Itoa(st.Drivers))
	schedScalar(w, "heracles_epoch_sched_queue_depth", "gauge",
		"Entries queued in the epoch heap (scheduled instances plus pending restarts).", strconv.Itoa(st.QueueDepth))
	schedScalar(w, "heracles_epoch_sched_slices_total", "counter",
		"Slices dispatched to epoch workers.", strconv.FormatInt(st.Slices, 10))
	schedScalar(w, "heracles_epoch_sched_epochs_total", "counter",
		"Simulated epochs advanced by the pool, all instances.", strconv.FormatInt(st.Epochs, 10))
	schedScalar(w, "heracles_epoch_sched_lag_seconds", "gauge",
		"How far the earliest due entry trails the wall clock (pool overload signal).", fmtFloat(st.LagSeconds))
}

// shardGauge writes one per-shard-labelled series family.
func shardGauge(w io.Writer, name, typ, help string, sts []ShardStatus, value func(ShardStatus) string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, st := range sts {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", name, st.Shard, value(st))
	}
}

// WriteShardMetrics renders the sharding exposition block: shard count,
// per-shard occupancy and queue depth, the work-stealing counters, and
// the migration total.
func WriteShardMetrics(w io.Writer, sts []ShardStatus, migrations int64) {
	schedScalar(w, "heracles_shards", "gauge",
		"Shards in this server's control plane.", strconv.Itoa(len(sts)))
	shardGauge(w, "heracles_shard_instances", "gauge",
		"Live instances homed on the shard.", sts,
		func(st ShardStatus) string { return strconv.Itoa(st.Instances) })
	shardGauge(w, "heracles_shard_queue_depth", "gauge",
		"Entries queued in the shard's epoch heap.", sts,
		func(st ShardStatus) string { return strconv.Itoa(st.EpochSched.QueueDepth) })
	shardGauge(w, "heracles_shard_sheds_total", "counter",
		"Slices this shard's dispatcher handed to an idle peer worker.", sts,
		func(st ShardStatus) string { return strconv.FormatInt(st.EpochSched.Shed, 10) })
	shardGauge(w, "heracles_shard_stolen_total", "counter",
		"Slices this shard's workers ran on behalf of other shards.", sts,
		func(st ShardStatus) string { return strconv.FormatInt(st.EpochSched.Stolen, 10) })
	schedScalar(w, "heracles_migrations_total", "counter",
		"Instances migrated off this server's shards (cross-shard or to a peer).", strconv.FormatInt(migrations, 10))
}

// MetricNames lists every metric family the exposition can emit (the
// /metrics handler sorts families by name before writing, so the order
// here is the renderers', not the wire's). The docs check uses it to
// keep docs/API.md complete, and a test keeps it in lockstep with the
// actual renderers.
func MetricNames() []string {
	names := []string{
		"heracles_instances",
		"heracles_instance_up",
		"heracles_instance_epochs_total",
		"heracles_instance_load",
		"heracles_instance_slo_seconds",
		"heracles_instance_tail_latency_seconds",
		"heracles_instance_p95_latency_seconds",
		"heracles_instance_slo_slack",
		"heracles_instance_emu",
		"heracles_instance_be_enabled",
		"heracles_instance_be_cores",
		"heracles_instance_be_ways",
		"heracles_instance_dram_util",
		"heracles_instance_power_frac_tdp",
		"heracles_instance_link_util",
		"heracles_events_dropped_total",
		"heracles_instance_health",
		"heracles_instance_restarts_total",
		"heracles_faults_injected_total",
		"heracles_controller_actions_total",
		"heracles_slo_objective",
		"heracles_slo_violations_total",
		"heracles_slo_budget_spent",
		"heracles_slo_burn_rate",
		"heracles_slo_alert_firing",
		"heracles_fleet_emu_mean",
		"heracles_fleet_slo_slack_min",
		"heracles_fleet_slo_budget_spent_max",
		"heracles_fleet_slo_pages_firing",
		"heracles_sched_info",
		"heracles_sched_queue_depth",
		"heracles_sched_running_jobs",
		"heracles_sched_jobs_submitted_total",
		"heracles_sched_dispatches_total",
		"heracles_sched_jobs_completed_total",
		"heracles_sched_evictions_total",
		"heracles_sched_jobs_failed_total",
		"heracles_sched_jobs_cancelled_total",
		"heracles_sched_dispatch_aborts_total",
		"heracles_sched_goodput_cpu_seconds_total",
		"heracles_sched_wasted_cpu_seconds_total",
		"heracles_sched_queue_delay_mean_seconds",
		"heracles_sched_tick_panics_total",
		"heracles_epoch_sched_drivers",
		"heracles_epoch_sched_queue_depth",
		"heracles_epoch_sched_slices_total",
		"heracles_epoch_sched_epochs_total",
		"heracles_epoch_sched_lag_seconds",
		"heracles_shards",
		"heracles_shard_instances",
		"heracles_shard_queue_depth",
		"heracles_shard_sheds_total",
		"heracles_shard_stolen_total",
		"heracles_migrations_total",
	}
	return append(names, processMetricNames()...)
}
