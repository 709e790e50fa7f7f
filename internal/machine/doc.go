// Package machine assembles the modelled server: hardware (cores,
// hyperthreads, way-partitioned LLC, DRAM controllers, power/turbo,
// NIC), one latency-critical task, and any number of best-effort tasks.
// Each call to Step resolves one control epoch — frequencies under the
// power budget, cache occupancy, DRAM bandwidth shares, network shares,
// the LC workload's inflated service parameters and resulting tail
// latency, and every telemetry counter the Heracles controller reads.
//
// The Machine satisfies the controller's Env interface directly, so the
// same control logic that drives filesystem actuators on real hardware
// drives the simulation. Steady-state stepping is allocation-free:
// per-machine scratch buffers, a telemetry record refilled in place and
// a 16-byte-per-epoch poll ring as deep as the controller's longest poll
// (KeepTailHistory) keep the hot path at zero allocs/op, which is what
// lets the cluster, fleet and control-plane layers run hundreds of
// machines concurrently.
//
// An epoch whose every input repeats the machine's last, or the last of
// another machine of its group, is answered whole by that machine's epoch
// record; otherwise each pure stage looks for its arguments in its
// socket's own record, then in the machine's StageMemo, which indexes its
// group's records: one engine's machines, or a lone machine's sockets.
// Both are caches: Snapshot carries neither.
//
// A Machine is single-threaded by contract — exactly one goroutine may
// call Step and the mutating actuators. Fan-out layers give each machine
// its own goroutine (or worker-pool slot) and communicate through
// telemetry snapshots, which preserves bit-identical determinism at any
// concurrency.
//
// Calibration (CalibrateLC, CalibrateBE) measures each workload running
// alone on a configuration — peak QPS at the SLO, guaranteed frequency,
// alone-rate — and stamps the results into the workload values the rest
// of the system shares.
package machine
