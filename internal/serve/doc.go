// Package serve is the Heracles control plane: a long-lived service that
// owns a pool of live simulated machines — each with its own Heracles
// controller, advanced on a real-time, accelerated or free-running tick
// by the registry's epoch scheduler — and exposes them over HTTP.
//
// The surface has three parts:
//
//   - REST endpoints (/api/v1/instances...) to create, list, inspect and
//     delete machine instances, change load targets and SLOs mid-flight,
//     attach and remove best-effort tasks, inject service degradation,
//     drive an instance by a declarative scenario (carried as JSON), and
//     checkpoint/restore an instance's full simulation state (pause,
//     fast-forward, or migrate it to another registry).
//   - A Server-Sent-Events stream per instance delivering per-epoch
//     telemetry, controller decisions and lifecycle transitions.
//   - A Prometheus-format /metrics endpoint aggregating EMU, tail
//     latency and SLO slack, resource allocations and controller
//     actuation counts across every live instance, plus the epoch
//     scheduler's own pool health.
//
// Instances do not own goroutines or timers. The registry runs one
// event-driven epoch scheduler (DESIGN.md §13): a min-heap of next-due
// wall-clock epochs and a bounded worker pool that pops due instances
// and advances each one's engine.Engine — the same canonical epoch loop
// the batch cluster and fleet runs drive (see internal/engine and
// DESIGN.md §9, §11). Every API mutation is a closure run through
// Instance.Do under the instance's mailbox lock, between engine Steps.
// Driver cadence never reaches the engine, so a served instance replays
// bit-identically to a batch run with the same spec and command
// sequence, for any number of concurrent instances and clients — which
// is also why the scheduler may batch a stretched instance's epochs
// without changing its telemetry.
//
// With Config.CheckpointDir the pool outlives a crash: Server.Start
// resumes every <id>.ckpt found there under its stem, bit-identical from
// its epoch, falling back to <id>.ckpt.1 and setting aside as *.failed a
// file it cannot use or whose stem is no id; a checkpointer on the same
// scheduler rewrites each instance's file every CheckpointEvery
// (checksummed, write-then-rename, the previous generation kept as .1)
// and sweeps deleted instances' files; Close takes a final pass.
//
// cmd/heraclesd is the thin daemon over this package; the route table in
// server.go is the single source of truth for the HTTP surface and is
// cross-checked against docs/API.md by cmd/docscheck.
package serve
