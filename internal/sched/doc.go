// Package sched is the fleet-wide best-effort job scheduler: the piece
// Heracles (§5.3, "future work") leaves to the cluster layer. Each
// machine's controller advertises spare capacity upward — latency slack,
// EMU, whether BE execution is currently allowed — and the scheduler
// consumes that telemetry every epoch to decide where best-effort jobs
// run.
//
// The scheduler owns a job model (CPU-work demand, core demand, priority,
// retry budget) and a deterministic dispatch loop. Each Tick it:
//
//  1. advances running jobs from executor-reported progress (busy BE
//     core-seconds accrued on the machine), completing those that reached
//     their required work;
//  2. evicts jobs from machines whose controller has disabled BE (an SLO
//     emergency, a load spike, a cooldown) once a short grace expires,
//     re-queueing them with exponential backoff until the retry budget
//     runs out;
//  3. dispatches queued jobs — priority order, submission order among
//     equals — onto eligible machines under a pluggable placement Policy
//     (slack-greedy, bin-pack, spread, or the random baseline).
//
// Eligibility (controller allows BE, core capacity available) is enforced
// centrally, before the policy sees candidates, so no policy can dispatch
// onto a machine whose controller has BE disabled. All tie-breaking is by
// node/job id and any randomness draws from sim.DeriveRNG(seed, tick)
// streams, so a run's action stream and final job table are
// bit-identical across repeats and worker counts. The scheduler keeps no
// log of its decisions: each one is an Action the executor applies, and
// what it changed is in the job table and the Accounting.
//
// Accounting separates goodput from waste: CPU-seconds of completed jobs
// versus CPU-seconds thrown away by evictions, plus queueing delay — the
// quantities that let an EMU gain be attributed to placement quality.
// cluster.RunScenario embeds the loop per epoch, fleet.RunPolicies runs
// paired policy-vs-policy comparisons, and internal/serve drives it live
// over the instance pool (job submit/inspect/cancel routes, scheduler
// decisions on the SSE stream, queue/goodput/eviction metrics).
package sched
