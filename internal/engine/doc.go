// Package engine owns the canonical Heracles epoch loop — the one place
// in the repository where simulated machines, their controllers, the
// best-effort job scheduler and a declarative scenario advance together.
//
// One Step resolves one epoch for every node, in a fixed order: due
// faults and scenario events apply, the job scheduler ticks against the
// previous epoch's advertised slack, the offered load is evaluated from
// the scenario's shape, every machine steps and its controller runs, one
// node after another, and the epoch's statistics reduce in node order.
// The machines of an engine share their stage records
// (machine.StageMemo): the leaves all serve the one offered load, and a
// leaf handed an epoch another leaf has just solved copies the answer,
// which a hit reproduces bit for bit.
//
// Both execution styles the paper contrasts are thin drivers over this
// loop: internal/cluster replays scenarios batch-style (a for loop over
// Step), and internal/serve advances the same Engine from a driver
// goroutine under a command mailbox, applying API writes between epochs.
// Batch-vs-live equivalence is therefore true by construction; the
// engine-level determinism test pins it.
//
// Snapshot serializes the complete simulation state — machines,
// controllers, scheduler, scenario cursor position and the epoch index
// that roots the per-epoch RNG streams — into a versioned Checkpoint,
// and Restore rebuilds an Engine that continues bit-identically to an
// uninterrupted run. Checkpoints power cluster resume-from-checkpoint,
// the control plane's pause/migrate routes and heraclesd's crash
// recovery. See DESIGN.md §11 for the architecture and the checkpoint
// format/versioning rules.
package engine
