// Package fleet scales the §5.3 evaluation from one cluster to a fleet:
// N clusters of heterogeneous hardware generations and workload mixes,
// each driven through its own declarative scenario, each run twice —
// baseline (no colocation) and under Heracles — so the fleet-wide
// utilisation lift converts into the TCO claim the paper makes at
// datacenter scale.
//
// Cluster instances are independent simulations: they fan out over a
// worker pool, each with a seed derived from (Seed, instance) for its job
// scheduler, so fleet results are bit-identical for any worker count.
// Runs whose inputs are equal are simulated once: the replicas of a spec
// differ only by that seed, which nothing reads unless the scheduler's
// policy draws random numbers.
// The aggregate reduces to §5.2/§5.3 quantities (mean/min EMU, worst
// windowed latency, violation counts) and prices the outcome with
// internal/tco.
package fleet
