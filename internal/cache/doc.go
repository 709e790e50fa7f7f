// Package cache models a way-partitioned last-level cache: per-workload
// miss-ratio curves built from working-set components, and a fixed-point
// occupancy solver that divides cache capacity among the tasks allowed
// to allocate into each way.
//
// Occupancy is driven by recency pressure — how often a component's
// lines are touched — with a discount for hits (a line that hits is
// renewed in place, while a miss inserts a new line). Capacity a
// component cannot use (its footprint is smaller than its share) is
// redistributed to the other sharers by water-filling. This captures the
// behaviours the paper's characterisation (§3.3) depends on: streaming
// antagonists with large footprints evict the small-but-hot working sets
// of latency-critical workloads, antagonists sized below their partition
// stay contained, and CAT way-partitioning confines each task's
// insertions to its own ways.
//
// The solver iterates the water-fill map with Anderson(1) mixing until no
// component's occupancy moves by more than 1e-9 MB in a round, damping the
// map by half once a round fails to shrink its step, and stops after 64
// rounds at the latest; its answers sit within 1e-8 MB of the converged
// fixed point.
//
// The solver's outputs (per-task hit ratios and miss bandwidth) feed the
// machine model's service-time inflation and DRAM demand; ResolveScratch
// is the allocation-free variant the steady-state stepping hot path
// uses.
package cache
