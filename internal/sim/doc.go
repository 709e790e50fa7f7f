// Package sim provides the deterministic simulation kernel used by the
// Heracles reproduction: a virtual clock and a seedable splitmix/xoshiro
// pseudo-random number generator.
//
// Everything in this repository that depends on time or randomness goes
// through this package so that experiments are reproducible bit-for-bit
// for a fixed seed. DeriveRNG(seed, stream) is the key primitive for
// parallelism: fan-out layers (experiment sweeps, cluster leaves, fleet
// instances, the control plane's instance pool) give each unit of work
// its own derived stream instead of sharing mutable generator state, so
// any worker count produces identical results.
package sim
