// Package parallel provides the bounded, order-preserving fan-out/fan-in
// primitives used by every layer that runs independent simulations
// concurrently: load sweeps, characterisation grids and fleet instances.
//
// ForEach and Map run n items on up to GOMAXPROCS workers with results
// landing at their original index. Determinism is preserved by
// construction — each item writes only its own slot and any randomness
// is derived per item from (seed, index) rather than shared mutable RNG
// state — so a run with one worker is byte-identical to a run with many.
package parallel
