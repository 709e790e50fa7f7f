// Package experiment implements one runner per figure and table of the
// paper's evaluation (§3.3 and §5): the interference characterisation
// grid (Figure 1), the cores×LLC performance surface (Figure 3), the
// Heracles colocation sweeps (Figures 4-7), the offline DRAM bandwidth
// model profiler (§4.2), and shared infrastructure — workload
// calibration caching and table rendering.
//
// The Lab is the shared entry point: it caches calibrated workloads and
// DRAM models per hardware configuration (each behind its own
// sync.Once, so concurrent consumers never recalibrate or serialise on
// unrelated keys) and bounds sweep concurrency through
// internal/parallel. CLIs, tests, the golden-figure regression harness
// and the control plane all draw their calibrated workloads from a Lab.
// The LC calibrations and DRAM models of the built-in workloads on the
// built-in hardware are computed offline, as the paper does (§4.2): a
// generated table (calibrations.go) answers them when the lab's
// hardware and the workload's spec equal an entry's key in full, and
// every other input calibrates live through the same code that
// generates the table.
package experiment
