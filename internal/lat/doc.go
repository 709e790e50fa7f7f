// Package lat computes the tail latency of a latency-critical workload
// from its contention-inflated service parameters.
//
//   - Analytic is the engine every machine runs: a closed-form M/G/k
//     approximation (Erlang-C waiting probability, exponential
//     conditional-wait tail, Allen-Cunneen variability correction). Fast,
//     deterministic and stateless. The machine model calls it once per
//     epoch with the service parameters the resource models produced, and
//     the resulting EpochStats flow into telemetry, the controller's slack
//     computation and every figure of the evaluation.
//   - DES is its independent reference, run only by tests: a
//     discrete-event simulation of a FCFS G/G/k queue with Poisson
//     arrivals and lognormal service times, measuring empirical
//     quantiles. The fidelity scorecard bounds the analytic engine's p99
//     disagreement with it over the Figure 4 operating range.
//
// Both produce the sharp tail-latency inflection near saturation that
// the paper's control decomposition (§4.2) relies on.
package lat
