// Package core implements the Heracles controller — the paper's primary
// contribution (§4): a real-time feedback controller that coordinates
// four hardware and software isolation mechanisms so that a
// latency-critical (LC) workload meets its SLO while best-effort (BE)
// tasks consume every spare resource.
//
// The controller is organised exactly as Figure 2 of the paper: a
// top-level controller (Algorithm 1) polls tail latency and load and
// enables/disables/limits BE growth; three subcontrollers — core &
// memory (Algorithm 2), power (Algorithm 3) and network (Algorithm 4) —
// each keep one shared resource away from saturation.
//
// The controller is written against the Env interface so it can drive
// either the simulated machine (internal/machine) or filesystem
// actuators (internal/actuate) on real hardware. Every decision is
// emitted as an Event to every OnEvent handler; subscription is safe
// while Step runs, and nothing is retained once the handlers return,
// which is what lets the control plane stream decisions to SSE clients
// and count actuations for /metrics while the instance's driver
// goroutine advances the loop.
package core
