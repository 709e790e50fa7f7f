// Package cluster models the websearch minicluster of §5.3: a root that
// fans every user request out to all leaf servers and combines their
// replies, with an instance of Heracles running on every leaf. The
// cluster SLO is the mean latency at the root over 30-second windows
// (µ/30s); each leaf runs a uniform 99%-ile latency target chosen so the
// root satisfies the SLO.
//
// The package is a thin batch driver over internal/engine, which owns
// the canonical epoch loop (scenario events, scheduler ticks, leaf and
// controller stepping, root fan-out latency — see DESIGN.md §11):
// RunScenario installs the scenario and steps the engine to the horizon,
// collecting per-epoch statistics. The optional DynamicLeafTargets mode
// enables the engine's centralized root controller, converting
// root-level slack into per-leaf latency targets. Config.OnCheckpoint
// snapshots the run mid-flight and RunScenarioFrom resumes it
// bit-identically. internal/fleet runs many of these clusters; Run is
// the compatibility wrapper for callers with a bare load trace.
package cluster
