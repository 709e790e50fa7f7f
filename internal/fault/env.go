package fault

import (
	"time"

	"heracles/internal/core"
)

// Env interposes the active fault windows between a controller and its
// machine. It embeds the real environment and overrides only what the
// faults distort: a telemetry blackout makes the latency monitor return
// no data, and an actuation failure swallows every isolation action
// while the monitors keep reading the machine's true (unchanged) state —
// exactly the asymmetry that makes silent actuation loss dangerous.
//
// The wrapper is driven from the engine's sequential window and read
// from the controller's Step, both in the stepping goroutine; it needs
// no locking.
type Env struct {
	core.Env
	blackout bool
	actFail  bool
	dropped  int
}

// Wrap builds a fault-injectable view of inner with no faults active.
func Wrap(inner core.Env) *Env { return &Env{Env: inner} }

// SetBlackout toggles the telemetry blackout window.
func (e *Env) SetBlackout(on bool) { e.blackout = on }

// BlackoutActive reports whether a blackout is in effect.
func (e *Env) BlackoutActive() bool { return e.blackout }

// SetActuationFail toggles the actuation-failure window.
func (e *Env) SetActuationFail(on bool) { e.actFail = on }

// ActuationFailActive reports whether actuation is being dropped.
func (e *Env) ActuationFailActive() bool { return e.actFail }

// DroppedActuations counts the isolation actions swallowed so far.
func (e *Env) DroppedActuations() int { return e.dropped }

// TailLatency returns no data during a blackout.
func (e *Env) TailLatency(window time.Duration) (time.Duration, bool) {
	if e.blackout {
		return 0, false
	}
	return e.Env.TailLatency(window)
}

// KeepTailHistory forwards the controller's declaration to the wrapped
// environment, which embedding the interface would otherwise hide.
func (e *Env) KeepTailHistory(window time.Duration) {
	if k, ok := e.Env.(core.TailHistoryKeeper); ok {
		k.KeepTailHistory(window)
	}
}

// drop records a swallowed actuation while the failure window is open.
func (e *Env) drop() bool {
	if e.actFail {
		e.dropped++
		return true
	}
	return false
}

// EnableBE is dropped during an actuation failure.
func (e *Env) EnableBE() {
	if e.drop() {
		return
	}
	e.Env.EnableBE()
}

// DisableBE is dropped during an actuation failure.
func (e *Env) DisableBE() {
	if e.drop() {
		return
	}
	e.Env.DisableBE()
}

// SetBECores is dropped during an actuation failure.
func (e *Env) SetBECores(n int) {
	if e.drop() {
		return
	}
	e.Env.SetBECores(n)
}

// SetBEWays is dropped during an actuation failure.
func (e *Env) SetBEWays(n int) {
	if e.drop() {
		return
	}
	e.Env.SetBEWays(n)
}

// LowerBEFreq is dropped during an actuation failure.
func (e *Env) LowerBEFreq() {
	if e.drop() {
		return
	}
	e.Env.LowerBEFreq()
}

// RaiseBEFreq is dropped during an actuation failure.
func (e *Env) RaiseBEFreq() {
	if e.drop() {
		return
	}
	e.Env.RaiseBEFreq()
}

// SetBETxCeil is dropped during an actuation failure.
func (e *Env) SetBETxCeil(gbs float64) {
	if e.drop() {
		return
	}
	e.Env.SetBETxCeil(gbs)
}
