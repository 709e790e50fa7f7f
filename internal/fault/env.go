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
}

// Wrap builds a fault-injectable view of inner with no faults active.
func Wrap(inner core.Env) *Env { return &Env{Env: inner} }

// SetBlackout toggles the telemetry blackout window.
func (e *Env) SetBlackout(on bool) { e.blackout = on }

// SetActuationFail toggles the actuation-failure window.
func (e *Env) SetActuationFail(on bool) { e.actFail = on }

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

// EnableBE is dropped during an actuation failure.
func (e *Env) EnableBE() {
	if !e.actFail {
		e.Env.EnableBE()
	}
}

// DisableBE is dropped during an actuation failure.
func (e *Env) DisableBE() {
	if !e.actFail {
		e.Env.DisableBE()
	}
}

// SetBECores is dropped during an actuation failure.
func (e *Env) SetBECores(n int) {
	if !e.actFail {
		e.Env.SetBECores(n)
	}
}

// SetBEWays is dropped during an actuation failure.
func (e *Env) SetBEWays(n int) {
	if !e.actFail {
		e.Env.SetBEWays(n)
	}
}

// LowerBEFreq is dropped during an actuation failure.
func (e *Env) LowerBEFreq() {
	if !e.actFail {
		e.Env.LowerBEFreq()
	}
}

// RaiseBEFreq is dropped during an actuation failure.
func (e *Env) RaiseBEFreq() {
	if !e.actFail {
		e.Env.RaiseBEFreq()
	}
}

// SetBETxCeil is dropped during an actuation failure.
func (e *Env) SetBETxCeil(gbs float64) {
	if !e.actFail {
		e.Env.SetBETxCeil(gbs)
	}
}
