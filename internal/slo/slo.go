// Package slo is the deterministic error-budget engine (DESIGN.md §15):
// it tracks per-epoch SLO violations in a packed bit ring, computes burn
// rates over multiple rolling sim-time windows (5m/1h/6h/3d), and drives
// Sloth/Google-SRE-style multiwindow multi-burn-rate alerts — a fast-burn
// page and a slow-burn ticket — as pure functions of the violation
// history. Everything is keyed to simulated epochs, never the wall clock,
// so alert sequences are bit-identical across repeats, worker counts,
// shards and migrations, and the full tracker state serializes into the
// engine checkpoint.
package slo

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Window indices into Windows, Tracker burn rates and Status.Burn.
const (
	W5m = iota
	W1h
	W6h
	W3d
	NumWindows
)

// Windows are the rolling sim-time windows burn rates are computed over.
// The largest window bounds the bit ring: at a 1s epoch the 3d window is
// 259200 bits ≈ 32KB fully grown, and the ring only grows as epochs are
// actually pushed, so parked instances pay nothing.
var Windows = [NumWindows]time.Duration{
	5 * time.Minute,
	time.Hour,
	6 * time.Hour,
	72 * time.Hour,
}

// WindowNames label the windows in metrics and API payloads.
var WindowNames = [NumWindows]string{"5m", "1h", "6h", "3d"}

// Multiwindow multi-burn-rate thresholds, after Google's SRE workbook
// (and Sloth's generated rules): the fast-burn page catches "2% of a 30d
// budget in one hour" (rate 14.4) and the slow-burn ticket catches
// "steady overspend" (rate 1 would exhaust the budget exactly at 30d).
// Both windows of a pair must exceed the threshold to fire, and both must
// recover below the hysteresis band to resolve: the short window makes
// firing prompt, the long window gives the latch memory, so one bad hour
// keeps the page up until the hour has actually drained from the budget.
const (
	FastBurn = 14.4
	SlowBurn = 1.0
	// resolveFactor is the hysteresis band: a firing alert resolves only
	// when every one of its windows burns below threshold*resolveFactor,
	// so an alert cannot flap while the burn rate hovers at the threshold
	// and a short lull inside a long violation does not clear it.
	resolveFactor = 0.5
	// budgetPeriod is the accounting period for BudgetSpent: the fraction
	// of a 30-day error budget consumed by the violations seen so far.
	budgetPeriod = 30 * 24 * time.Hour
)

// Alert names as they appear in transitions, SSE events and metrics.
const (
	AlertPage   = "page"
	AlertTicket = "ticket"
)

// Config enables SLO tracking on an engine. The zero Objective selects
// the default 99% availability target.
type Config struct {
	// Objective is the availability target in (0,1); the error budget is
	// 1-Objective. 0 selects 0.99.
	Objective float64 `json:"objective,omitempty"`
	// Admission couples alerts into BE admission: while a node's
	// fast-burn page fires, the node advertises BE-disallowed to the
	// fleet scheduler, throttling new best-effort dispatch until the
	// budget recovers.
	Admission bool `json:"admission,omitempty"`
}

// DefaultObjective is the availability target used when Config.Objective
// is unset.
const DefaultObjective = 0.99

func (c Config) objective() float64 {
	if c.Objective > 0 && c.Objective < 1 {
		return c.Objective
	}
	return DefaultObjective
}

// Transition is one alert edge: the named alert started or stopped
// firing at the given epoch. Node is the cluster-local node index, or -1
// for the cluster-wide tracker. Transitions are emitted in deterministic
// order (nodes ascending, cluster last; page before ticket per node).
type Transition struct {
	Epoch  int    `json:"epoch"`
	Node   int    `json:"node"`
	Alert  string `json:"alert"`
	Firing bool   `json:"firing"`
}

// Status is a tracker snapshot for APIs, metrics and reports.
type Status struct {
	Objective  float64 `json:"objective"`
	Epochs     int     `json:"epochs"`
	Violations int64   `json:"violations"`
	// BudgetSpent is the fraction of a 30-day error budget the
	// violations so far have consumed (1.0 = budget exhausted).
	BudgetSpent float64 `json:"budget_spent"`
	// Burn holds the current burn rate per window, Windows order.
	Burn [NumWindows]float64 `json:"burn"`
	// Page and Ticket report whether each alert is currently firing.
	Page   bool `json:"page"`
	Ticket bool `json:"ticket"`
}

// Tracker accumulates one violation bit per simulated epoch and keeps
// exact violation counts for every window incrementally: each Push reads
// the bit rolling out of each window before overwriting the slot the new
// bit lands in, so the counts are exact at sim-time boundaries at O(1)
// cost per epoch. Windows shorter than the history seen so far use their
// full length as the denominator (missing history counts as good — the
// standard SRE convention), which keeps a fresh tracker from paging on
// its first violation.
type Tracker struct {
	objective float64
	epoch     time.Duration
	win       [NumWindows]int // window lengths in epochs
	capEpochs int             // ring capacity = largest window
	ring      []uint64        // violation bits, grown geometrically
	n         int             // epochs pushed (mod nothing; slot = n % capEpochs)
	counts    [NumWindows]int64
	total     int64
	page      bool
	ticket    bool
}

// NewTracker returns an empty tracker for the given objective and epoch
// duration (the engine's sim-time step).
func NewTracker(cfg Config, epoch time.Duration) *Tracker {
	if epoch <= 0 {
		epoch = time.Second
	}
	t := &Tracker{objective: cfg.objective(), epoch: epoch}
	for w, d := range Windows {
		n := int(d / epoch)
		if n < 1 {
			n = 1
		}
		t.win[w] = n
	}
	t.capEpochs = t.win[NumWindows-1]
	return t
}

func (t *Tracker) bitAt(slot int) bool {
	word := slot >> 6
	if word >= len(t.ring) {
		return false
	}
	return t.ring[word]&(1<<(uint(slot)&63)) != 0
}

// Push records one epoch's outcome and re-evaluates both alerts.
func (t *Tracker) Push(bad bool) {
	slot := t.n % t.capEpochs
	// Read the bit rolling out of each window before the write: for the
	// largest window that bit lives in exactly the slot being
	// overwritten, which is why the ring never needs more than capEpochs
	// bits of history.
	for w := 0; w < NumWindows; w++ {
		if t.n >= t.win[w] && t.bitAt((t.n-t.win[w])%t.capEpochs) {
			t.counts[w]--
		}
	}
	word, mask := slot>>6, uint64(1)<<(uint(slot)&63)
	if word >= len(t.ring) {
		t.grow(word + 1)
	}
	if bad {
		t.ring[word] |= mask
		for w := 0; w < NumWindows; w++ {
			t.counts[w]++
		}
		t.total++
	} else {
		t.ring[word] &^= mask
	}
	t.n++

	if t.page {
		if t.Burn(W5m) < FastBurn*resolveFactor && t.Burn(W1h) < FastBurn*resolveFactor {
			t.page = false
		}
	} else if t.Burn(W1h) >= FastBurn && t.Burn(W5m) >= FastBurn {
		t.page = true
	}
	if t.ticket {
		if t.Burn(W6h) < SlowBurn*resolveFactor && t.Burn(W3d) < SlowBurn*resolveFactor {
			t.ticket = false
		}
	} else if t.Burn(W3d) >= SlowBurn && t.Burn(W6h) >= SlowBurn {
		t.ticket = true
	}
}

// grow extends the ring to at least words 64-bit words, geometrically up
// to the fixed capacity so a long-lived tracker settles at one
// allocation of capEpochs bits.
func (t *Tracker) grow(words int) {
	capWords := (t.capEpochs + 63) >> 6
	next := 2 * len(t.ring)
	if next < words {
		next = words
	}
	if next > capWords {
		next = capWords
	}
	ring := make([]uint64, next)
	copy(ring, t.ring)
	t.ring = ring
}

// Burn returns the current burn rate for window w: the violation
// fraction of the window divided by the error budget. Burn 1.0 sustained
// for 30 days spends exactly one monthly budget.
func (t *Tracker) Burn(w int) float64 {
	return float64(t.counts[w]) / (float64(t.win[w]) * (1 - t.objective))
}

// Page reports whether the fast-burn page alert is firing.
func (t *Tracker) Page() bool { return t.page }

// Ticket reports whether the slow-burn ticket alert is firing.
func (t *Tracker) Ticket() bool { return t.ticket }

// BudgetSpent returns the fraction of a 30-day error budget consumed by
// the violations pushed so far.
func (t *Tracker) BudgetSpent() float64 {
	budgetEpochs := float64(budgetPeriod/t.epoch) * (1 - t.objective)
	return float64(t.total) / budgetEpochs
}

// Status snapshots the tracker.
func (t *Tracker) Status() Status {
	st := Status{
		Objective:   t.objective,
		Epochs:      t.n,
		Violations:  t.total,
		BudgetSpent: t.BudgetSpent(),
		Page:        t.page,
		Ticket:      t.ticket,
	}
	for w := 0; w < NumWindows; w++ {
		st.Burn[w] = t.Burn(w)
	}
	return st
}

// TrackerState is a tracker's serialized form, embedded in engine
// checkpoints. The ring is stored as little-endian packed words; counts
// are stored rather than recomputed so restore is O(ring) copy.
type TrackerState struct {
	Epochs     int               `json:"epochs"`
	Violations int64             `json:"violations"`
	Counts     [NumWindows]int64 `json:"counts"`
	Ring       []byte            `json:"ring,omitempty"`
	Page       bool              `json:"page,omitempty"`
	Ticket     bool              `json:"ticket,omitempty"`
}

// State serializes the tracker.
func (t *Tracker) State() TrackerState {
	st := TrackerState{
		Epochs:     t.n,
		Violations: t.total,
		Counts:     t.counts,
		Page:       t.page,
		Ticket:     t.ticket,
	}
	if len(t.ring) > 0 {
		st.Ring = make([]byte, 8*len(t.ring))
		for i, w := range t.ring {
			binary.LittleEndian.PutUint64(st.Ring[8*i:], w)
		}
	}
	return st
}

// RestoreTracker rebuilds a tracker from its serialized state under the
// given config and epoch duration (which must match the snapshotting
// engine's — the engine checkpoint already pins both).
func RestoreTracker(cfg Config, epoch time.Duration, st TrackerState) (*Tracker, error) {
	t := NewTracker(cfg, epoch)
	if len(st.Ring)%8 != 0 {
		return nil, fmt.Errorf("slo: ring length %d is not a whole number of words", len(st.Ring))
	}
	capWords := (t.capEpochs + 63) >> 6
	if len(st.Ring)/8 > capWords {
		return nil, fmt.Errorf("slo: ring has %d words, capacity is %d", len(st.Ring)/8, capWords)
	}
	if st.Epochs < 0 || st.Violations < 0 {
		return nil, fmt.Errorf("slo: negative epoch or violation count")
	}
	if len(st.Ring) > 0 {
		t.ring = make([]uint64, len(st.Ring)/8)
		for i := range t.ring {
			t.ring[i] = binary.LittleEndian.Uint64(st.Ring[8*i:])
		}
	}
	t.n = st.Epochs
	t.total = st.Violations
	t.counts = st.Counts
	t.page = st.Page
	t.ticket = st.Ticket
	return t, nil
}
