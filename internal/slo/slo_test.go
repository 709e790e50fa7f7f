package slo

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"
)

// TestBudgetSpendMonotone: pushing strictly more violations never spends
// less budget, regardless of where in the stream they land.
func TestBudgetSpendMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 2000 + rng.Intn(2000)
		bad := make([]bool, n)
		for i := range bad {
			bad[i] = rng.Float64() < 0.3
		}
		// more has the same stream plus extra violations flipped on.
		more := make([]bool, n)
		copy(more, bad)
		extra := 0
		for i := range more {
			if !more[i] && rng.Float64() < 0.2 {
				more[i] = true
				extra++
			}
		}
		a := NewTracker(Config{}, time.Second)
		b := NewTracker(Config{}, time.Second)
		for i := 0; i < n; i++ {
			a.Push(bad[i])
			b.Push(more[i])
			if b.BudgetSpent() < a.BudgetSpent() {
				t.Fatalf("trial %d epoch %d: budget spend not monotone: %v < %v",
					trial, i, b.BudgetSpent(), a.BudgetSpent())
			}
		}
		if extra > 0 && b.BudgetSpent() <= a.BudgetSpent() {
			t.Fatalf("trial %d: %d extra violations did not increase spend", trial, extra)
		}
	}
}

// TestWindowRollOffExact: a single violation leaves each window at
// exactly its sim-time boundary — one epoch early it still counts, at
// the boundary it is gone.
func TestWindowRollOffExact(t *testing.T) {
	epoch := time.Second
	tr := NewTracker(Config{}, epoch)
	tr.Push(true)
	for w := 0; w < NumWindows; w++ {
		if tr.counts[w] != 1 {
			t.Fatalf("window %s: violation not counted", WindowNames[w])
		}
	}
	winEpochs := make([]int, NumWindows)
	for w, d := range Windows {
		winEpochs[w] = int(d / epoch)
	}
	// Push good epochs up to just past the largest window, checking each
	// window's count drops exactly when the violation ages out.
	for i := 1; i <= winEpochs[NumWindows-1]; i++ {
		tr.Push(false)
		for w := 0; w < NumWindows; w++ {
			want := int64(0)
			if i < winEpochs[w] { // violation at epoch 0 still inside last win[w] epochs
				want = 1
			}
			if tr.counts[w] != want {
				t.Fatalf("epoch %d window %s: count=%d want %d", i+1, WindowNames[w], tr.counts[w], want)
			}
		}
	}
	if tr.total != 1 {
		t.Fatalf("total violations = %d, want 1", tr.total)
	}
}

// TestWindowCountsMatchBruteForce cross-checks the incremental counts
// against a brute-force recount over a random stream, including after
// the ring wraps. Shrunk windows (1s epoch, but only a few thousand
// epochs) exercise the 5m and 1h windows fully.
func TestWindowCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTracker(Config{}, time.Second)
	var hist []bool
	n := 2*tr.win[W5m] + 500
	for i := 0; i < n; i++ {
		bad := rng.Float64() < 0.4
		hist = append(hist, bad)
		tr.Push(bad)
		for w := 0; w < NumWindows; w++ {
			lo := len(hist) - tr.win[w]
			if lo < 0 {
				lo = 0
			}
			want := int64(0)
			for _, b := range hist[lo:] {
				if b {
					want++
				}
			}
			if tr.counts[w] != want {
				t.Fatalf("epoch %d window %s: count=%d want %d", i, WindowNames[w], tr.counts[w], want)
			}
		}
	}
}

// TestAlertHysteresis pins the multiwindow multi-burn-rate ordering
// under a step violation: the fast-burn page fires first (its 1h gate
// needs ~8.6min of a 1% budget), the slow-burn ticket fires later (3d
// gate, ~43min), and on recovery the page resolves first — both its
// windows drain within the hour while the ticket's 3d window holds the
// ticket firing for days of sim time. "Resolves in reverse" = last
// alert to fire is the last to resolve.
func TestAlertHysteresis(t *testing.T) {
	tr := NewTracker(Config{}, time.Second)
	pageAt, ticketAt := -1, -1
	i := 0
	for ; ticketAt < 0 && i < 10000; i++ {
		tr.Push(true)
		if pageAt < 0 && tr.Page() {
			pageAt = i
		}
		if ticketAt < 0 && tr.Ticket() {
			ticketAt = i
		}
	}
	if pageAt < 0 || ticketAt < 0 {
		t.Fatalf("alerts never fired: page=%d ticket=%d", pageAt, ticketAt)
	}
	if pageAt >= ticketAt {
		t.Fatalf("page fired at %d, ticket at %d; want page first", pageAt, ticketAt)
	}
	// Fast-burn gate: the 1h window must reach burn 14.4 on a 1% budget
	// => 14.4 * 36 = 518.4 violations, so firing at epoch 518 (0-based).
	if pageAt != 518 {
		t.Fatalf("page fired at epoch %d, want 518", pageAt)
	}
	// Slow-burn gate: 3d window at burn 1.0 => 2592 violations (one
	// more in practice: 259200*0.01 rounds a hair above 2592 in binary).
	if ticketAt != 2592 {
		t.Fatalf("ticket fired at epoch %d, want 2592", ticketAt)
	}

	// Recovery: all-good epochs from here. Page resolves once BOTH its
	// windows recover — the 1h count must fall below 259.2, so the page
	// holds until the bad hour has mostly aged out of the 1h window
	// (~56min after the violations stop). The ticket's 3d window keeps
	// every violation in sight for three days, so it resolves last.
	pageOff, ticketOff := -1, -1
	for j := 0; j < 300000 && (pageOff < 0 || ticketOff < 0); j++ {
		tr.Push(false)
		if pageOff < 0 && !tr.Page() {
			pageOff = j
		}
		if ticketOff < 0 && !tr.Ticket() {
			ticketOff = j
		}
	}
	if pageOff < 0 || ticketOff < 0 {
		t.Fatalf("alerts never resolved: page=%d ticket=%d", pageOff, ticketOff)
	}
	if pageOff >= ticketOff {
		t.Fatalf("page resolved at +%d, ticket at +%d; want page (last to fire... first to clear) first", pageOff, ticketOff)
	}
}

// TestNoFlapInsideHysteresisBand: once firing, a burn rate hovering
// between threshold/2 and threshold keeps the alert firing.
func TestNoFlapInsideHysteresisBand(t *testing.T) {
	tr := NewTracker(Config{}, time.Second)
	for i := 0; i < 600; i++ {
		tr.Push(true)
	}
	if !tr.Page() {
		t.Fatal("page not firing after 10min of violations")
	}
	// Alternate good/bad: 5m burn settles near 50 (count ~150/300),
	// far above the resolve bound of 7.2 — the page must stay up.
	for i := 0; i < 1200; i++ {
		tr.Push(i%2 == 0)
		if !tr.Page() {
			t.Fatalf("page resolved at alternating epoch %d with 5m burn %.1f", i, tr.Burn(W5m))
		}
	}
}

// TestStateRoundTrip: serialize mid-stream, restore, and verify the
// restored tracker produces bit-identical burn rates, alerts and counts
// for the rest of the stream.
func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Objective: 0.995}
	a := NewTracker(cfg, time.Second)
	for i := 0; i < 4000; i++ {
		a.Push(rng.Float64() < 0.2)
	}
	blob, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st TrackerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	b, err := RestoreTracker(cfg, time.Second, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		bad := rng.Float64() < 0.5
		a.Push(bad)
		b.Push(bad)
		if a.Status() != b.Status() {
			t.Fatalf("epoch %d: restored tracker diverged:\n%+v\n%+v", i, a.Status(), b.Status())
		}
	}
}

// TestRestoreRejectsGarbage: oversized and ragged rings are refused.
func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreTracker(Config{}, time.Second, TrackerState{Ring: make([]byte, 3)}); err == nil {
		t.Fatal("ragged ring accepted")
	}
	huge := make([]byte, 8*(1+(259200+63)/64))
	if _, err := RestoreTracker(Config{}, time.Second, TrackerState{Ring: huge}); err == nil {
		t.Fatal("oversized ring accepted")
	}
	if _, err := RestoreTracker(Config{}, time.Second, TrackerState{Epochs: -1}); err == nil {
		t.Fatal("negative epochs accepted")
	}
}

// TestLazyRingGrowth: an idle tracker holds no ring at all, and a short
// history holds a short ring.
func TestLazyRingGrowth(t *testing.T) {
	tr := NewTracker(Config{}, time.Second)
	if tr.ring != nil {
		t.Fatal("fresh tracker allocated a ring")
	}
	for i := 0; i < 100; i++ {
		tr.Push(true)
	}
	if len(tr.ring) > 4 {
		t.Fatalf("100-epoch tracker holds %d words", len(tr.ring))
	}
}

func BenchmarkTrackerPush(b *testing.B) {
	tr := NewTracker(Config{}, time.Second)
	for i := 0; i < tr.capEpochs; i++ { // pre-grow: steady-state cost
		tr.Push(i%7 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Push(i&15 == 0)
	}
}
