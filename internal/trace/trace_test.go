package trace

import (
	"testing"
	"time"
)

func TestDiurnalBounds(t *testing.T) {
	tr := Diurnal(DiurnalConfig{Duration: time.Hour, Step: time.Second, Seed: 1})
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	for _, p := range tr {
		if p.Load < 0.02 || p.Load > 1 {
			t.Fatalf("load %v out of bounds at %v", p.Load, p.At)
		}
	}
}

func TestDiurnalCoversRange(t *testing.T) {
	tr := Diurnal(DiurnalConfig{Duration: 12 * time.Hour, Step: time.Minute, Seed: 3})
	lo, hi := 2.0, 0.0
	for _, p := range tr {
		if p.Load < lo {
			lo = p.Load
		}
		if p.Load > hi {
			hi = p.Load
		}
	}
	// §5.3: load varies between ~20% and ~90%.
	if lo > 0.30 {
		t.Fatalf("trough %v, want near 0.2", lo)
	}
	if hi < 0.75 {
		t.Fatalf("crest %v, want near 0.85", hi)
	}
}

func TestDiurnalDeterministicPerSeed(t *testing.T) {
	a := Diurnal(DiurnalConfig{Duration: time.Hour, Step: time.Minute, Seed: 7})
	b := Diurnal(DiurnalConfig{Duration: time.Hour, Step: time.Minute, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
	c := Diurnal(DiurnalConfig{Duration: time.Hour, Step: time.Minute, Seed: 8})
	same := true
	for i := range a {
		if a[i].Load != c[i].Load {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceAt(t *testing.T) {
	tr := Trace{
		{At: 0, Load: 0.1},
		{At: time.Minute, Load: 0.5},
		{At: 2 * time.Minute, Load: 0.9},
	}
	if tr.At(-time.Second) != 0.1 {
		t.Fatal("before start")
	}
	if tr.At(30*time.Second) != 0.1 {
		t.Fatal("piecewise-constant step")
	}
	if tr.At(time.Minute) != 0.5 {
		t.Fatal("exact point")
	}
	if tr.At(90*time.Second) != 0.5 {
		t.Fatal("between points")
	}
	if tr.At(time.Hour) != 0.9 {
		t.Fatal("after end")
	}
	if tr.Duration() != 2*time.Minute {
		t.Fatal("duration")
	}
}

func TestTraceAtEmpty(t *testing.T) {
	var tr Trace
	if tr.At(0) != 0 || tr.Duration() != 0 {
		t.Fatal("empty trace behaviour")
	}
}
