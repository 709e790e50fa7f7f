package codec

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(nil)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(-7)
	w.Duration(90 * time.Second)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.String("hello, checkpoint")
	w.String("")
	w.Bytes32([]byte{1, 2, 3})
	w.Floats([]float64{1.5, -2.5, 0})
	w.Floats(nil)
	w.Ints([]int{-1, 0, 1 << 40})

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Duration(); v != 90*time.Second {
		t.Fatalf("Duration = %v", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64 inf = %v", v)
	}
	if v := r.String(); v != "hello, checkpoint" {
		t.Fatalf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty String = %q", v)
	}
	if b := r.Bytes32(); string(b) != "\x01\x02\x03" {
		t.Fatalf("Bytes32 = %v", b)
	}
	f := r.Floats()
	if len(f) != 3 || f[0] != 1.5 || f[1] != -2.5 || f[2] != 0 {
		t.Fatalf("Floats = %v", f)
	}
	if f := r.Floats(); f != nil {
		t.Fatalf("empty Floats = %v", f)
	}
	n := r.Ints()
	if len(n) != 3 || n[0] != -1 || n[2] != 1<<40 {
		t.Fatalf("Ints = %v", n)
	}
	if err := r.Expect(); err != nil {
		t.Fatalf("Expect: %v", err)
	}
}

func TestTruncationSticks(t *testing.T) {
	w := NewWriter(nil)
	w.U64(1)
	w.String("abc")
	data := w.Bytes()
	for cut := 0; cut < len(data); cut++ {
		r := NewReader(data[:cut])
		_ = r.U64()
		_ = r.String()
		if err := r.Expect(); err == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(data))
		}
		// Reads after the error stay safe and zero-valued.
		if v := r.U64(); v != 0 {
			t.Fatalf("post-error U64 = %d", v)
		}
	}
}

func TestCountRejectsOversizedClaims(t *testing.T) {
	w := NewWriter(nil)
	w.U32(1 << 30) // claims a billion elements with no data behind it
	r := NewReader(w.Bytes())
	if f := r.Floats(); f != nil {
		t.Fatalf("Floats on oversized count = %v", f)
	}
	if r.Err() == nil {
		t.Fatal("oversized count did not error")
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "bool byte") {
		t.Fatalf("Bool(2) error = %v", r.Err())
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	w := NewWriter(nil)
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	r.U8()
	if err := r.Expect(); err == nil {
		t.Fatal("trailing byte not rejected")
	}
}

func TestWriterBufferReuse(t *testing.T) {
	w := NewWriter(make([]byte, 0, 64))
	w.U64(1)
	first := w.Bytes()
	w2 := NewWriter(first[:0])
	w2.U64(2)
	second := w2.Bytes()
	if &first[0] != &second[0] {
		t.Fatal("reused buffer reallocated")
	}
}
