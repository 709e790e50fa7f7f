package codec

import (
	"math"
	"reflect"
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

// coderSample holds one field of every kind a Coder carries.
type coderSample struct {
	B    bool
	U    uint64
	I    int64
	N    int
	D    time.Duration
	F    float64
	S    string
	Raw  []byte
	Fs   []float64
	Ns   []int
	Mode mode
	Kids []kid
	Opt  *kid
	None *kid
}

type mode int

type kid struct{ A, B int }

func walkSample(c *Coder, s *coderSample) {
	c.Bool(&s.B)
	c.U64(&s.U)
	c.I64(&s.I)
	c.Int(&s.N)
	c.Duration(&s.D)
	c.F64(&s.F)
	c.String(&s.S)
	c.Bytes(&s.Raw)
	c.Floats(&s.Fs)
	c.Ints(&s.Ns)
	Enum(c, &s.Mode)
	for i := range Slice(c, &s.Kids, 16) {
		c.Int(&s.Kids[i].A)
		c.Int(&s.Kids[i].B)
	}
	if Ptr(c, &s.Opt) {
		c.Int(&s.Opt.A)
		c.Int(&s.Opt.B)
	}
	if Ptr(c, &s.None) {
		c.Int(&s.None.A)
		c.Int(&s.None.B)
	}
}

// TestCoderWalksBothWays pins the two-way contract: one walk, run over a
// Writer, produces exactly the bytes the Writer's own methods would, and
// run over a Reader fills an equal value — into a dirty target too, so
// an absent slice or section really comes back nil.
func TestCoderWalksBothWays(t *testing.T) {
	in := coderSample{
		B: true, U: 1 << 63, I: -42, N: -7, D: 90 * time.Second, F: math.Pi,
		S: "hello", Raw: []byte{1, 2, 3}, Fs: []float64{1.5, -2.5}, Ns: []int{-1, 1 << 40},
		Mode: 3, Kids: []kid{{1, 2}, {3, 4}}, Opt: &kid{5, 6},
	}

	w := NewWriter(nil)
	w.Bool(true)
	w.U64(1 << 63)
	w.I64(-42)
	w.Int(-7)
	w.I64(int64(90 * time.Second))
	w.F64(math.Pi)
	w.String("hello")
	w.Bytes32([]byte{1, 2, 3})
	w.Floats([]float64{1.5, -2.5})
	w.Ints([]int{-1, 1 << 40})
	w.Int(3)
	w.U32(2)
	for _, n := range []int{1, 2, 3, 4} {
		w.Int(n)
	}
	w.Bool(true)
	w.Int(5)
	w.Int(6)
	w.Bool(false)
	want := w.Bytes()

	enc := NewWriter(nil)
	c := Encoder(enc)
	if c.Decoding() {
		t.Fatal("an Encoder reports Decoding")
	}
	walkSample(&c, &in)
	if string(enc.Bytes()) != string(want) {
		t.Fatalf("walk wrote\n%x\nwant\n%x", enc.Bytes(), want)
	}

	out := coderSample{Kids: make([]kid, 9), None: &kid{}, Raw: []byte{9}}
	r := NewReader(want)
	d := Decoder(r)
	walkSample(&d, &out)
	if err := r.Expect(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", out, in)
	}
	clear(want) // Bytes copied Raw out of the input
	if string(out.Raw) != "\x01\x02\x03" {
		t.Fatalf("Bytes aliases the input: %v", out.Raw)
	}

	buf := enc.Bytes()
	if avg := testing.AllocsPerRun(50, func() {
		w := NewWriter(buf[:0])
		c := Encoder(w)
		walkSample(&c, &in)
		buf = w.Bytes()
	}); avg != 0 {
		t.Fatalf("encoding walk into a warm buffer allocates %.1f/op, want 0", avg)
	}
}

// TestCoderRefusesMalformed: the guards a hand-written decoder placed at
// every slice and optional section live in Slice and Ptr.
func TestCoderRefusesMalformed(t *testing.T) {
	w := NewWriter(nil)
	w.U32(1 << 30) // a billion 16-byte elements, no data behind the claim
	r := NewReader(w.Bytes())
	c := Decoder(r)
	var kids []kid
	if got := Slice(&c, &kids, 16); got != nil || kids != nil || r.Err() == nil {
		t.Fatalf("Slice on an oversized count = %v, err %v", got, r.Err())
	}

	r = NewReader([]byte{2})
	c = Decoder(r)
	var opt *kid
	if Ptr(&c, &opt) || opt != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "bool byte") {
		t.Fatalf("Ptr on presence byte 2: opt %v, err %v", opt, r.Err())
	}

	// After a failure every field reads as zero and nothing is allocated.
	var s coderSample
	walkSample(&c, &s)
	if !reflect.DeepEqual(s, coderSample{}) {
		t.Fatalf("walk over a failed Reader filled %+v", s)
	}
}
