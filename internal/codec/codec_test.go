package codec

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// wire builds an expected encoding by hand with encoding/binary, so the
// tests hold the Coder to bytes it did not write itself.
type wire []byte

func (w wire) u8(v byte) wire    { return append(w, v) }
func (w wire) u16(v uint16) wire { return binary.LittleEndian.AppendUint16(w, v) }
func (w wire) u32(v uint32) wire { return binary.LittleEndian.AppendUint32(w, v) }
func (w wire) u64(v uint64) wire { return binary.LittleEndian.AppendUint64(w, v) }
func (w wire) i64(v int64) wire  { return w.u64(uint64(v)) }
func (w wire) f64(v float64) wire {
	return w.u64(math.Float64bits(v))
}
func (w wire) str(s string) wire { return append(w.u32(uint32(len(s))), s...) }

// coderSample holds one field of every kind a Coder carries.
type coderSample struct {
	B    bool
	H    uint16
	U    uint64
	I    int64
	N    int
	D    time.Duration
	F    float64
	S    string
	Raw  []byte
	Nest []byte
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
	c.U16(&s.H)
	c.U64(&s.U)
	c.I64(&s.I)
	c.Int(&s.N)
	c.Duration(&s.D)
	c.F64(&s.F)
	c.String(&s.S)
	c.Bytes(&s.Raw)
	c.Nest(&s.Nest, nil)
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

func sample() coderSample {
	return coderSample{
		B: true, H: 0xbeef, U: 1 << 63, I: -42, N: -7, D: 90 * time.Second, F: math.Pi,
		S: "hello", Raw: []byte{1, 2, 3}, Nest: []byte("inner"), Fs: []float64{1.5, math.Inf(-1)}, Ns: []int{-1, 1 << 40},
		Mode: 3, Kids: []kid{{1, 2}, {3, 4}}, Opt: &kid{5, 6},
	}
}

// sampleWire is sample's encoding, written field by field.
func sampleWire() []byte {
	w := wire(nil).u8(1).u16(0xbeef).u64(1 << 63).i64(-42).i64(-7).
		i64(int64(90 * time.Second)).f64(math.Pi).str("hello").str("\x01\x02\x03").str("inner").
		u32(2).f64(1.5).f64(math.Inf(-1)).u32(2).i64(-1).i64(1 << 40).i64(3).u32(2)
	for _, n := range []int64{1, 2, 3, 4} {
		w = w.i64(n)
	}
	return w.u8(1).i64(5).i64(6).u8(0)
}

// TestRoundTrip: every kind a Coder carries comes back equal, Bytes
// copied out of the input and Nest left a view of it.
func TestRoundTrip(t *testing.T) {
	in := sample()
	enc := Encoder(nil)
	walkSample(&enc, &in)
	data := enc.Buf()

	var out coderSample
	dec := Decoder(data)
	walkSample(&dec, &out)
	if err := dec.Expect(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", out, in)
	}
	clear(data)
	if string(out.Raw) != "\x01\x02\x03" {
		t.Fatalf("Bytes aliases the input: %v", out.Raw)
	}
	if string(out.Nest) != "\x00\x00\x00\x00\x00" {
		t.Fatalf("Nest copied %q out of the input, want a view", out.Nest)
	}
}

// TestCoderWalksBothWays pins the two-way contract: one walk, encoding,
// writes exactly the hand-built bytes, and decoding them into a dirty
// target fills an equal value, so an absent slice or section really
// comes back nil; an encode into a warm buffer allocates nothing.
func TestCoderWalksBothWays(t *testing.T) {
	in, want := sample(), sampleWire()
	enc := Encoder(nil)
	if enc.Decoding() {
		t.Fatal("an Encoder reports Decoding")
	}
	walkSample(&enc, &in)
	if string(enc.Buf()) != string(want) {
		t.Fatalf("walk wrote\n%x\nwant\n%x", enc.Buf(), want)
	}

	out := coderSample{Kids: make([]kid, 9), None: &kid{}, Raw: []byte{9}, Fs: []float64{7}}
	dec := Decoder(want)
	if !dec.Decoding() {
		t.Fatal("a Decoder does not report Decoding")
	}
	walkSample(&dec, &out)
	if err := dec.Expect(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("decoded into a dirty target\n%+v\nwant\n%+v", out, in)
	}

	var empty coderSample
	e := Encoder(nil)
	walkSample(&e, &empty)
	dirty := sample()
	d := Decoder(e.Buf())
	walkSample(&d, &dirty)
	if err := d.Expect(); err != nil {
		t.Fatal(err)
	}
	if dirty.Fs != nil || dirty.Ns != nil || dirty.Kids != nil || dirty.Raw != nil || dirty.Opt != nil {
		t.Fatalf("empty fields decoded into a dirty target: %+v", dirty)
	}

	buf := enc.Buf()
	if avg := testing.AllocsPerRun(50, func() {
		c := Encoder(buf[:0])
		walkSample(&c, &in)
		buf = c.Buf()
	}); avg != 0 {
		t.Fatalf("encoding walk into a warm buffer allocates %.1f/op, want 0", avg)
	}
}

// TestNestAppendsInPlace: a Nest given an encoder appends its output
// behind the length prefix, leaves *v a view of it, and never runs
// when decoding.
func TestNestAppendsInPlace(t *testing.T) {
	fn := func(b []byte) []byte { return append(b, "inner"...) }
	var view []byte
	c := Encoder(wire(nil).u8(9))
	c.Nest(&view, fn)
	if want := wire(nil).u8(9).str("inner"); string(c.Buf()) != string(want) {
		t.Fatalf("Nest wrote %x, want %x", c.Buf(), want)
	}
	if &view[0] != &c.Buf()[5] {
		t.Fatal("Nest's encoded view is not the output")
	}
	d := Decoder(c.Buf()[1:])
	d.Nest(&view, func([]byte) []byte { t.Fatal("decoding ran the encoder"); return nil })
	if err := d.Expect(); err != nil || string(view) != "inner" {
		t.Fatalf("decoded %q, %v", view, err)
	}
}

// TestTruncationSticks: cut anywhere, the decode errors, the error
// latches, and every read after it returns a zero value.
func TestTruncationSticks(t *testing.T) {
	data := sampleWire()
	for cut := 0; cut < len(data); cut++ {
		c := Decoder(data[:cut])
		var s coderSample
		walkSample(&c, &s)
		if err := c.Expect(); err == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(data))
		}
		first := c.Err()
		u, f, str := uint64(99), 1.5, "x"
		c.U64(&u)
		c.F64(&f)
		c.String(&str)
		if u != 0 || f != 0 || str != "" {
			t.Fatalf("cut %d: reads after the error = %d %v %q, want zero values", cut, u, f, str)
		}
		if c.Err() != first {
			t.Fatalf("cut %d: error changed from %v to %v", cut, first, c.Err())
		}
	}
}

func TestCountRejectsOversizedClaims(t *testing.T) {
	c := Decoder(wire(nil).u32(1 << 30)) // a billion elements, no data behind the claim
	f := []float64{1}
	if c.Floats(&f); f != nil {
		t.Fatalf("Floats on oversized count = %v", f)
	}
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "exceeds remaining") {
		t.Fatalf("oversized count error = %v", c.Err())
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	c := Decoder([]byte{2})
	v := true
	if c.Bool(&v); v || c.Err() == nil || !strings.Contains(c.Err().Error(), "bool byte") {
		t.Fatalf("Bool(2) = %v, error = %v", v, c.Err())
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	c := Decoder([]byte{1, 2})
	var b bool
	c.Bool(&b)
	if err := c.Expect(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestEncoderBufferReuse(t *testing.T) {
	v := uint64(1)
	c := Encoder(make([]byte, 0, 64))
	c.U64(&v)
	first := c.Buf()
	c = Encoder(first[:0])
	v = 2
	c.U64(&v)
	if second := c.Buf(); &first[0] != &second[0] || string(second) != string(wire(nil).u64(2)) {
		t.Fatal("reused buffer reallocated")
	}
}

// TestCoderRefusesMalformed: the guards a hand-written decoder placed at
// every slice and optional section live in Slice and Ptr.
func TestCoderRefusesMalformed(t *testing.T) {
	c := Decoder(wire(nil).u32(1 << 30)) // a billion 16-byte elements
	kids := []kid{{1, 2}}
	if got := Slice(&c, &kids, 16); got != nil || kids != nil || c.Err() == nil {
		t.Fatalf("Slice on an oversized count = %v, err %v", got, c.Err())
	}

	c = Decoder([]byte{2})
	opt := &kid{}
	if Ptr(&c, &opt) || opt != nil || c.Err() == nil || !strings.Contains(c.Err().Error(), "bool byte") {
		t.Fatalf("Ptr on presence byte 2: opt %v, err %v", opt, c.Err())
	}

	// After a failure every field reads as zero and nothing is allocated.
	s := sample()
	walkSample(&c, &s)
	if !reflect.DeepEqual(s, coderSample{}) {
		t.Fatalf("walk over a failed Decoder filled %+v", s)
	}
}

// TestChecksumSealsThePayload: Seal fills the reserved four bytes with
// the CRC-32C of what follows, and a decode refuses the payload once any
// bit of it flips, before the walk reads a field.
func TestChecksumSealsThePayload(t *testing.T) {
	in := sample()
	enc := Encoder(nil)
	sum := enc.Checksum()
	walkSample(&enc, &in)
	enc.Seal(sum)
	data := enc.Buf()
	if want := crc32.Checksum(sampleWire(), crc32.MakeTable(crc32.Castagnoli)); binary.LittleEndian.Uint32(data) != want {
		t.Fatalf("sealed crc32c:%08x, want %08x", binary.LittleEndian.Uint32(data), want)
	}
	for _, flip := range []int{0, 4, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[flip] ^= 1
		c := Decoder(bad)
		if c.Checksum(); c.Err() == nil || !strings.Contains(c.Err().Error(), "checksum mismatch") {
			t.Fatalf("bit flip at %d: %v", flip, c.Err())
		}
	}
	var out coderSample
	dec := Decoder(data)
	dec.Checksum()
	if walkSample(&dec, &out); dec.Expect() != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("sealed round trip: %v", dec.Expect())
	}
}

// TestConcurrentEncodesLeaveTheValueAlone: an encode only reads the
// value it walks, so two goroutines may encode one value at once (the
// race detector sees any store) and both write the same bytes.
func TestConcurrentEncodesLeaveTheValueAlone(t *testing.T) {
	in, want := sample(), string(sampleWire())
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				c := Encoder(nil)
				walkSample(&c, &in)
				if string(c.Buf()) != want {
					t.Error("a concurrent encode wrote different bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
}
