// Package codec implements the hand-rolled little-endian binary
// primitives behind the engine's binary checkpoint format (DESIGN.md
// §16). It exists so the checkpoint hot paths — periodic snapshots,
// in-process shard migration, supervisor restart — pay fixed-width
// copies instead of reflection-driven JSON, while staying dependency-
// free and byte-deterministic: the same state always encodes to the
// same bytes.
//
// Writer appends to a caller-owned buffer (reuse it across encodes to
// amortise allocation); Reader consumes a byte slice with a sticky
// error and hard bounds checks, so truncated, oversized or otherwise
// malformed input always surfaces as an error, never a panic or an
// attempt to allocate unbounded memory. Coder puts either behind one
// set of pointer-taking methods, so a layout is listed once and run in
// both directions.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Writer serialises fixed-width little-endian values by appending to a
// buffer. The zero value is ready to use; NewWriter wraps an existing
// buffer (typically scratch from a previous encode, truncated to reuse
// its capacity).
type Writer struct {
	buf []byte
}

// NewWriter returns a writer appending to buf[len(buf):cap(buf)].
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte (1/0).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a uint32 length prefix followed by the raw bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 writes a uint32 length prefix followed by the raw bytes.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Floats writes a uint32 count followed by the elements as F64. A nil
// and an empty slice encode identically (count 0).
func (w *Writer) Floats(v []float64) {
	w.U32(uint32(len(v)))
	for _, f := range v {
		w.F64(f)
	}
}

// Ints writes a uint32 count followed by the elements as I64.
func (w *Writer) Ints(v []int) {
	w.U32(uint32(len(v)))
	for _, n := range v {
		w.Int(n)
	}
}

// Reserve32 appends a zero uint32 placeholder and returns its offset for
// a later Patch32 — the idiom for prefixes (lengths, checksums) whose
// value is only known after the bytes they describe have been written.
func (w *Writer) Reserve32() int {
	off := len(w.buf)
	w.U32(0)
	return off
}

// Patch32 overwrites a placeholder written by Reserve32.
func (w *Writer) Patch32(off int, v uint32) {
	binary.LittleEndian.PutUint32(w.buf[off:], v)
}

// Nest appends a nested encoding with a uint32 length prefix. fn must
// append its encoding to the buffer it is given and return the extended
// buffer — the signature of an AppendBinary-style encoder — so nesting
// costs no intermediate allocation.
func (w *Writer) Nest(fn func([]byte) []byte) {
	off := w.Reserve32()
	w.buf = fn(w.buf)
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))
}

// Reader consumes a little-endian byte stream produced by Writer. The
// first malformed read latches Err and every subsequent read returns a
// zero value, so decoders can run straight-line and check the error
// once at the end. Reads never panic on malformed input.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for reading.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the sticky decode error, nil while the stream is healthy.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// failf latches the first error with the current offset for context.
func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes as a view, or nil after latching an
// error when fewer remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.failf("need %d bytes, have %d", n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte, rejecting values other than 0 and 1 (a strict
// decode catches corruption early instead of laundering it into false).
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.failf("bool byte %d", v)
		return false
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a uint32 element count and validates it against the bytes
// actually remaining: each element occupies at least elemSize bytes, so
// any count claiming more data than exists is corruption — rejected
// here, before a decoder sizes an allocation from it. elemSize must be
// at least 1.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > r.Remaining()/elemSize {
		r.failf("count %d exceeds remaining %d bytes at %d bytes/element", n, r.Remaining(), elemSize)
		return 0
	}
	return n
}

// String reads a uint32-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes32 reads a uint32-prefixed byte slice as a view into the input
// (no copy); callers that retain it past the input's lifetime must copy.
func (r *Reader) Bytes32() []byte {
	n := r.Count(1)
	return r.take(n)
}

// Floats reads a uint32-prefixed float64 slice, nil when empty.
func (r *Reader) Floats() []float64 {
	n := r.Count(8)
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Ints reads a uint32-prefixed int slice, nil when empty.
func (r *Reader) Ints() []int {
	n := r.Count(8)
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// Expect consumes the rest of the stream: it errors unless exactly zero
// bytes remain and no earlier read failed. Top-level decoders call it so
// trailing garbage is corruption, not silently ignored padding.
func (r *Reader) Expect() error {
	if r.err != nil {
		return r.err
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("codec: %d trailing bytes after decode", rem)
	}
	return nil
}

// Coder is a Writer or a Reader behind one set of methods: a walk hands
// it a pointer to each field in order, and it appends the field when
// built over a Writer and fills it when built over a Reader, so encoder
// and decoder cannot disagree about order, width or presence. Every
// check the Reader makes (bounds, strict bools, the Count guard) applies
// unchanged; after a decode the caller asks the Reader for Err or Expect.
//
// Slice and Ptr return what the caller needs to loop or branch on
// instead of taking a per-element function: a func value would make the
// Coder escape to the heap and cost an allocation per encode.
type Coder struct {
	w *Writer
	r *Reader
}

// Encoder returns a Coder that appends every field it is shown to w.
func Encoder(w *Writer) Coder { return Coder{w: w} }

// Decoder returns a Coder that fills every field it is shown from r.
func Decoder(r *Reader) Coder { return Coder{r: r} }

// Decoding reports the direction: true when fields are being filled.
func (c *Coder) Decoding() bool { return c.r != nil }

// Bool carries a bool as one strict byte.
func (c *Coder) Bool(v *bool) {
	if c.r != nil {
		*v = c.r.Bool()
	} else {
		c.w.Bool(*v)
	}
}

// U64 carries a uint64.
func (c *Coder) U64(v *uint64) {
	if c.r != nil {
		*v = c.r.U64()
	} else {
		c.w.U64(*v)
	}
}

// I64 carries an int64.
func (c *Coder) I64(v *int64) {
	if c.r != nil {
		*v = c.r.I64()
	} else {
		c.w.I64(*v)
	}
}

// Int carries an int as an int64.
func (c *Coder) Int(v *int) {
	if c.r != nil {
		*v = c.r.Int()
	} else {
		c.w.Int(*v)
	}
}

// Duration carries a time.Duration as its int64 nanosecond count.
func (c *Coder) Duration(v *time.Duration) { c.I64((*int64)(v)) }

// F64 carries a float64 as its IEEE-754 bit pattern.
func (c *Coder) F64(v *float64) {
	if c.r != nil {
		*v = c.r.F64()
	} else {
		c.w.F64(*v)
	}
}

// String carries a uint32-prefixed string.
func (c *Coder) String(v *string) {
	if c.r != nil {
		*v = c.r.String()
	} else {
		c.w.String(*v)
	}
}

// Bytes carries a uint32-prefixed byte slice; decoding copies it out of
// the input (nil when empty), so the value may outlive the buffer.
func (c *Coder) Bytes(v *[]byte) {
	if c.r != nil {
		*v = append([]byte(nil), c.r.Bytes32()...)
	} else {
		c.w.Bytes32(*v)
	}
}

// Floats carries a uint32-prefixed float64 slice, nil when empty.
func (c *Coder) Floats(v *[]float64) {
	if c.r != nil {
		*v = c.r.Floats()
	} else {
		c.w.Floats(*v)
	}
}

// Ints carries a uint32-prefixed int slice, nil when empty.
func (c *Coder) Ints(v *[]int) {
	if c.r != nil {
		*v = c.r.Ints()
	} else {
		c.w.Ints(*v)
	}
}

// Enum carries an int-kinded enumeration as an int64.
func Enum[T ~int](c *Coder, v *T) {
	n := int(*v)
	c.Int(&n)
	*v = T(n)
}

// Slice carries the uint32 count of *s and returns the slice for the
// caller to walk element by element. Decoding validates the count with
// Reader.Count — elemSize is the fewest bytes one element can occupy —
// before allocating *s, which stays nil when the count is zero or the
// stream has already failed.
func Slice[T any](c *Coder, s *[]T, elemSize int) []T {
	if c.r == nil {
		c.w.U32(uint32(len(*s)))
	} else if n := c.r.Count(elemSize); n > 0 {
		*s = make([]T, n)
	} else {
		*s = nil
	}
	return *s
}

// Ptr carries the presence byte of an optional section and reports
// whether the caller should walk it; decoding allocates *p first.
func Ptr[T any](c *Coder, p **T) bool {
	if c.r == nil {
		c.w.Bool(*p != nil)
	} else if c.r.Bool() {
		*p = new(T)
	} else {
		*p = nil
	}
	return *p != nil
}
