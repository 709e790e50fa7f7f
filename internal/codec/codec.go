// Package codec implements the hand-rolled little-endian binary
// primitives behind the engine's binary checkpoint format (DESIGN.md
// §16), so the checkpoint hot paths — periodic snapshots, in-process
// shard migration, supervisor restart — pay fixed-width copies instead
// of reflection-driven JSON, dependency-free and byte-deterministic: the
// same state always encodes to the same bytes.
//
// Its one type, Coder, runs in one direction. Every method takes a
// pointer to a field: an Encoder appends the field to a caller-owned
// buffer (reuse it across encodes to amortise allocation), a Decoder
// fills it from the input. So a layout is listed once, as a walk over
// the fields, and run both ways. Decoding latches the first error and
// checks every bound, so malformed input always surfaces as an error,
// never a panic or an attempt to allocate unbounded memory. Encoding
// only reads the value it walks, so one value may be encoded from
// several goroutines at once.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// Coder carries fields in one direction: appended to buf when encoding,
// read from buf at off when decoding. A decode's first malformed read
// latches err, and every later read returns a zero value, so a walk runs
// straight through and the caller checks Err or Expect once at the end.
//
// Slice and Ptr return what the caller needs to loop or branch on
// instead of taking a per-element function: a func value would make the
// Coder escape to the heap and cost an allocation per encode.
type Coder struct {
	buf    []byte
	off    int
	decode bool
	err    error
}

// Encoder returns a Coder that appends every field it is shown to buf
// (pass scratch from an earlier encode, truncated, to reuse it).
func Encoder(buf []byte) Coder { return Coder{buf: buf} }

// Decoder returns a Coder that fills every field it is shown from data.
func Decoder(data []byte) Coder { return Coder{buf: data, decode: true} }

// Decoding reports the direction: true when fields are being filled.
func (c *Coder) Decoding() bool { return c.decode }

// Buf returns the encoded buffer.
func (c *Coder) Buf() []byte { return c.buf }

// Err returns the sticky decode error, nil while the input is healthy.
func (c *Coder) Err() error { return c.err }

// Expect ends a decode: it errors unless no read failed and exactly zero
// bytes remain. Top-level decoders call it so trailing garbage is
// corruption, not silently ignored padding.
func (c *Coder) Expect() error {
	if c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("codec: %d trailing bytes after decode", len(c.buf)-c.off)
	}
	return c.err
}

// failf latches the first error with the current offset for context.
func (c *Coder) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("codec: offset %d: %s", c.off, fmt.Sprintf(format, args...))
	}
}

// take returns the next n input bytes as a view, or nil after latching
// an error when fewer remain.
func (c *Coder) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.failf("need %d bytes, have %d", n, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *Coder) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *Coder) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a uint32 element count and validates it against the bytes
// actually remaining: each element occupies at least elemSize bytes, so
// any count claiming more data than exists is corruption — refused
// here, before a decoder sizes an allocation from it.
func (c *Coder) count(elemSize int) int {
	n := int(c.u32())
	if rem := len(c.buf) - c.off; c.err == nil && n > rem/max(elemSize, 1) {
		c.failf("count %d exceeds remaining %d bytes at %d bytes/element", n, rem, elemSize)
	}
	if c.err != nil {
		return 0
	}
	return n
}

// Bool carries a bool as one byte, 1 or 0. Decoding refuses any other
// byte: a strict decode catches corruption early instead of laundering
// it into false.
func (c *Coder) Bool(v *bool) {
	switch {
	case !c.decode && *v:
		c.buf = append(c.buf, 1)
	case !c.decode:
		c.buf = append(c.buf, 0)
	default:
		b := c.take(1)
		*v = len(b) == 1 && b[0] == 1
		if len(b) == 1 && b[0] > 1 {
			c.failf("bool byte %d", b[0])
		}
	}
}

// U16 carries a little-endian uint16.
func (c *Coder) U16(v *uint16) {
	if !c.decode {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	} else {
		*v = 0
	}
}

// U64 carries a little-endian uint64.
func (c *Coder) U64(v *uint64) {
	if c.decode {
		*v = c.u64()
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	}
}

// I64 carries a little-endian int64 (two's complement).
func (c *Coder) I64(v *int64) {
	if c.decode {
		*v = int64(c.u64())
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	}
}

// Int carries an int as an int64.
func (c *Coder) Int(v *int) {
	if c.decode {
		*v = int(c.u64())
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	}
}

// Duration carries a time.Duration as its int64 nanosecond count.
func (c *Coder) Duration(v *time.Duration) { c.I64((*int64)(v)) }

// Enum carries an int-kinded enumeration as an int64.
func Enum[T ~int](c *Coder, v *T) {
	n := int(*v)
	if c.Int(&n); c.decode {
		*v = T(n)
	}
}

// F64 carries a float64 as its IEEE-754 bit pattern.
func (c *Coder) F64(v *float64) {
	if c.decode {
		*v = math.Float64frombits(c.u64())
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	}
}

// String carries a uint32-prefixed string.
func (c *Coder) String(v *string) {
	if c.decode {
		*v = string(c.take(c.count(1)))
	} else {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		c.buf = append(c.buf, *v...)
	}
}

// Bytes carries a uint32-prefixed byte slice; decoding copies it out of
// the input (nil when empty), so the value may outlive the buffer.
func (c *Coder) Bytes(v *[]byte) {
	if c.decode {
		*v = append([]byte(nil), c.take(c.count(1))...)
	} else {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		c.buf = append(c.buf, *v...)
	}
}

// crcTable is the Castagnoli polynomial, the CRC-32C used by filesystems
// and storage protocols for exactly this job.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum carries a CRC-32C over everything after it. Encoding reserves
// its four bytes and returns their offset for Seal. Decoding reads it
// and checks it against the rest of the input at once, latching an
// error on a mismatch, so a corrupt payload is refused before a walk
// reads any of it.
func (c *Coder) Checksum() int {
	if !c.decode {
		c.buf = append(c.buf, 0, 0, 0, 0)
		return len(c.buf) - 4
	}
	sum := c.u32()
	if got := crc32.Checksum(c.buf[c.off:], crcTable); c.err == nil && got != sum {
		c.failf("checksum mismatch: header crc32c:%08x, payload crc32c:%08x", sum, got)
	}
	return 0
}

// Seal ends an encode: it fills the checksum Checksum reserved at off
// with the CRC-32C of every byte appended after it.
func (c *Coder) Seal(off int) {
	binary.LittleEndian.PutUint32(c.buf[off:], crc32.Checksum(c.buf[off+4:], crcTable))
}

// Nest carries a uint32-prefixed nested encoding. Encoding writes *v or,
// when fn is non-nil, what fn appends to the buffer it is given (an
// AppendBinary-style encoder: no intermediate buffer), leaving *v a view
// of it. Decoding sets *v to a view into the input (no copy; nil when
// the read fails) for the caller to parse, and never calls fn.
func (c *Coder) Nest(v *[]byte, fn func([]byte) []byte) {
	switch {
	case c.decode:
		*v = c.take(c.count(1))
	case fn != nil:
		off := len(c.buf)
		c.buf = fn(append(c.buf, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(c.buf[off:], uint32(len(c.buf)-off-4))
		*v = c.buf[off+4:]
	default:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		c.buf = append(c.buf, *v...)
	}
}

// Floats carries a uint32-prefixed float64 slice, nil when empty.
func (c *Coder) Floats(v *[]float64) {
	if !c.decode {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		for _, f := range *v {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(f))
		}
		return
	}
	*v = nil
	if n := c.count(8); n > 0 {
		b, out := c.take(8*n), make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		*v = out
	}
}

// Ints carries a uint32-prefixed int slice, each element an int64, nil
// when empty.
func (c *Coder) Ints(v *[]int) {
	if !c.decode {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		for _, n := range *v {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(n))
		}
		return
	}
	*v = nil
	if n := c.count(8); n > 0 {
		b, out := c.take(8*n), make([]int, n)
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
		}
		*v = out
	}
}

// Slice carries the uint32 count of *s and returns the slice for the
// caller to walk element by element. Decoding validates the count —
// elemSize is the fewest bytes one element can occupy — before
// allocating *s, which stays nil when the count is zero or the input
// has already failed.
func Slice[T any](c *Coder, s *[]T, elemSize int) []T {
	if !c.decode {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
	} else if n := c.count(elemSize); n > 0 {
		*s = make([]T, n)
	} else {
		*s = nil
	}
	return *s
}

// Ptr carries the presence byte of an optional section and reports
// whether the caller should walk it; decoding allocates *p first.
func Ptr[T any](c *Coder, p **T) bool {
	present := *p != nil
	if c.Bool(&present); c.decode {
		*p = nil
		if present {
			*p = new(T)
		}
	}
	return present
}
