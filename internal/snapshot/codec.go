// Package snapshot implements the versioned, deterministic binary format
// mid-run machine state is serialized into (DESIGN.md §14). The codec is
// deliberately primitive: fixed-width little-endian integers, length-
// prefixed byte strings, and short section marks that make a Save/Load
// asymmetry fail loudly at the field where the two sides diverged instead
// of corrupting everything downstream.
//
// Determinism rules (enforced by simlint's determinism/maporder analyzers
// on this package): encoders iterate dense tables — arrays, slices, sorted
// key lists — never Go maps directly; every field is written in a fixed
// order; no floats, timestamps or pointer values enter the stream.
package snapshot

import (
	"encoding/binary"
	"fmt"
)

// Magic opens every snapshot file.
const Magic = "SMTPSNAP"

// Version is the current format version. Any change to field order,
// widths or section structure bumps it; Decoders reject other versions.
const Version uint32 = 3

// Encoder appends primitive values to a growing byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder primed with the magic and version header.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1<<16)}
	e.buf = append(e.buf, Magic...)
	e.U32(Version)
	return e
}

// Finish returns the encoded bytes.
func (e *Encoder) Finish() []byte { return e.buf }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 writes a fixed-width little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 writes a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 writes an int64 as its two's-complement uint64 image.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes a platform int (portably, as int64).
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes writes a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s writes a length-prefixed slice of uint64.
func (e *Encoder) U64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Ints writes a length-prefixed slice of int.
func (e *Encoder) Ints(vs []int) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.Int(v)
	}
}

// Bools writes a length-prefixed slice of bool.
func (e *Encoder) Bools(vs []bool) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.Bool(v)
	}
}

// Mark writes a short section tag. Decoders consume it with Expect; a
// mismatch pinpoints the first field where encode and decode disagree.
func (e *Encoder) Mark(tag string) {
	e.U8(uint8(len(tag)))
	e.buf = append(e.buf, tag...)
}

// Decoder consumes a byte stream produced by an Encoder. Errors are
// sticky: after the first failure every read returns zero values and
// Err() reports the original cause with its stream offset.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder validates the header and positions the decoder after it.
func NewDecoder(b []byte) (*Decoder, error) {
	d := &Decoder{buf: b}
	if len(b) < len(Magic)+4 || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	d.off = len(Magic)
	if v := d.U32(); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, want %d", v, Version)
	}
	return d, nil
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records a caller-detected inconsistency (a guard-field mismatch,
// an impossible value) as a decode error at the current offset.
func (d *Decoder) Fail(format string, args ...interface{}) { d.fail(format, args...) }

func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated: need %d bytes, have %d", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads a platform int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Count reads an item count written with Int. A count that is negative, or
// whose items cannot fit in the rest of the stream at minItemBytes encoded
// bytes each, fails the decoder and reads as 0, so a loader may size an
// allocation from the result: a corrupt count is a decode error, never an
// out-of-memory abort.
func (d *Decoder) Count(minItemBytes int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || (minItemBytes > 0 && n > (len(d.buf)-d.off)/minItemBytes) {
		d.fail("count %d does not fit the remaining %d bytes at %d bytes per item",
			n, len(d.buf)-d.off, minItemBytes)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte string.
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("byte string length %d exceeds remaining stream", n)
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// U64s reads a length-prefixed slice of uint64.
func (d *Decoder) U64s() []uint64 {
	n := d.U64()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off)/8 {
		d.fail("slice length %d exceeds remaining stream", n)
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	return vs
}

// Ints reads a length-prefixed slice of int.
func (d *Decoder) Ints() []int {
	n := d.U64()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off)/8 {
		d.fail("slice length %d exceeds remaining stream", n)
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// Bools reads a length-prefixed slice of bool.
func (d *Decoder) Bools() []bool {
	n := d.U64()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("slice length %d exceeds remaining stream", n)
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = d.Bool()
	}
	return vs
}

// Expect consumes a section tag and fails unless it matches. The error
// names both tags: the decoder's position in the schema and the
// encoder's, which is exactly the information needed to find a missing
// or extra field between them.
func (d *Decoder) Expect(tag string) {
	if d.err != nil {
		return
	}
	n := int(d.U8())
	b := d.take(n)
	if d.err != nil {
		return
	}
	if string(b) != tag {
		d.fail("section mark %q, want %q (Save/Load field order diverged)", string(b), tag)
	}
}
