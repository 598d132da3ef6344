// Package wire is the one set of binary primitives the control channel's
// frames (internal/ctlchan) and the journal's records (internal/journal)
// are built from: fixed-width little-endian integers, length-prefixed
// strings and slices. Simple enough to decode incrementally, strict
// enough that a truncated or corrupted buffer fails loudly instead of
// misparsing. Encoding appends to a caller-supplied buffer; decoding
// refills caller-supplied slices, and checks every length prefix against
// the bytes left before anything is allocated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/rmt"
)

// Enc appends to B.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) Str(s string) { e.U32(uint32(len(s))); e.B = append(e.B, s...) }
func (e *Enc) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}
func (e *Enc) Keys(ks []rmt.KeySpec) {
	e.U32(uint32(len(ks)))
	for _, k := range ks {
		e.U64(k.Value)
		e.U64(k.Mask)
		e.U64(k.Lo)
		e.U64(k.Hi)
	}
}

// ErrShort is the error of a Dec that ran out of bytes, or met a length
// prefix the rest of the buffer cannot hold.
var ErrShort = errors.New("wire: truncated buffer")

// MaxSliceLen rejects length prefixes a sane buffer cannot carry, so a
// corrupted one fails instead of allocating gigabytes.
const MaxSliceLen = 1 << 20

// Names interns the table, register and action names of decoded frames:
// an endpoint sees the same few names on every frame, so after the first
// sighting a name costs a map lookup instead of a string. Interned
// strings are copies and never alias a buffer.
type Names map[string]string

// maxNames bounds the table; past it (garbage inventing names) decoding
// falls back to allocating.
const maxNames = 1024

func (in Names) get(b []byte) string {
	if s, ok := in[string(b)]; ok { // no-alloc lookup form
		return s
	}
	s := string(b)
	if in != nil && len(in) < maxNames {
		in[s] = s
	}
	return s
}

// Dec reads B from Off. The first failure sticks in Err and every later
// read returns zero, so a decoder checks once, at the end (Leftover).
type Dec struct {
	B     []byte
	Off   int
	Err   error
	Names Names // nil: Name allocates like Text
}

func (d *Dec) Fail() { d.Err = ErrShort }

// take returns the next n bytes, still inside B; nil (and failed) if
// they are not there.
func (d *Dec) take(n int) []byte {
	if d.Err != nil || n > len(d.B)-d.Off {
		d.Fail()
		return nil
	}
	d.Off += n
	return d.B[d.Off-n : d.Off]
}

func (d *Dec) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}
func (d *Dec) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (d *Dec) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count reads a length prefix for elements of at least size bytes each
// and fails, before anything is allocated, if it exceeds MaxSliceLen or
// what the rest of the buffer could hold.
func (d *Dec) Count(size int) int {
	n := int(d.U32())
	if d.Err != nil || n > MaxSliceLen || n*size > len(d.B)-d.Off {
		d.Fail()
		return 0
	}
	return n
}

// Bytes returns the next length-prefixed byte string, still inside B.
func (d *Dec) Bytes() []byte { return d.take(d.Count(1)) }

// Name decodes an interned string; Text decodes a one-off.
func (d *Dec) Name() string { return d.Names.get(d.Bytes()) }
func (d *Dec) Text() string { return string(d.Bytes()) }

// U64s and Keys refill dst (truncated, capacity kept).
func (d *Dec) U64s(dst []uint64) []uint64 {
	dst = dst[:0]
	for n := d.Count(8); n > 0 && d.Err == nil; n-- {
		dst = append(dst, d.U64())
	}
	return dst
}
func (d *Dec) Keys(dst []rmt.KeySpec) []rmt.KeySpec {
	dst = dst[:0]
	for n := d.Count(32); n > 0 && d.Err == nil; n-- {
		dst = append(dst, rmt.KeySpec{Value: d.U64(), Mask: d.U64(), Lo: d.U64(), Hi: d.U64()})
	}
	return dst
}

// Leftover fails the decode if trailing bytes remain: a buffer must be
// consumed exactly.
func (d *Dec) Leftover() error {
	if d.Err != nil {
		return d.Err
	}
	if d.Off != len(d.B) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.B)-d.Off)
	}
	return nil
}
