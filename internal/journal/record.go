package journal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/wire"
)

// The durable form of a Checkpoint or an Intent is one framed binary
// record (DESIGN §6d):
//
//	u32 magic   "MJR" + format version
//	u32 length  of the body
//	u32 crc     CRC-32 (IEEE) of the body
//	body        u8 record kind, then the fields in declaration order, built
//	            from the internal/wire primitives (little-endian integers,
//	            length-prefixed strings and slices; maps as sorted pairs)
//
// The encoding is canonical — equal records encode to equal bytes, a nil
// and an empty slice or map both as length 0 (and decode as nil) — and a
// record is valid only whole: the length must account for every byte
// present and the checksum must match, so a truncated, extended or
// bit-flipped record is detected (ErrCorrupt), never read as a different
// one.

// ErrCorrupt marks bytes that are not one whole record of this format.
var ErrCorrupt = errors.New("journal: corrupt record")

const (
	recordMagic   uint32 = 'M' | 'J'<<8 | 'R'<<16 | 1<<24 // last byte: format version
	headerSize           = 12
	recCheckpoint uint8  = 1
	recIntent     uint8  = 2
)

// Encoder appends records. It owns the scratch that emitting a map in
// sorted order needs, so one Encoder serves one writer at a time; the
// zero value is ready.
type Encoder struct{ keys []string }

// begin reserves the header and opens a body of the given kind.
func begin(b []byte, kind uint8) (wire.Enc, int) {
	w := wire.Enc{B: append(b, make([]byte, headerSize)...)}
	w.U8(kind)
	return w, len(b)
}

// seal fills in the header of the record that starts at b[start].
func seal(b []byte, start int) []byte {
	body := b[start+headerSize:]
	h := wire.Enc{B: b[start:start]}
	h.U32(recordMagic)
	h.U32(uint32(len(body)))
	h.U32(crc32.ChecksumIEEE(body))
	return b
}

// open checks b's framing and returns a decoder over the body, past the
// kind byte.
func open(b []byte, kind uint8) (wire.Dec, error) {
	h := wire.Dec{B: b}
	magic, n, sum := h.U32(), h.U32(), h.U32()
	switch {
	case h.Err != nil:
		return h, fmt.Errorf("%w: %d bytes, shorter than a record header", ErrCorrupt, len(b))
	case magic != recordMagic:
		return h, fmt.Errorf("%w: magic %#08x, want %#08x", ErrCorrupt, magic, recordMagic)
	case int64(n) != int64(len(b)-headerSize):
		return h, fmt.Errorf("%w: header claims a %d-byte body, %d bytes follow it", ErrCorrupt, n, len(b)-headerSize)
	case crc32.ChecksumIEEE(b[headerSize:]) != sum:
		return h, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := wire.Dec{B: b, Off: headerSize}
	if k := d.U8(); k != kind {
		return d, fmt.Errorf("%w: record kind %d, want %d", ErrCorrupt, k, kind)
	}
	return d, nil
}

// finish returns v if the decode consumed the body exactly.
func finish[T any](v *T, d *wire.Dec) (*T, error) {
	if err := d.Leftover(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func (e *Encoder) mbl(w *wire.Enc, m map[string]uint64) {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	w.U32(uint32(len(e.keys)))
	for _, k := range e.keys {
		w.Str(k)
		w.U64(m[k])
	}
}

func decMbl(d *wire.Dec) map[string]uint64 {
	n := d.Count(4 + 8)
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for ; n > 0 && d.Err == nil; n-- {
		k := d.Text()
		m[k] = d.U64()
	}
	return m
}

func encRows(w *wire.Enc, rows [][]uint64) {
	w.U32(uint32(len(rows)))
	for _, r := range rows {
		w.U64s(r)
	}
}

func decRows(d *wire.Dec) [][]uint64 {
	var rows [][]uint64
	for n := d.Count(4); n > 0 && d.Err == nil; n-- {
		rows = append(rows, d.U64s(nil))
	}
	return rows
}

func encSpec(w *wire.Enc, s *EntrySpec) {
	w.Keys(s.Keys)
	w.U64(uint64(int64(s.Priority)))
	w.Str(s.Action)
	w.U64s(s.Data)
}

func decSpec(d *wire.Dec) EntrySpec {
	return EntrySpec{Keys: d.Keys(nil), Priority: int(int64(d.U64())), Action: d.Text(), Data: d.U64s(nil)}
}

// Minimum encoded sizes of the variable-length elements, for Dec.Count.
const (
	minSpecSize  = 4 + 8 + 4 + 4
	minTableSize = 4 + 8 + 4
	minRegSize   = 4 + 4 + 4 + 4
	minOpSize    = 4 + 4 + 8 + minSpecSize
)

// AppendCheckpoint appends c's record to b.
func (e *Encoder) AppendCheckpoint(b []byte, c *Checkpoint) []byte {
	w, start := begin(b, recCheckpoint)
	w.U64(c.Iteration)
	w.U64(c.VV)
	w.U64(c.MV)
	w.U64(uint64(c.SavedAt))
	encRows(&w, c.InitData)
	e.mbl(&w, c.Mbl)
	w.U32(uint32(len(c.Tables)))
	for i := range c.Tables {
		ts := &c.Tables[i]
		w.Str(ts.Table)
		w.U64(ts.NextHandle)
		w.U32(uint32(len(ts.Entries)))
		for j := range ts.Entries {
			w.U64(ts.Entries[j].Handle)
			encSpec(&w, &ts.Entries[j].Spec)
		}
	}
	w.U32(uint32(len(c.RegCaches)))
	for i := range c.RegCaches {
		rc := &c.RegCaches[i]
		w.Str(rc.Name)
		w.U64s(rc.Vals)
		w.U64s(rc.LastTs[0])
		w.U64s(rc.LastTs[1])
	}
	return seal(w.B, start)
}

// DecodeCheckpoint parses one checkpoint record. The result shares
// nothing with b.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	d, err := open(b, recCheckpoint)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Iteration: d.U64(), VV: d.U64(), MV: d.U64(), SavedAt: int64(d.U64())}
	c.InitData = decRows(&d)
	c.Mbl = decMbl(&d)
	for n := d.Count(minTableSize); n > 0 && d.Err == nil; n-- {
		ts := TableState{Table: d.Text(), NextHandle: d.U64()}
		for m := d.Count(8 + minSpecSize); m > 0 && d.Err == nil; m-- {
			ts.Entries = append(ts.Entries, EntryState{Handle: d.U64(), Spec: decSpec(&d)})
		}
		c.Tables = append(c.Tables, ts)
	}
	for n := d.Count(minRegSize); n > 0 && d.Err == nil; n-- {
		c.RegCaches = append(c.RegCaches, RegCache{
			Name: d.Text(), Vals: d.U64s(nil), LastTs: [2][]uint64{d.U64s(nil), d.U64s(nil)},
		})
	}
	return finish(c, &d)
}

// AppendIntent appends it's record to b.
func (e *Encoder) AppendIntent(b []byte, it *Intent) []byte {
	w, start := begin(b, recIntent)
	w.U64(it.Iteration)
	w.Str(string(it.Phase))
	w.U64(it.StartVV)
	w.U64(it.TargetVV)
	w.U64(uint64(it.WrittenAt))
	w.U32(uint32(len(it.Ops)))
	for i := range it.Ops {
		op := &it.Ops[i]
		w.Str(op.Table)
		w.Str(string(op.Kind))
		w.U64(op.Handle)
		encSpec(&w, &op.Spec)
	}
	e.mbl(&w, it.PendingMbl)
	encRows(&w, it.TargetInitData)
	return seal(w.B, start)
}

// DecodeIntent parses one intent record. The result shares nothing
// with b.
func DecodeIntent(b []byte) (*Intent, error) {
	d, err := open(b, recIntent)
	if err != nil {
		return nil, err
	}
	it := &Intent{Iteration: d.U64(), Phase: Phase(d.Text()), StartVV: d.U64(), TargetVV: d.U64(), WrittenAt: int64(d.U64())}
	for n := d.Count(minOpSize); n > 0 && d.Err == nil; n-- {
		it.Ops = append(it.Ops, TableOp{Table: d.Text(), Kind: TableOpKind(d.Text()), Handle: d.U64(), Spec: decSpec(&d)})
	}
	it.PendingMbl = decMbl(&d)
	it.TargetInitData = decRows(&d)
	return finish(it, &d)
}
