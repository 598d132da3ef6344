// Package ctlchan turns the driver.Channel method set into sequenced
// request/response messages carried over a netsim.Link — the control
// channel between a Mantis agent and its switch, made explicit so it
// can drop, duplicate, reorder, delay, and partition like a real one.
//
// The in-process layers below (driver, ctlplane, faults) keep a clean
// failure model: an operation either applies or it doesn't, and the
// caller always learns which. A message channel breaks that assumption
// in one specific way — the request or its acknowledgment can be lost
// independently — and this package contains the machinery that puts the
// pieces back together:
//
//   - Sequencing and idempotency. Every request carries a per-session
//     sequence number, which doubles as its idempotency token: the
//     server caches each executed request's response by (session, seq)
//     and answers retransmits from the cache without re-executing, so a
//     mutation applies at-most-once no matter how many copies of the
//     request arrive. Each request also piggybacks the client's lowest
//     unresolved sequence number; the server garbage-collects its cache
//     below that floor and rejects (never executes) mutations that
//     surface from the network after their seq dropped below it.
//
//   - Retransmission with a deadline. The client retransmits un-acked
//     requests on a full-jitter backoff (faults.Backoff) until a
//     response arrives or the per-op deadline passes. A deadline expiry
//     surfaces driver.ErrChannelDegraded: the op may or may not have
//     applied. Before reporting it for a mutation, the client sits out
//     the link's maximum message lifetime (netsim.Link.MaxDelay) so no
//     stale copy of the abandoned request is still in flight — the
//     virtual-clock analogue of TCP's MSL quarantine — which makes a
//     subsequent switch audit definitive.
//
//   - Epoch fencing. Write sessions carry an election epoch. The server
//     tracks the highest epoch it has seen and rejects lower-epoch
//     mutations with ErrFenced, so a partitioned-then-healed old
//     primary cannot push stale writes past a standby takeover. The
//     per-session execution channel is expected to be a ctlplane
//     session opened with the same epoch as its election ID, so
//     demotion fences writes at the dispatcher too — two independent
//     fences.
//
// In-flight windowing bounds the number of outstanding requests per
// client; excess callers queue FIFO. Reads share the same machinery but
// skip the quarantine (a stale read executing late is harmless).
package ctlchan

import (
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
)

// ErrFenced marks a mutation rejected because a higher election epoch
// has been seen by the server: the issuing session lost a takeover while
// partitioned. Fenced is terminal for the session — not transient — so
// a demoted agent stops instead of retrying into a split brain.
var ErrFenced = errors.New("ctlchan: session fenced by higher epoch")

// Frame kinds (first byte on the wire).
const (
	frameRequest  uint8 = 0xC1
	frameResponse uint8 = 0xC2
	frameDatagram uint8 = 0xC3 // fire-and-forget request, no response
)

// The verb byte of a frame is the operation's driver.OpKind — the wire
// and the in-process layers share one vocabulary — plus one verb only
// the wire has: Memoize, the fire-and-forget descriptor hint.
const opMemoize = driver.OpKind(11)

// A kind added to the vocabulary must not collide with it.
const _ = uint(opMemoize - driver.NumOpKinds)

// Response status codes.
const (
	statusOK uint8 = iota
	// statusTransient: the inner channel failed transiently; the client
	// rebuilds an error wrapping driver.ErrTransient so the agent's
	// retry policy applies unchanged.
	statusTransient
	// statusFenced: the mutation was rejected by epoch fencing.
	statusFenced
	// statusStale: the request's seq is below the session's resolved
	// floor — a ghost copy of an operation the client already gave up
	// on. Never executed; no caller is waiting.
	statusStale
	// statusError: a non-transient remote error, carried as text.
	statusError
)

// request is the decoded form of one client→server frame: the header and
// the operation it carries (for opMemoize, just op.Table and op.Handle).
//
// A request is reused across frames. On the sending side its op's slices
// alias the caller's arguments for the duration of one call; on the
// receiving side decodeRequest refills it in place, truncating every
// slice and keeping its capacity, so neither side allocates per frame.
type request struct {
	Kind    uint8
	Session uint32
	Epoch   uint64
	Seq     uint64
	// Ack is the client's lowest unresolved seq: everything below it is
	// resolved client-side and can be dropped from the server's caches.
	Ack uint64

	op driver.Op

	// callBuf backs a decoded op.Call, so a SetDefaultAction frame
	// decodes without allocating one.
	callBuf p4.ActionCall
}

// response is the decoded form of one server→client frame. Like a
// request it is refilled in place: decodeResponse reuses the capacity of
// Vals and of each of its rows, which is how a batched read lands in
// rows the caller supplied.
type response struct {
	Session uint32
	Seq     uint64
	Status  uint8
	ErrMsg  string

	Handle  rmt.EntryHandle
	Val     uint64
	Vals    [][]uint64
	Entries []rmt.Entry
	Call    *p4.ActionCall
}

// carry puts a completed op's result in the response field that travels
// it; deliver, on the other side of the wire, hands it back to the
// caller's op. Between them they are the whole mapping from a kind's
// result to the wire.
func (r *response) carry(op *driver.Op) {
	switch op.Kind {
	case driver.OpAddEntry:
		r.Handle = op.NewHandle
	case driver.OpRegRead:
		r.Val = op.Val
	case driver.OpRead:
		r.Vals = op.Rows
	case driver.OpReadEntries:
		r.Entries = op.Entries
	case driver.OpReadDefault:
		r.Call = op.Call
	}
}

func (r *response) deliver(op *driver.Op) error {
	switch op.Kind {
	case driver.OpAddEntry:
		op.NewHandle = r.Handle
	case driver.OpRegRead:
		op.Val = r.Val
	case driver.OpRead:
		// The rows were decoded in place (Client.Do lent them to r.Vals).
		if len(r.Vals) != len(op.Rows) {
			return fmt.Errorf("ctlchan: BatchRead answered %d rows for %d ranges", len(r.Vals), len(op.Rows))
		}
		copy(op.Rows, r.Vals) // a no-op unless a row outgrew its capacity
	case driver.OpReadEntries:
		op.Entries = r.Entries
	case driver.OpReadDefault:
		op.Call = r.Call
	}
	return nil
}

// names interns the table, register and action names of decoded frames:
// an endpoint sees the same few names on every frame, so after the first
// sighting a name costs a map lookup instead of a string. Interned
// strings are copies and never alias a frame buffer.
type names map[string]string

// maxNames bounds the table; past it (garbage frames inventing names)
// decoding falls back to allocating.
const maxNames = 1024

func (in names) get(b []byte) string {
	if s, ok := in[string(b)]; ok { // no-alloc lookup form
		return s
	}
	s := string(b)
	if in != nil && len(in) < maxNames {
		in[s] = s
	}
	return s
}

// ---- Wire codec ----
//
// Fixed-width little-endian integers with length-prefixed strings and
// slices: simple enough to decode incrementally and strict enough that
// a truncated or corrupted frame fails loudly instead of misparsing.
// Encoding appends to a caller-supplied buffer; decoding fills a
// caller-supplied request or response.

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) u64s(vs []uint64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u64(v)
	}
}
func (e *enc) keys(ks []rmt.KeySpec) {
	e.u32(uint32(len(ks)))
	for _, k := range ks {
		e.u64(k.Value)
		e.u64(k.Mask)
		e.u64(k.Lo)
		e.u64(k.Hi)
	}
}
func (e *enc) entry(en *rmt.Entry) {
	e.u64(uint64(en.Handle))
	e.u64(uint64(int64(en.Priority)))
	e.str(en.Action)
	e.keys(en.Keys)
	e.u64s(en.Data)
}
func (e *enc) call(c *p4.ActionCall) {
	if c == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.str(c.Action)
	e.u64s(c.Data)
}

var errShortFrame = errors.New("ctlchan: truncated frame")

// maxSliceLen rejects length prefixes a sane frame cannot carry, so a
// corrupted frame fails instead of allocating gigabytes.
const maxSliceLen = 1 << 20

type dec struct {
	b     []byte
	off   int
	err   error
	names names
}

func (d *dec) fail() { d.err = errShortFrame }

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	b := d.b[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	b := d.b[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// count reads a length prefix for elements of at least size bytes each
// and fails, before anything is allocated, if it exceeds maxSliceLen or
// what the rest of the frame could hold.
func (d *dec) count(size int) int {
	n := int(d.u32())
	if d.err != nil || n > maxSliceLen || n*size > len(d.b)-d.off {
		d.fail()
		return 0
	}
	return n
}

// bytes returns the next length-prefixed byte string, still inside the
// frame buffer.
func (d *dec) bytes() []byte {
	n := d.count(1)
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// name decodes an interned string; text decodes a one-off.
func (d *dec) name() string { return d.names.get(d.bytes()) }
func (d *dec) text() string { return string(d.bytes()) }

// u64s and keys refill dst (truncated, capacity kept).
func (d *dec) u64s(dst []uint64) []uint64 {
	dst = dst[:0]
	for n := d.count(8); n > 0 && d.err == nil; n-- {
		dst = append(dst, d.u64())
	}
	return dst
}
func (d *dec) keys(dst []rmt.KeySpec) []rmt.KeySpec {
	dst = dst[:0]
	for n := d.count(32); n > 0 && d.err == nil; n-- {
		dst = append(dst, rmt.KeySpec{Value: d.u64(), Mask: d.u64(), Lo: d.u64(), Hi: d.u64()})
	}
	return dst
}
func (d *dec) entry(en *rmt.Entry) {
	en.Handle = rmt.EntryHandle(d.u64())
	en.Priority = int(int64(d.u64()))
	en.Action = d.name()
	en.Keys = d.keys(en.Keys)
	en.Data = d.u64s(en.Data)
}

// call decodes an optional action call into buf, returning buf or nil.
// The presence byte is 0 or 1; anything else is corruption.
func (d *dec) call(buf *p4.ActionCall) *p4.ActionCall {
	switch d.u8() {
	case 0:
		return nil
	case 1:
		buf.Action = d.name()
		buf.Data = d.u64s(buf.Data)
		return buf
	}
	d.fail()
	return nil
}

// leftover fails the decode if trailing bytes remain: a frame must be
// consumed exactly.
func (d *dec) leftover() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("ctlchan: %d trailing bytes in frame", len(d.b)-d.off)
	}
	return nil
}

// Minimum encoded sizes of the variable-length elements, for dec.count.
const (
	minReadReqSize = 4 + 8 + 8         // empty name, Lo, Hi
	minRowSize     = 4                 // empty row
	minEntrySize   = 8 + 8 + 4 + 4 + 4 // handle, priority, empty action/keys/data
)

// appendRequest appends r's frame (request or datagram) to b.
func appendRequest(b []byte, r *request) []byte {
	e := enc{b: b}
	e.u8(r.Kind)
	e.u32(r.Session)
	e.u64(r.Epoch)
	e.u64(r.Seq)
	e.u64(r.Ack)
	op := &r.op
	e.u8(uint8(op.Kind))
	switch op.Kind {
	case driver.OpAddEntry:
		e.str(op.Table)
		e.entry(&rmt.Entry{Handle: op.Handle, Priority: op.Priority, Action: op.Action, Keys: op.Keys, Data: op.Data})
	case driver.OpModifyEntry:
		e.str(op.Table)
		e.u64(uint64(op.Handle))
		e.str(op.Action)
		e.u64s(op.Data)
	case driver.OpDeleteEntry, opMemoize:
		e.str(op.Table)
		e.u64(uint64(op.Handle))
	case driver.OpSetDefault:
		e.str(op.Table)
		e.call(op.Call)
	case driver.OpSetHashSeed:
		e.str(op.Table)
		e.u64(op.Val)
	case driver.OpRegWrite:
		e.str(op.Table)
		e.u64(op.Idx)
		e.u64(op.Val)
	case driver.OpRegRead:
		e.str(op.Table)
		e.u64(op.Idx)
	case driver.OpRead:
		e.u32(uint32(len(op.Reqs)))
		for _, rq := range op.Reqs {
			e.str(rq.Reg)
			e.u64(rq.Lo)
			e.u64(rq.Hi)
		}
	case driver.OpReadEntries, driver.OpReadDefault:
		e.str(op.Table)
	}
	return e.b
}

// decodeRequest parses a request or datagram frame into r, replacing
// whatever r held: every field is reset first, slices are truncated with
// their capacity kept. Names are interned through in (nil: allocated).
// On error r's contents are unspecified.
func decodeRequest(r *request, b []byte, in names) error {
	*r = request{
		op:      driver.Op{Keys: r.op.Keys[:0], Data: r.op.Data[:0], Reqs: r.op.Reqs[:0]},
		callBuf: p4.ActionCall{Data: r.callBuf.Data[:0]},
	}
	d := dec{b: b, names: in}
	r.Kind = d.u8()
	if r.Kind != frameRequest && r.Kind != frameDatagram {
		return fmt.Errorf("ctlchan: not a request frame (kind 0x%02x)", r.Kind)
	}
	r.Session = d.u32()
	r.Epoch = d.u64()
	r.Seq = d.u64()
	r.Ack = d.u64()
	op := &r.op
	op.Kind = driver.OpKind(d.u8())
	switch op.Kind {
	case driver.OpAddEntry:
		op.Table = d.name()
		en := rmt.Entry{Keys: op.Keys, Data: op.Data}
		d.entry(&en)
		op.Handle, op.Priority, op.Action, op.Keys, op.Data = en.Handle, en.Priority, en.Action, en.Keys, en.Data
	case driver.OpModifyEntry:
		op.Table = d.name()
		op.Handle = rmt.EntryHandle(d.u64())
		op.Action = d.name()
		op.Data = d.u64s(op.Data)
	case driver.OpDeleteEntry, opMemoize:
		op.Table = d.name()
		op.Handle = rmt.EntryHandle(d.u64())
	case driver.OpSetDefault:
		op.Table = d.name()
		op.Call = d.call(&r.callBuf)
	case driver.OpSetHashSeed:
		op.Table = d.name()
		op.Val = d.u64()
	case driver.OpRegWrite:
		op.Table = d.name()
		op.Idx = d.u64()
		op.Val = d.u64()
	case driver.OpRegRead:
		op.Table = d.name()
		op.Idx = d.u64()
	case driver.OpRead:
		op.Batched = true
		for n := d.count(minReadReqSize); n > 0 && d.err == nil; n-- {
			op.Reqs = append(op.Reqs, driver.ReadReq{Reg: d.name(), Lo: d.u64(), Hi: d.u64()})
		}
	case driver.OpReadEntries, driver.OpReadDefault:
		op.Table = d.name()
	default:
		return fmt.Errorf("ctlchan: unknown verb %d", op.Kind)
	}
	return d.leftover()
}

// appendResponse appends r's frame to b.
func appendResponse(b []byte, r *response) []byte {
	e := enc{b: b}
	e.u8(frameResponse)
	e.u32(r.Session)
	e.u64(r.Seq)
	e.u8(r.Status)
	e.str(r.ErrMsg)
	e.u64(uint64(r.Handle))
	e.u64(r.Val)
	e.u32(uint32(len(r.Vals)))
	for _, vs := range r.Vals {
		e.u64s(vs)
	}
	e.u32(uint32(len(r.Entries)))
	for i := range r.Entries {
		e.entry(&r.Entries[i])
	}
	e.call(r.Call)
	return e.b
}

// responseSeq reads the sequence number out of a response frame's fixed
// header without decoding the rest, so the client can pick the call the
// body should be decoded into. ok is false for anything too short or
// not a response; decodeResponse reports why.
func responseSeq(b []byte) (seq uint64, ok bool) {
	d := dec{b: b}
	if d.u8() != frameResponse {
		return 0, false
	}
	d.u32()
	seq = d.u64()
	return seq, d.err == nil
}

// decodeResponse parses a response frame into r, replacing whatever r
// held. Vals and its rows are refilled in place (truncated, capacity
// kept); Entries and Call, which only audit reads carry, are allocated.
// On error r's contents are unspecified.
func decodeResponse(r *response, b []byte, in names) error {
	*r = response{Vals: r.Vals[:0]}
	d := dec{b: b, names: in}
	if k := d.u8(); k != frameResponse {
		return fmt.Errorf("ctlchan: not a response frame (kind 0x%02x)", k)
	}
	r.Session = d.u32()
	r.Seq = d.u64()
	r.Status = d.u8()
	r.ErrMsg = d.text()
	r.Handle = rmt.EntryHandle(d.u64())
	r.Val = d.u64()
	for n := d.count(minRowSize); n > 0 && d.err == nil; n-- {
		var row []uint64
		if n := len(r.Vals); n < cap(r.Vals) {
			row = r.Vals[:n+1][n] // the row this slot last held: reuse its capacity
		}
		r.Vals = append(r.Vals, d.u64s(row))
	}
	if n := d.count(minEntrySize); n > 0 {
		r.Entries = make([]rmt.Entry, n)
		for i := 0; i < n && d.err == nil; i++ {
			d.entry(&r.Entries[i])
		}
	}
	switch d.u8() {
	case 0:
	case 1:
		r.Call = &p4.ActionCall{Action: d.name(), Data: d.u64s(nil)}
	default:
		d.fail()
	}
	return d.leftover()
}
