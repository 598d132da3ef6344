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
//   - Fencing, decided by the ctlplane election. Each attached session
//     executes on a ctlplane session, served by its own process, so the
//     service schedules every session's frames and refuses a demoted
//     primary's writes. The server answers such a write as fenced and
//     the client reports ErrFenced, so a partitioned-then-healed old
//     primary cannot push stale writes past a standby takeover. Requests
//     still carry the session's election epoch, which the server only
//     reports.
//
// The channel is stop-and-wait: a client has one request outstanding,
// and a caller that arrives meanwhile waits its turn. Reads share the
// same machinery but skip the quarantine (a stale read executing late is
// harmless).
package ctlchan

import (
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/wire"
)

// ErrFenced marks a mutation the ctlplane election refused: the issuing
// session lost a takeover, typically while partitioned. Fenced is
// terminal for the session — not transient — so a demoted agent stops
// instead of retrying into a split brain.
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
	// statusFenced: the ctlplane election refused the mutation
	// (ctlplane.ErrNotPrimary).
	statusFenced
	// statusStale: the request's seq is below the session's resolved
	// floor — a ghost copy of an operation the client already gave up
	// on. Never executed; no caller is waiting.
	statusStale
	// statusError: a non-transient remote error, carried as text.
	statusError
)

// request is the decoded form of one client→server frame: the header and
// the run of operations it carries, in order (for opMemoize, just
// op.Table and op.Handle). The ops follow the header until the frame
// ends, so a one-op frame is exactly what the wire carried before runs.
//
// A request is reused across frames. On the sending side ops copies the
// caller's run, aliasing its slices for the duration of one call; on the
// receiving side decodeRequest refills it in place, truncating every
// slice (each op's too) and keeping its capacity, so neither side
// allocates per frame.
type request struct {
	Kind    uint8
	Session uint32
	Epoch   uint64
	Seq     uint64
	// Ack is the client's lowest unresolved seq: everything below it is
	// resolved client-side and can be dropped from the server's caches.
	Ack uint64

	ops []driver.Op

	// calls backs the decoded ops' Call, one slot per op, so a
	// SetDefaultAction decodes without allocating one.
	calls []p4.ActionCall
}

// mutating counts the run's ops that change switch state.
func mutating(ops []driver.Op) int {
	n := 0
	for i := range ops {
		if ops[i].Kind.Mutating() {
			n++
		}
	}
	return n
}

// runName labels a run for error text: the op's verb for a run of one
// (a kind boxes without allocating), otherwise its length.
func runName(ops []driver.Op) any {
	if len(ops) == 1 {
		return ops[0].Kind
	}
	return fmt.Sprintf("run of %d ops", len(ops))
}

// response is the decoded form of one server→client frame. Like a
// request it is refilled in place: decodeResponse reuses the capacity of
// Results and of each result's rows, which is how a batched read lands
// in rows the caller supplied.
type response struct {
	Session uint32
	Seq     uint64
	// Status and ErrMsg are the outcome of the op that stopped the run:
	// statusOK and empty when every op applied. A frame refused whole
	// (stale, fenced) stops at its first op.
	Status uint8
	ErrMsg string
	// Results holds one result per applied op, in run order: its length
	// is the applied count.
	Results []result
}

// result is one applied op's completion as it travels. Kind is the op's,
// and says which field, if any, carries the result.
type result struct {
	Kind    driver.OpKind
	Handle  rmt.EntryHandle
	Val     uint64
	Vals    [][]uint64
	Entries []rmt.Entry
	Call    *p4.ActionCall
}

// carry puts a completed op's result in the field that travels it;
// deliver, on the other side of the wire, hands it back to the caller's
// op. Between them they are the whole mapping from a kind's result to
// the wire.
func (r *result) carry(op *driver.Op) {
	r.Kind = op.Kind
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

func (r *result) deliver(op *driver.Op) error {
	if r.Kind != op.Kind {
		return fmt.Errorf("ctlchan: %s answered with a %s result", op.Kind, r.Kind)
	}
	switch op.Kind {
	case driver.OpAddEntry:
		op.NewHandle = r.Handle
	case driver.OpRegRead:
		op.Val = r.Val
	case driver.OpRead:
		// The rows were decoded in place (DoRun lent them to r.Vals).
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

// ---- Wire codec ----
//
// Frames are built from the internal/wire primitives (shared with the
// journal's records). Encoding appends to a caller-supplied buffer;
// decoding fills a caller-supplied request or response.

func encEntry(e *wire.Enc, en *rmt.Entry) {
	e.U64(uint64(en.Handle))
	e.U64(uint64(int64(en.Priority)))
	e.Str(en.Action)
	e.Keys(en.Keys)
	e.U64s(en.Data)
}

func encCall(e *wire.Enc, c *p4.ActionCall) {
	if c == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.Str(c.Action)
	e.U64s(c.Data)
}

func decEntry(d *wire.Dec, en *rmt.Entry) {
	en.Handle = rmt.EntryHandle(d.U64())
	en.Priority = int(int64(d.U64()))
	en.Action = d.Name()
	en.Keys = d.Keys(en.Keys)
	en.Data = d.U64s(en.Data)
}

// decCall decodes an optional action call into buf, returning buf or
// nil. The presence byte is 0 or 1; anything else is corruption.
func decCall(d *wire.Dec, buf *p4.ActionCall) *p4.ActionCall {
	switch d.U8() {
	case 0:
		return nil
	case 1:
		buf.Action = d.Name()
		buf.Data = d.U64s(buf.Data)
		return buf
	}
	d.Fail()
	return nil
}

// Minimum encoded sizes of the variable-length elements, for dec.count.
const (
	minReadReqSize = 4 + 8 + 8         // empty name, Lo, Hi
	minRowSize     = 4                 // empty row
	minEntrySize   = 8 + 8 + 4 + 4 + 4 // handle, priority, empty action/keys/data
	minResultSize  = 1                 // a kind that returns nothing
)

// appendRequest appends r's frame (request or datagram) to b: the
// header, then each op of the run.
func appendRequest(b []byte, r *request) []byte {
	e := wire.Enc{B: b}
	e.U8(r.Kind)
	e.U32(r.Session)
	e.U64(r.Epoch)
	e.U64(r.Seq)
	e.U64(r.Ack)
	for i := range r.ops {
		encOp(&e, &r.ops[i])
	}
	return e.B
}

func encOp(e *wire.Enc, op *driver.Op) {
	e.U8(uint8(op.Kind))
	switch op.Kind {
	case driver.OpAddEntry:
		e.Str(op.Table)
		encEntry(e, &rmt.Entry{Handle: op.Handle, Priority: op.Priority, Action: op.Action, Keys: op.Keys, Data: op.Data})
	case driver.OpModifyEntry:
		e.Str(op.Table)
		e.U64(uint64(op.Handle))
		e.Str(op.Action)
		e.U64s(op.Data)
	case driver.OpDeleteEntry, opMemoize:
		e.Str(op.Table)
		e.U64(uint64(op.Handle))
	case driver.OpSetDefault:
		e.Str(op.Table)
		encCall(e, op.Call)
	case driver.OpSetHashSeed:
		e.Str(op.Table)
		e.U64(op.Val)
	case driver.OpRegWrite:
		e.Str(op.Table)
		e.U64(op.Idx)
		e.U64(op.Val)
	case driver.OpRegRead:
		e.Str(op.Table)
		e.U64(op.Idx)
	case driver.OpRead:
		e.U32(uint32(len(op.Reqs)))
		for _, rq := range op.Reqs {
			e.Str(rq.Reg)
			e.U64(rq.Lo)
			e.U64(rq.Hi)
		}
	case driver.OpReadEntries, driver.OpReadDefault:
		e.Str(op.Table)
	}
}

// decodeRequest parses a request or datagram frame into r, replacing
// whatever r held: every field is reset first, slices are truncated with
// their capacity kept. A frame carries at least one op. Names are
// interned through in (nil: allocated). On error r's contents are
// unspecified.
func decodeRequest(r *request, b []byte, in wire.Names) error {
	*r = request{ops: r.ops[:0], calls: r.calls[:0]}
	d := wire.Dec{B: b, Names: in}
	r.Kind = d.U8()
	if r.Kind != frameRequest && r.Kind != frameDatagram {
		return fmt.Errorf("ctlchan: not a request frame (kind 0x%02x)", r.Kind)
	}
	r.Session = d.U32()
	r.Epoch = d.U64()
	r.Seq = d.U64()
	r.Ack = d.U64()
	for d.Err == nil && (len(r.ops) == 0 || d.Off < len(d.B)) {
		// Refill the slot this op last held: reuse its slices' capacity.
		i := len(r.ops)
		var op driver.Op
		var call p4.ActionCall
		if i < cap(r.ops) {
			old := r.ops[:i+1][i]
			op = driver.Op{Keys: old.Keys[:0], Data: old.Data[:0], Reqs: old.Reqs[:0]}
		}
		if i < cap(r.calls) {
			call.Data = r.calls[:i+1][i].Data[:0]
		}
		r.ops, r.calls = append(r.ops, op), append(r.calls, call)
		if err := decOp(&d, &r.ops[i], &r.calls[i]); err != nil {
			return err
		}
	}
	// Growing calls may have moved it: point each decoded Call at its slot.
	for i := range r.ops {
		if r.ops[i].Call != nil {
			r.ops[i].Call = &r.calls[i]
		}
	}
	return d.Leftover()
}

// decOp decodes one op of a run into op, a SetDefaultAction's call into
// callBuf.
func decOp(d *wire.Dec, op *driver.Op, callBuf *p4.ActionCall) error {
	op.Kind = driver.OpKind(d.U8())
	switch op.Kind {
	case driver.OpAddEntry:
		op.Table = d.Name()
		en := rmt.Entry{Keys: op.Keys, Data: op.Data}
		decEntry(d, &en)
		op.Handle, op.Priority, op.Action, op.Keys, op.Data = en.Handle, en.Priority, en.Action, en.Keys, en.Data
	case driver.OpModifyEntry:
		op.Table = d.Name()
		op.Handle = rmt.EntryHandle(d.U64())
		op.Action = d.Name()
		op.Data = d.U64s(op.Data)
	case driver.OpDeleteEntry, opMemoize:
		op.Table = d.Name()
		op.Handle = rmt.EntryHandle(d.U64())
	case driver.OpSetDefault:
		op.Table = d.Name()
		op.Call = decCall(d, callBuf)
	case driver.OpSetHashSeed:
		op.Table = d.Name()
		op.Val = d.U64()
	case driver.OpRegWrite:
		op.Table = d.Name()
		op.Idx = d.U64()
		op.Val = d.U64()
	case driver.OpRegRead:
		op.Table = d.Name()
		op.Idx = d.U64()
	case driver.OpRead:
		for n := d.Count(minReadReqSize); n > 0 && d.Err == nil; n-- {
			op.Reqs = append(op.Reqs, driver.ReadReq{Reg: d.Name(), Lo: d.U64(), Hi: d.U64()})
		}
	case driver.OpReadEntries, driver.OpReadDefault:
		op.Table = d.Name()
	default:
		if d.Err != nil {
			return d.Err
		}
		return fmt.Errorf("ctlchan: unknown verb %d", op.Kind)
	}
	return nil
}

// appendResponse appends r's frame to b: the header, the stopping op's
// status and message, then each applied op's result.
func appendResponse(b []byte, r *response) []byte {
	e := wire.Enc{B: b}
	e.U8(frameResponse)
	e.U32(r.Session)
	e.U64(r.Seq)
	e.U8(r.Status)
	e.Str(r.ErrMsg)
	e.U32(uint32(len(r.Results)))
	for i := range r.Results {
		encResult(&e, &r.Results[i])
	}
	return e.B
}

// encResult writes one result: its kind, then what that kind returns.
func encResult(e *wire.Enc, r *result) {
	e.U8(uint8(r.Kind))
	switch r.Kind {
	case driver.OpAddEntry:
		e.U64(uint64(r.Handle))
	case driver.OpRegRead:
		e.U64(r.Val)
	case driver.OpRead:
		e.U32(uint32(len(r.Vals)))
		for _, vs := range r.Vals {
			e.U64s(vs)
		}
	case driver.OpReadEntries:
		e.U32(uint32(len(r.Entries)))
		for i := range r.Entries {
			encEntry(e, &r.Entries[i])
		}
	case driver.OpReadDefault:
		encCall(e, r.Call)
	}
}

// responseSeq reads the sequence number out of a response frame's fixed
// header without decoding the rest, so the client can pick the call the
// body should be decoded into. ok is false for anything too short or
// not a response; decodeResponse reports why.
func responseSeq(b []byte) (seq uint64, ok bool) {
	d := wire.Dec{B: b}
	if d.U8() != frameResponse {
		return 0, false
	}
	d.U32()
	seq = d.U64()
	return seq, d.Err == nil
}

// decodeResponse parses a response frame into r, replacing whatever r
// held. Results and each read's rows are refilled in place (truncated,
// capacity kept); Entries and Call, which only audit reads carry, are
// allocated. On error r's contents are unspecified.
func decodeResponse(r *response, b []byte, in wire.Names) error {
	*r = response{Results: r.Results[:0]}
	d := wire.Dec{B: b, Names: in}
	if k := d.U8(); k != frameResponse {
		return fmt.Errorf("ctlchan: not a response frame (kind 0x%02x)", k)
	}
	r.Session = d.U32()
	r.Seq = d.U64()
	r.Status = d.U8()
	r.ErrMsg = d.Text()
	for n := d.Count(minResultSize); n > 0 && d.Err == nil; n-- {
		i := len(r.Results)
		var rows [][]uint64
		if i < cap(r.Results) {
			rows = r.Results[:i+1][i].Vals // the rows this slot last held: reuse their capacity
		}
		r.Results = append(r.Results, result{})
		decResult(&d, &r.Results[i], rows)
	}
	return d.Leftover()
}

// decResult decodes one result into res, a read's rows into rows'
// capacity. Whatever the kind, res keeps rows (emptied), so a slot that
// alternates between reads and writes does not reallocate them.
func decResult(d *wire.Dec, res *result, rows [][]uint64) {
	res.Kind = driver.OpKind(d.U8())
	res.Vals = rows[:0]
	switch res.Kind {
	case driver.OpAddEntry:
		res.Handle = rmt.EntryHandle(d.U64())
	case driver.OpRegRead:
		res.Val = d.U64()
	case driver.OpRead:
		for n := d.Count(minRowSize); n > 0 && d.Err == nil; n-- {
			var row []uint64
			if k := len(res.Vals); k < cap(res.Vals) {
				row = res.Vals[:k+1][k] // the row this slot last held: reuse its capacity
			}
			res.Vals = append(res.Vals, d.U64s(row))
		}
	case driver.OpReadEntries:
		if n := d.Count(minEntrySize); n > 0 {
			res.Entries = make([]rmt.Entry, n)
			for i := 0; i < n && d.Err == nil; i++ {
				decEntry(d, &res.Entries[i])
			}
		}
	case driver.OpReadDefault:
		switch d.U8() {
		case 0:
		case 1:
			res.Call = &p4.ActionCall{Action: d.Name(), Data: d.U64s(nil)}
		default:
			d.Fail()
		}
	case driver.OpModifyEntry, driver.OpDeleteEntry, driver.OpSetDefault, driver.OpSetHashSeed, driver.OpRegWrite:
	default:
		d.Fail()
	}
}
