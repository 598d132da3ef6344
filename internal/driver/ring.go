package driver

import (
	"errors"
	"fmt"

	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// This file implements the driver's ring-buffer submission channel: a
// fixed-capacity pair of submit/completion queues over one Channel,
// shaped like the DMA descriptor rings real switch drivers feed
// (reserve a descriptor slot, fill it in place, ring the doorbell,
// reap completions). The point is the allocation profile, not new
// semantics: a control-plane client that issues many small writes per
// dialogue iteration reserves slots in a preallocated ring and flushes
// them in one call, so the steady state touches no heap at all —
// descriptors, their data buffers, and their completion records are
// all ring-resident and reused lap after lap.
//
// The cost model is untouched: Flush executes each descriptor against
// the underlying Channel exactly as if the caller had made the call
// itself, so channel occupancy, serialization, and per-op capture-time
// semantics are identical to unbatched submission. What the ring saves
// is host-side work, mirroring how a real DMA ring saves PCIe doorbell
// writes rather than descriptor processing time.
//
// Ordering and journaling: descriptors execute in reservation order
// (FIFO), and Flush is the only point where switch state changes. A
// client that journals its write-ahead intent before calling Flush
// therefore keeps the journal-before-mutation invariant for every
// descriptor in the ring; Reserve and the Set* encoders are pure
// host-memory staging.

// ErrRingFull reports a Reserve on a ring with no free slots: every
// slot holds either a staged descriptor or an unconsumed completion.
// The caller must Flush and Drain before reserving again. It wraps
// ErrTransient — like a full hardware queue, retrying after draining
// succeeds.
var ErrRingFull = fmt.Errorf("submission ring full: %w", ErrTransient)

// OpKind selects the channel verb a ring descriptor encodes.
type OpKind uint8

const (
	// OpNone marks an unused descriptor (zero value).
	OpNone OpKind = iota
	// OpAddEntry installs a table entry (completion carries NewHandle).
	OpAddEntry
	// OpModifyEntry rebinds an entry's action and data.
	OpModifyEntry
	// OpDeleteEntry removes an entry.
	OpDeleteEntry
	// OpSetDefault replaces a table's miss action.
	OpSetDefault
	// OpSetHashSeed reprograms a hash calculation.
	OpSetHashSeed
	// OpRegWrite writes one register cell.
	OpRegWrite
)

// String names the kind for stats and errors.
func (k OpKind) String() string {
	switch k {
	case OpAddEntry:
		return "AddEntry"
	case OpModifyEntry:
		return "ModifyEntry"
	case OpDeleteEntry:
		return "DeleteEntry"
	case OpSetDefault:
		return "SetDefaultAction"
	case OpSetHashSeed:
		return "SetHashSeed"
	case OpRegWrite:
		return "RegWrite"
	default:
		return "None"
	}
}

// RingOp is one descriptor: the encoded operation before Flush, plus
// its completion record (Err, NewHandle) after. Slots are reused in
// place — the keys/data slices keep their capacity across laps, which
// is what makes steady-state submission allocation-free. Callers fill
// descriptors with the Set* encoders rather than assigning fields so
// buffer reuse stays in one place.
type RingOp struct {
	Kind   OpKind
	Table  string // table, register, or hash-calculation name
	Handle rmt.EntryHandle
	Action string
	Data   []uint64 // action data (reused capacity)
	// keys/priority stage an OpAddEntry's match spec (reused capacity).
	Keys     []rmt.KeySpec
	Priority int
	// Idx/Val carry OpRegWrite's cell and value, and OpSetHashSeed's
	// seed (in Val).
	Idx uint64
	Val uint64

	// Completion record, valid after Flush until the slot is reused.
	Err       error
	NewHandle rmt.EntryHandle

	// Tag is an opaque caller cookie (e.g. a request pointer index)
	// carried through to Drain.
	Tag any

	// call is the ActionCall an OpSetDefault hands the channel: slot
	// resident, so the flush does not allocate one (channels copy what
	// they keep).
	call p4.ActionCall
}

// reset clears a descriptor for reuse, keeping slice capacity.
func (op *RingOp) reset() {
	op.Kind = OpNone
	op.Table = ""
	op.Handle = 0
	op.Action = ""
	op.Data = op.Data[:0]
	op.Keys = op.Keys[:0]
	op.Priority = 0
	op.Idx = 0
	op.Val = 0
	op.Err = nil
	op.NewHandle = 0
	op.Tag = nil
}

// SetModify encodes a ModifyEntry, copying data into the slot's buffer.
func (op *RingOp) SetModify(table string, h rmt.EntryHandle, action string, data []uint64) {
	op.Kind = OpModifyEntry
	op.Table = table
	op.Handle = h
	op.Action = action
	op.Data = append(op.Data[:0], data...)
}

// SetAdd encodes an AddEntry, copying the entry spec into the slot's
// buffers. The handle is reported in NewHandle after Flush.
func (op *RingOp) SetAdd(table string, e rmt.Entry) {
	op.Kind = OpAddEntry
	op.Table = table
	op.Keys = append(op.Keys[:0], e.Keys...)
	op.Priority = e.Priority
	op.Action = e.Action
	op.Data = append(op.Data[:0], e.Data...)
}

// SetDelete encodes a DeleteEntry.
func (op *RingOp) SetDelete(table string, h rmt.EntryHandle) {
	op.Kind = OpDeleteEntry
	op.Table = table
	op.Handle = h
}

// SetDefault encodes a SetDefaultAction, copying the call's data.
func (op *RingOp) SetDefault(table string, call *p4.ActionCall) {
	op.Kind = OpSetDefault
	op.Table = table
	op.Action = call.Action
	op.Data = append(op.Data[:0], call.Data...)
}

// SetHashSeed encodes a SetHashSeed.
func (op *RingOp) SetHashSeed(name string, seed uint64) {
	op.Kind = OpSetHashSeed
	op.Table = name
	op.Val = seed
}

// SetRegWrite encodes a RegWrite.
func (op *RingOp) SetRegWrite(reg string, idx, v uint64) {
	op.Kind = OpRegWrite
	op.Table = reg
	op.Idx = idx
	op.Val = v
}

// RingStats counts ring activity.
type RingStats struct {
	// Reserved counts descriptors handed out; Flushes counts doorbell
	// rings that had work; OpsFlushed counts descriptors executed.
	Reserved   uint64
	Flushes    uint64
	OpsFlushed uint64
	// OpErrors counts descriptors whose execution failed (recorded in
	// the completion, never aborting the rest of the flush).
	OpErrors uint64
	// FullRejections counts Reserve calls refused with ErrRingFull.
	FullRejections uint64
}

// Ring is a fixed-capacity submission/completion ring over a Channel.
// It is single-producer, single-consumer, and not safe for concurrent
// use — like everything else in the simulated control plane, one
// process owns it.
//
// Slot lifecycle is tracked by three free-running counters with the
// invariant consumed <= flushed <= reserved <= consumed+cap:
//
//	Reserve   — hand out slots[reserved % cap], advance reserved
//	Flush     — execute [flushed, reserved), advance flushed
//	Drain     — yield completions [consumed, flushed), advance consumed
type Ring struct {
	ch    Channel
	slots []RingOp

	reserved uint64
	flushed  uint64
	consumed uint64

	stats RingStats
}

// DefaultRingSize is the submit-queue depth when NewRing gets size<=0:
// deep enough for a dialogue iteration's worth of writes, small enough
// that an unconsumed backlog surfaces as backpressure quickly.
const DefaultRingSize = 64

// NewRing builds a ring of the given depth over ch.
func NewRing(ch Channel, size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{ch: ch, slots: make([]RingOp, size)}
}

// Cap returns the ring depth.
func (rg *Ring) Cap() int { return len(rg.slots) }

// Staged returns the number of reserved-but-unflushed descriptors.
func (rg *Ring) Staged() int { return int(rg.reserved - rg.flushed) }

// Completions returns the number of flushed-but-unconsumed descriptors.
func (rg *Ring) Completions() int { return int(rg.flushed - rg.consumed) }

// Stats returns a copy of the ring counters.
func (rg *Ring) Stats() RingStats { return rg.stats }

// Reserve hands out the next descriptor slot, reset and ready to
// encode. The slot stays valid until the lap after its completion is
// consumed. Returns ErrRingFull when every slot is staged or awaiting
// Drain.
func (rg *Ring) Reserve() (*RingOp, error) {
	if rg.reserved-rg.consumed >= uint64(len(rg.slots)) {
		rg.stats.FullRejections++
		return nil, ErrRingFull
	}
	op := &rg.slots[rg.reserved%uint64(len(rg.slots))]
	rg.reserved++
	rg.stats.Reserved++
	op.reset()
	return op, nil
}

// Flush executes every staged descriptor in reservation order against
// the channel — the doorbell write. Each descriptor's outcome lands in
// its completion record; an error does not stop later descriptors
// (hardware rings post per-descriptor status the same way). Channel
// cost is identical to the caller having issued each call itself.
// Returns the first error for callers that treat the flush as one
// transaction; per-op outcomes are read via Drain.
func (rg *Ring) Flush(p *sim.Proc) error {
	n := rg.reserved - rg.flushed
	if n == 0 {
		return nil
	}
	rg.stats.Flushes++
	var first error
	for ; rg.flushed < rg.reserved; rg.flushed++ {
		op := &rg.slots[rg.flushed%uint64(len(rg.slots))]
		op.Err = rg.execute(p, op)
		rg.stats.OpsFlushed++
		if op.Err != nil {
			rg.stats.OpErrors++
			if first == nil {
				first = op.Err
			}
		}
	}
	return first
}

// Drain yields each unconsumed completion in order, then releases its
// slot for reuse. The *RingOp (and its buffers) must not be retained
// past the callback.
func (rg *Ring) Drain(fn func(op *RingOp)) {
	for ; rg.consumed < rg.flushed; rg.consumed++ {
		fn(&rg.slots[rg.consumed%uint64(len(rg.slots))])
	}
}

// execute runs one descriptor against the channel.
func (rg *Ring) execute(p *sim.Proc, op *RingOp) error {
	switch op.Kind {
	case OpAddEntry:
		h, err := rg.ch.AddEntry(p, op.Table, rmt.Entry{
			Keys: op.Keys, Priority: op.Priority, Action: op.Action, Data: op.Data,
		})
		op.NewHandle = h
		return err
	case OpModifyEntry:
		return rg.ch.ModifyEntry(p, op.Table, op.Handle, op.Action, op.Data)
	case OpDeleteEntry:
		return rg.ch.DeleteEntry(p, op.Table, op.Handle)
	case OpSetDefault:
		op.call = p4.ActionCall{Action: op.Action, Data: op.Data}
		return rg.ch.SetDefaultAction(p, op.Table, &op.call)
	case OpSetHashSeed:
		return rg.ch.SetHashSeed(p, op.Table, op.Val)
	case OpRegWrite:
		return rg.ch.RegWrite(p, op.Table, op.Idx, op.Val)
	}
	return errors.New("driver: flush of unencoded ring descriptor")
}
