package driver

import (
	"fmt"

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
// descriptors (Ops, the same type every other layer handles), their
// data buffers, and their completion records are all ring-resident and
// reused lap after lap: a slot is filled with Op.Set, which copies the
// request into the slot's own buffers.
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
// descriptor in the ring; Reserve and Op.Set are pure host-memory
// staging.

// ErrRingFull reports a Reserve on a ring with no free slots: every
// slot holds either a staged descriptor or an unconsumed completion.
// The caller must Flush and Drain before reserving again. It wraps
// ErrTransient — like a full hardware queue, retrying after draining
// succeeds.
var ErrRingFull = fmt.Errorf("submission ring full: %w", ErrTransient)

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
	slots []Op

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
	return &Ring{ch: ch, slots: make([]Op, size)}
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
func (rg *Ring) Reserve() (*Op, error) {
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
		op.Err = Apply(rg.ch, p, op)
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
// slot for reuse. The *Op (and its buffers) must not be retained past
// the callback.
func (rg *Ring) Drain(fn func(op *Op)) {
	for ; rg.consumed < rg.flushed; rg.consumed++ {
		fn(&rg.slots[rg.consumed%uint64(len(rg.slots))])
	}
}
