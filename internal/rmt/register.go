package rmt

import (
	"fmt"

	"repro/internal/p4"
	"repro/internal/packet"
)

// registerInstance is the runtime storage of one stateful register
// array. Values are always stored masked to the declared width, matching
// hardware behaviour where a W-bit register silently wraps.
type registerInstance struct {
	def  *p4.Register
	vals []uint64
	mask uint64
}

func newRegisterInstance(def *p4.Register) *registerInstance {
	return &registerInstance{
		def:  def,
		vals: make([]uint64, def.Instances),
		mask: packet.Mask(def.Width),
	}
}

// read is the data-plane path: out-of-range indices wrap (hardware
// truncates the index to the address width rather than faulting).
func (r *registerInstance) read(idx uint64) uint64 {
	return r.vals[idx%uint64(len(r.vals))]
}

// write is the data-plane path with wrapping index semantics.
func (r *registerInstance) write(idx uint64, v uint64) {
	r.vals[idx%uint64(len(r.vals))] = v & r.mask
}

// readChecked is the control-plane path: drivers reject out-of-range
// indices with an error rather than wrapping.
func (r *registerInstance) readChecked(idx uint64) (uint64, error) {
	if idx >= uint64(len(r.vals)) {
		return 0, fmt.Errorf("rmt: register %s index %d out of range [0,%d): %w", r.def.Name, idx, len(r.vals), ErrRegRange)
	}
	return r.vals[idx], nil
}

func (r *registerInstance) writeChecked(idx uint64, v uint64) error {
	if idx >= uint64(len(r.vals)) {
		return fmt.Errorf("rmt: register %s index %d out of range [0,%d): %w", r.def.Name, idx, len(r.vals), ErrRegRange)
	}
	r.vals[idx] = v & r.mask
	return nil
}

// readRangeInto appends cells [lo, hi) to dst and returns the extended
// slice; with sufficient capacity no allocation occurs. Callers pass
// buf[:0] to reuse a per-iteration poll buffer.
func (r *registerInstance) readRangeInto(lo, hi uint64, dst []uint64) ([]uint64, error) {
	if lo > hi || hi > uint64(len(r.vals)) {
		return nil, fmt.Errorf("rmt: register %s range [%d,%d) out of bounds [0,%d): %w", r.def.Name, lo, hi, len(r.vals), ErrRegRange)
	}
	return append(dst, r.vals[lo:hi]...), nil
}
