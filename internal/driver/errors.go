package driver

import (
	"errors"

	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// Sentinel errors of the driver layer. The switch model's own sentinels
// (rmt.ErrUnknownTable etc.) pass through wrapped, so callers classify
// every failure with errors.Is.
var (
	// ErrTransient marks failures of the driver channel itself — the
	// software/PCIe path between control plane and ASIC — rather than of
	// the requested operation. A transient failure did NOT apply the
	// operation; retrying the identical request may succeed. The real
	// driver never fails in simulation; internal/faults injects these.
	ErrTransient = errors.New("transient driver channel failure")
	// ErrBadBatch reports a malformed batched read: an inverted range
	// (Lo > Hi). Rejected during request validation, before any channel
	// time is spent.
	ErrBadBatch = errors.New("malformed batch read request")
	// ErrChannelDegraded marks an operation abandoned because the control
	// channel could not confirm it within its deadline — a lossy or
	// partitioned message transport (internal/ctlchan), not a clean
	// in-process failure. Unlike ErrTransient, the operation MAY have
	// been applied switch-side (the acknowledgment, not the request, may
	// be what was lost), so callers must not blindly reissue mutations;
	// the agent abandons the iteration and resynchronizes via audit once
	// the channel heals.
	ErrChannelDegraded = errors.New("control channel degraded")
)

// IsTransient reports whether err is a retryable channel failure (the
// operation was not applied and may be reissued). Fatal errors —
// unknown names, range violations, capacity — return false.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Channel is the control-plane method set a client needs from a driver
// stack: the access points of §6 plus the stats/wiring accessors the
// agent uses. *Driver implements it directly; fault-injection or other
// interposing layers wrap another Channel with the same contract —
// operations block the calling process for their channel latency and
// mutate switch state only at completion time — by embedding an Adapter
// and handling each call as an Op (op.go). An implementation copies
// whatever it keeps of its arguments (entry keys and data, action-call
// data): callers — the agent's commit scratch, the control-channel
// server's decoded request — reuse those buffers as soon as the call
// returns.
type Channel interface {
	AddEntry(p *sim.Proc, table string, e rmt.Entry) (rmt.EntryHandle, error)
	ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error
	DeleteEntry(p *sim.Proc, table string, h rmt.EntryHandle) error
	SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error
	SetHashSeed(p *sim.Proc, name string, seed uint64) error
	RegWrite(p *sim.Proc, reg string, idx uint64, v uint64) error
	RegRead(p *sim.Proc, reg string, idx uint64) (uint64, error)
	BatchRead(p *sim.Proc, reqs []ReadReq) ([][]uint64, error)
	UnbatchedRead(p *sim.Proc, reqs []ReadReq) ([][]uint64, error)
	// ReadEntries and ReadDefaultAction are the audit path: a recovering
	// controller reads back the switch's installed configuration (entry
	// pairs, version bits) to reconcile it against its journal. They pay
	// channel time like any other operation.
	ReadEntries(p *sim.Proc, table string) ([]rmt.Entry, error)
	ReadDefaultAction(p *sim.Proc, table string) (*p4.ActionCall, error)
	Memoize(table string, handle rmt.EntryHandle)
	Switch() *rmt.Switch
	Stats() Stats
}

var _ Channel = (*Driver)(nil)

// RangeReader is the optional allocation-free read extension of a
// Channel: BatchRead into rows the caller owns. dst must have one row
// per request; each row is refilled in place (truncated, capacity kept).
// The driver and, through the Adapter, every shipped wrapper
// (faults.Injector, ctlplane.Session, ctlchan.Client) implement it, so a
// poll lands in the agent's preallocated matrix through the whole
// deployed stack. Apply probes for it and falls back to BatchRead plus a
// copy on a channel without it.
type RangeReader interface {
	BatchReadInto(p *sim.Proc, reqs []ReadReq, dst [][]uint64) error
}

var _ RangeReader = (*Driver)(nil)
