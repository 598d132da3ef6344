// Package driver models the switch driver stack between a control-plane
// process and the switching ASIC.
//
// On the paper's Wedge100BF-32X, every control-plane interaction crosses
// PCIe and passes through driver software whose per-operation overhead
// dominates reaction latency. Mantis's reported speed comes from three
// driver-level techniques (§6): precomputing operation metadata in the
// prologue, memoizing device instructions for repeated operations, and
// batching register reads. This package reproduces those effects with a
// calibrated cost model:
//
//   - every operation pays a base software + PCIe round-trip cost;
//   - repeated table operations with a memoized descriptor pay a reduced
//     cost (the memoization win). The agent memoizes the master default
//     and the init-table pairs in its prologue, every concrete entry it
//     installs, and every entry handle a takeover's reconcile adopts or
//     re-adds; a fabric leaf's prologue memoizes the route handles the
//     fabric coordinator rewrites; deleting an entry forgets its
//     descriptor;
//   - a batched register read pays one base cost plus a small per-byte
//     DMA cost, instead of one base cost per register (the batching win,
//     visible as the near-flat register series of Figure 10a).
//
// The driver channel is exclusive: operations from concurrent processes
// (the Mantis agent and a legacy control plane) serialize, which is what
// produces the bimodal latency distribution of Figure 12.
package driver

import (
	"fmt"
	"time"

	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// CostModel parameterizes operation latencies. Defaults approximate the
// scale of the paper's Figure 10 microbenchmarks (single-digit µs for
// scalar operations, 10s of ns per additional register byte).
type CostModel struct {
	// TableOp is the cost of one table add/modify/delete or default-action
	// set with a cold descriptor.
	TableOp time.Duration
	// TableOpMemoized is the same operation with a descriptor memoized
	// during the prologue.
	TableOpMemoized time.Duration
	// RegReadBase is the fixed cost of a register read transaction.
	RegReadBase time.Duration
	// RegReadPerReq is the per-range setup cost inside a transaction;
	// polling K distinct packed field registers pays it K times, which
	// is why Fig. 10a's field-argument series climbs faster than the
	// single-array register series.
	RegReadPerReq time.Duration
	// RegReadPerByte is the marginal DMA cost per byte within one range.
	RegReadPerByte time.Duration
	// RegWrite is the cost of one register cell write.
	RegWrite time.Duration
	// HashSeed is the cost of reprogramming a hash calculation seed.
	HashSeed time.Duration
	// AuditBase is the fixed cost of one audit read (table entry dump or
	// default-action read); AuditPerEntry is the marginal DMA cost per
	// dumped entry. Audit reads happen on the recovery path, not in the
	// dialogue loop, so they are costed separately from table ops.
	AuditBase     time.Duration
	AuditPerEntry time.Duration
}

// DefaultCostModel returns latencies calibrated to the paper's
// microbenchmark scale.
func DefaultCostModel() CostModel {
	return CostModel{
		TableOp:         1600 * time.Nanosecond,
		TableOpMemoized: 900 * time.Nanosecond,
		RegReadBase:     800 * time.Nanosecond,
		RegReadPerReq:   400 * time.Nanosecond,
		RegReadPerByte:  25 * time.Nanosecond,
		RegWrite:        900 * time.Nanosecond,
		HashSeed:        1600 * time.Nanosecond,
		AuditBase:       1600 * time.Nanosecond,
		AuditPerEntry:   150 * time.Nanosecond,
	}
}

// Stats counts driver activity.
type Stats struct {
	TableOps     uint64
	MemoizedOps  uint64
	RegReads     uint64
	RegReadBytes uint64
	RegWrites    uint64
	// AuditReads counts configuration read-backs (entry dumps and
	// default-action reads) on the recovery path.
	AuditReads uint64
	// Busy accumulates total channel-occupied time, for CPU/utilization
	// accounting.
	Busy time.Duration
}

// Driver mediates control-plane access to one switch.
type Driver struct {
	sw    *rmt.Switch
	sim   *sim.Simulator
	cost  CostModel
	stats Stats

	// busyUntil serializes the channel: a new operation cannot start
	// before the previous one completes, regardless of issuing process.
	busyUntil sim.Time

	// memo holds the precomputed descriptors of live entries. Memoization
	// is keyed by table name + entry handle (or the table itself for
	// default actions), matching "caching/memoization of device
	// instructions ... for repeated table modifications".
	memo map[memoKey]bool
	// memoEnabled can be cleared for the ablation benchmarks.
	memoEnabled bool
	// batching can be cleared for the ablation benchmarks.
	batching bool
}

type memoKey struct {
	table  string
	handle rmt.EntryHandle // 0 for default-action / seed descriptors
}

// New returns a driver for sw with the given cost model.
func New(s *sim.Simulator, sw *rmt.Switch, cost CostModel) *Driver {
	return &Driver{sw: sw, sim: s, cost: cost, memo: make(map[memoKey]bool), memoEnabled: true, batching: true}
}

// Switch exposes the underlying switch (for instantaneous reads in
// tests and for wiring the data plane).
func (d *Driver) Switch() *rmt.Switch { return d.sw }

// Stats returns a copy of the driver counters.
func (d *Driver) Stats() Stats { return d.stats }

// SetMemoization enables or disables descriptor memoization (ablation).
func (d *Driver) SetMemoization(on bool) { d.memoEnabled = on }

// SetBatching enables or disables read batching (ablation): with it
// off, BatchRead and BatchReadInto cost what UnbatchedRead does.
func (d *Driver) SetBatching(on bool) { d.batching = on }

// Memoize precomputes the descriptor for repeated operations on the
// given table entry (handle 0 memoizes the table's default-action and
// add paths). The agent calls it in its prologue, for each entry it
// installs and for each handle a takeover's reconcile records; a fabric
// leaf's prologue calls it for each route handle the fabric coordinator
// rewrites. DeleteEntry forgets the descriptor again.
func (d *Driver) Memoize(table string, handle rmt.EntryHandle) {
	d.memo[memoKey{table, handle}] = true
}

// occupy blocks p while the channel is busy, then holds the channel for
// cost and returns. All state mutation happens at the operation's
// completion time, so packets processed mid-operation see pre-op state.
func (d *Driver) occupy(p *sim.Proc, cost time.Duration) {
	start := p.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	end := start.Add(cost)
	d.busyUntil = end
	d.stats.Busy += cost
	p.WaitUntil(end)
}

func (d *Driver) tableCost(table string, handle rmt.EntryHandle) time.Duration {
	d.stats.TableOps++
	if d.memoEnabled && d.memo[memoKey{table, handle}] {
		d.stats.MemoizedOps++
		return d.cost.TableOpMemoized
	}
	return d.cost.TableOp
}

// AddEntry installs a table entry, blocking p for the operation latency.
func (d *Driver) AddEntry(p *sim.Proc, table string, e rmt.Entry) (rmt.EntryHandle, error) {
	d.occupy(p, d.tableCost(table, 0))
	return d.sw.AddEntry(table, e)
}

// ModifyEntry rebinds an entry's action and data.
func (d *Driver) ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error {
	d.occupy(p, d.tableCost(table, h))
	return d.sw.ModifyEntry(table, h, action, data)
}

// DeleteEntry removes an entry and, once it is gone, forgets its
// memoized descriptor, so the memo tracks live entries only.
func (d *Driver) DeleteEntry(p *sim.Proc, table string, h rmt.EntryHandle) error {
	d.occupy(p, d.tableCost(table, h))
	if err := d.sw.DeleteEntry(table, h); err != nil {
		return err
	}
	delete(d.memo, memoKey{table, h})
	return nil
}

// SetDefaultAction replaces a table's miss action.
func (d *Driver) SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error {
	d.occupy(p, d.tableCost(table, 0))
	return d.sw.SetDefaultAction(table, call)
}

// SetHashSeed reprograms a hash calculation.
func (d *Driver) SetHashSeed(p *sim.Proc, name string, seed uint64) error {
	d.occupy(p, d.cost.HashSeed)
	return d.sw.SetHashSeed(name, seed)
}

// RegWrite writes one register cell.
func (d *Driver) RegWrite(p *sim.Proc, reg string, idx uint64, v uint64) error {
	d.occupy(p, d.cost.RegWrite)
	d.stats.RegWrites++
	return d.sw.RegWrite(reg, idx, v)
}

// ReadReq describes one register range in a batched read.
type ReadReq struct {
	Reg string
	Lo  uint64
	Hi  uint64 // exclusive
}

// rangeBytes validates one batched-read range and returns its DMA byte
// count. Validation happens during request prologue, before any channel
// time is spent — real drivers reject malformed requests without
// touching the device.
func (d *Driver) rangeBytes(req ReadReq) (uint64, error) {
	r, ok := d.sw.Program().Registers[req.Reg]
	if !ok {
		return 0, fmt.Errorf("driver: unknown register %q: %w", req.Reg, rmt.ErrUnknownRegister)
	}
	if req.Lo > req.Hi {
		return 0, fmt.Errorf("driver: register %q range [%d,%d) inverted: %w", req.Reg, req.Lo, req.Hi, ErrBadBatch)
	}
	if req.Hi > uint64(r.Instances) {
		return 0, fmt.Errorf("driver: register %q range [%d,%d) out of bounds [0,%d): %w",
			req.Reg, req.Lo, req.Hi, r.Instances, rmt.ErrRegRange)
	}
	widthBytes := uint64((r.Width + 7) / 8)
	return (req.Hi - req.Lo) * widthBytes, nil
}

// RegRead reads one register cell (an unbatched single read).
func (d *Driver) RegRead(p *sim.Proc, reg string, idx uint64) (uint64, error) {
	var (
		reqs = [1]ReadReq{{Reg: reg, Lo: idx, Hi: idx + 1}}
		buf  [1]uint64
		dst  = [1][]uint64{buf[:0]}
	)
	if err := d.readInto(p, reqs[:], dst[:], true); err != nil {
		return 0, err
	}
	return dst[0][0], nil
}

// readInto is the single read entry point behind BatchRead,
// BatchReadInto, UnbatchedRead, and RegRead: one range-validation/cost
// loop, then either one combined transaction (batched) or one
// transaction per range (the ablation mode). dst must have one row per
// request; rows are refilled in place via append on row[:0], so a
// caller that keeps dst across iterations reads with zero allocations.
func (d *Driver) readInto(p *sim.Proc, reqs []ReadReq, dst [][]uint64, batched bool) error {
	if len(reqs) == 0 {
		// An empty batch is a no-op: no transaction is issued, no channel
		// time is spent.
		return nil
	}
	if err := checkRows(reqs, dst); err != nil {
		return err
	}
	// Validate every range (and size the batched DMA) before any channel
	// time is spent, in both modes.
	var bytes uint64
	for _, req := range reqs {
		b, err := d.rangeBytes(req)
		if err != nil {
			return err
		}
		bytes += b
	}
	if batched {
		cost := d.cost.RegReadBase +
			time.Duration(len(reqs))*d.cost.RegReadPerReq +
			time.Duration(bytes)*d.cost.RegReadPerByte
		d.occupy(p, cost)
		d.stats.RegReads++
		d.stats.RegReadBytes += bytes
	}
	for i, req := range reqs {
		if !batched {
			// Each range is its own transaction, paying the full base
			// cost, and its values are captured at that transaction's
			// completion time (not the whole sweep's).
			b, _ := d.rangeBytes(req) // validated above
			d.occupy(p, d.cost.RegReadBase+d.cost.RegReadPerReq+time.Duration(b)*d.cost.RegReadPerByte)
			d.stats.RegReads++
			d.stats.RegReadBytes += b
		}
		row, err := d.sw.RegReadRangeInto(req.Reg, req.Lo, req.Hi, dst[i][:0])
		if err != nil {
			return err
		}
		dst[i] = row
	}
	return nil
}

// BatchRead reads several register ranges in one driver transaction:
// one base cost plus the per-byte DMA cost of all ranges. Values are
// captured at the completion time of the whole batch. SetBatching(false)
// makes it UnbatchedRead.
func (d *Driver) BatchRead(p *sim.Proc, reqs []ReadReq) ([][]uint64, error) {
	return d.readFresh(p, reqs, d.batching)
}

// BatchReadInto is BatchRead without the result allocation: dst must
// have one row per request, and each row is refilled in place (append
// on row[:0], retaining capacity). The agent's steady-state poll path
// reuses one dst matrix across all iterations.
func (d *Driver) BatchReadInto(p *sim.Proc, reqs []ReadReq, dst [][]uint64) error {
	return d.readInto(p, reqs, dst, d.batching)
}

// ReadEntries dumps a table's installed entries, paying one audit
// transaction plus a per-entry DMA cost. The snapshot is captured at
// the operation's completion time, like every other channel read.
func (d *Driver) ReadEntries(p *sim.Proc, table string) ([]rmt.Entry, error) {
	// Validate (and size the dump) before any channel time is spent.
	pre, err := d.sw.Entries(table)
	if err != nil {
		return nil, err
	}
	d.occupy(p, d.cost.AuditBase+time.Duration(len(pre))*d.cost.AuditPerEntry)
	d.stats.AuditReads++
	return d.sw.Entries(table)
}

// ReadDefaultAction reads back a table's miss action in one audit
// transaction.
func (d *Driver) ReadDefaultAction(p *sim.Proc, table string) (*p4.ActionCall, error) {
	d.occupy(p, d.cost.AuditBase)
	d.stats.AuditReads++
	return d.sw.DefaultAction(table)
}

// UnbatchedRead performs the reads one request at a time, each paying
// the base cost — the ablation counterpart of BatchRead. It shares
// BatchRead's validation and range-cost loop via readInto.
func (d *Driver) UnbatchedRead(p *sim.Proc, reqs []ReadReq) ([][]uint64, error) {
	return d.readFresh(p, reqs, false)
}

// readFresh is readInto with a fresh result matrix.
func (d *Driver) readFresh(p *sim.Proc, reqs []ReadReq, batched bool) ([][]uint64, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([][]uint64, len(reqs))
	if err := d.readInto(p, reqs, out, batched); err != nil {
		return nil, err
	}
	return out, nil
}
