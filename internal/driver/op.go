package driver

import (
	"errors"
	"fmt"

	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// This file is the control path's one op vocabulary. Channel stays the
// boundary language — callers and pass-through recorders speak its
// methods — but every layer that does something to an operation (inject
// a fault, queue it, put it on the wire, retry it) handles
// it as data: an Op. Each direction of the conversion is written once:
// the Adapter turns Channel calls into Ops, Apply turns an Op back into
// the Channel call it describes.

// OpKind selects the channel verb an Op encodes. The numbering is the
// control channel's wire verb (internal/ctlchan), so it is append-only.
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
	// OpSetDefault replaces a table's miss action with Call (nil clears it).
	OpSetDefault
	// OpSetHashSeed reprograms a hash calculation.
	OpSetHashSeed
	// OpRegWrite writes one register cell.
	OpRegWrite
	// OpRegRead reads one register cell into Val.
	OpRegRead
	// OpRead reads the register ranges Reqs into Rows; the driver's
	// batching setting decides whether that is one transaction or one
	// per range.
	OpRead
	// OpReadEntries dumps a table's installed entries into Entries.
	OpReadEntries
	// OpReadDefault reads a table's miss action back into Call.
	OpReadDefault

	// NumOpKinds bounds the kinds: valid ones are OpNone+1 … NumOpKinds-1.
	NumOpKinds
)

var opKindNames = [NumOpKinds]string{
	OpNone:        "None",
	OpAddEntry:    "AddEntry",
	OpModifyEntry: "ModifyEntry",
	OpDeleteEntry: "DeleteEntry",
	OpSetDefault:  "SetDefaultAction",
	OpSetHashSeed: "SetHashSeed",
	OpRegWrite:    "RegWrite",
	OpRegRead:     "RegRead",
	OpRead:        "BatchRead",
	OpReadEntries: "ReadEntries",
	OpReadDefault: "ReadDefaultAction",
}

// String names the kind after its Channel method, for stats, errors and
// the fault profiles that pin a crash to one operation
// (faults.Profile.CrashOp). A range read is "BatchRead"; an
// Adapter's UnbatchedRead reaches the lower layers as single-range ones.
func (k OpKind) String() string {
	if k < NumOpKinds {
		return opKindNames[k]
	}
	return "None"
}

// Mutating reports whether the kind changes switch state — the set
// subject to session write permission (which fences a demoted primary),
// idempotency tokens and the MSL quarantine.
func (k OpKind) Mutating() bool { return k >= OpAddEntry && k <= OpRegWrite }

// Op is one control operation as data: the request, and after it ran
// its completion (the error is Do's or Apply's return value).
//
// Ownership: an Op's slices (Data, Keys, Reqs, Rows, Call.Data) belong
// to whoever filled it. The Adapter aliases its caller's arguments for
// the duration of one call, and no layer holds an op past the call that
// delivered it. Results (Entries, a read-back Call, refilled Rows) belong
// to the caller once the op completes.
type Op struct {
	Kind   OpKind
	Table  string          // table, register, or hash-calculation name
	Handle rmt.EntryHandle // entry to modify/delete; an added entry's own Handle field
	Action string
	Data   []uint64
	// Keys/Priority are an OpAddEntry's match spec.
	Keys     []rmt.KeySpec
	Priority int
	// Idx/Val carry a register cell and its value (written, or read
	// back), and OpSetHashSeed's seed (in Val).
	Idx uint64
	Val uint64
	// Call is OpSetDefault's action and OpReadDefault's result.
	Call *p4.ActionCall
	// Reqs/Rows are an OpRead's ranges and results: one row per range,
	// refilled in place (truncated, capacity kept).
	Reqs []ReadReq
	Rows [][]uint64

	// Completion record.
	NewHandle rmt.EntryHandle
	Entries   []rmt.Entry
}

// Name labels the op for error text: its verb and, when it has one, the
// table or register it addresses. It allocates, so it belongs on error
// paths only.
func (op *Op) Name() string {
	if op.Table == "" {
		return op.Kind.String()
	}
	return op.Kind.String() + " " + op.Table
}

// checkRows rejects a range read whose result matrix does not have one
// row per range.
func checkRows(reqs []ReadReq, dst [][]uint64) error {
	if len(dst) != len(reqs) {
		return fmt.Errorf("driver: %d result rows for %d requests: %w", len(dst), len(reqs), ErrBadBatch)
	}
	return nil
}

// Apply performs op on ch with the Channel method it describes and
// stores the result in op. It is the only place an OpKind becomes a
// method call; *Driver's methods are the ground truth it bottoms out in.
func Apply(ch Channel, p *sim.Proc, op *Op) error {
	var err error
	switch op.Kind {
	case OpAddEntry:
		op.NewHandle, err = ch.AddEntry(p, op.Table, rmt.Entry{
			Handle: op.Handle, Keys: op.Keys, Priority: op.Priority, Action: op.Action, Data: op.Data,
		})
	case OpModifyEntry:
		err = ch.ModifyEntry(p, op.Table, op.Handle, op.Action, op.Data)
	case OpDeleteEntry:
		err = ch.DeleteEntry(p, op.Table, op.Handle)
	case OpSetDefault:
		err = ch.SetDefaultAction(p, op.Table, op.Call)
	case OpSetHashSeed:
		err = ch.SetHashSeed(p, op.Table, op.Val)
	case OpRegWrite:
		err = ch.RegWrite(p, op.Table, op.Idx, op.Val)
	case OpRegRead:
		op.Val, err = ch.RegRead(p, op.Table, op.Idx)
	case OpRead:
		err = applyRead(ch, p, op)
	case OpReadEntries:
		op.Entries, err = ch.ReadEntries(p, op.Table)
	case OpReadDefault:
		op.Call, err = ch.ReadDefaultAction(p, op.Table)
	default:
		err = errors.New("driver: apply of unencoded op")
	}
	return err
}

// applyRead reads op.Reqs into op.Rows: in place through the channel's
// RangeReader, otherwise (a channel without the extension) by copying
// the returned rows out.
func applyRead(ch Channel, p *sim.Proc, op *Op) error {
	if err := checkRows(op.Reqs, op.Rows); err != nil {
		return err
	}
	if rr, ok := ch.(RangeReader); ok {
		return rr.BatchReadInto(p, op.Reqs, op.Rows)
	}
	vals, err := ch.BatchRead(p, op.Reqs)
	if err != nil {
		return err
	}
	for i := range vals {
		op.Rows[i] = append(op.Rows[i][:0], vals[i]...)
	}
	return nil
}

// Adapter implements Channel and RangeReader over a single
// Do(p, op) function: each method fills a pooled Op — aliasing the
// caller's slices, who is parked until Do returns — and hands it over.
// A layer embeds an Adapter built over its own Do, and is a Channel; it
// is the only place a Channel method becomes an Op. The three accessors
// that take no channel time (Memoize, Switch, Stats) pass to the channel
// below; a layer with different plumbing shadows them.
type Adapter struct {
	do    func(p *sim.Proc, op *Op) error
	below Channel
	// free recycles ops: several processes may be inside Do at once (a
	// second caller parked on a client, a shared session), so one scratch
	// op is not enough.
	free []*Op
}

var (
	_ Channel     = (*Adapter)(nil)
	_ RangeReader = (*Adapter)(nil)
)

// NewAdapter returns an adapter that hands ops to do and passes the
// accessors to below (nil: Switch is nil, Stats zero, Memoize dropped).
func NewAdapter(do func(p *sim.Proc, op *Op) error, below Channel) Adapter {
	return Adapter{do: do, below: below}
}

func (a *Adapter) get(kind OpKind, table string) *Op {
	var op *Op
	if n := len(a.free); n > 0 {
		op = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		op = new(Op)
	}
	op.Kind, op.Table = kind, table
	return op
}

// put recycles op, dropping every reference to the caller's arguments
// and to results the caller now owns.
func (a *Adapter) put(op *Op) {
	*op = Op{}
	a.free = append(a.free, op)
}

// AddEntry installs a table entry.
func (a *Adapter) AddEntry(p *sim.Proc, table string, e rmt.Entry) (rmt.EntryHandle, error) {
	op := a.get(OpAddEntry, table)
	op.Handle, op.Keys, op.Priority, op.Action, op.Data = e.Handle, e.Keys, e.Priority, e.Action, e.Data
	err := a.do(p, op)
	h := op.NewHandle
	a.put(op)
	return h, err
}

// ModifyEntry rebinds an entry's action and data.
func (a *Adapter) ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error {
	op := a.get(OpModifyEntry, table)
	op.Handle, op.Action, op.Data = h, action, data
	err := a.do(p, op)
	a.put(op)
	return err
}

// DeleteEntry removes an entry.
func (a *Adapter) DeleteEntry(p *sim.Proc, table string, h rmt.EntryHandle) error {
	op := a.get(OpDeleteEntry, table)
	op.Handle = h
	err := a.do(p, op)
	a.put(op)
	return err
}

// SetDefaultAction replaces a table's miss action.
func (a *Adapter) SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error {
	op := a.get(OpSetDefault, table)
	op.Call = call
	err := a.do(p, op)
	a.put(op)
	return err
}

// SetHashSeed reprograms a hash calculation.
func (a *Adapter) SetHashSeed(p *sim.Proc, name string, seed uint64) error {
	op := a.get(OpSetHashSeed, name)
	op.Val = seed
	err := a.do(p, op)
	a.put(op)
	return err
}

// RegWrite writes one register cell.
func (a *Adapter) RegWrite(p *sim.Proc, reg string, idx uint64, v uint64) error {
	op := a.get(OpRegWrite, reg)
	op.Idx, op.Val = idx, v
	err := a.do(p, op)
	a.put(op)
	return err
}

// RegRead reads one register cell.
func (a *Adapter) RegRead(p *sim.Proc, reg string, idx uint64) (uint64, error) {
	op := a.get(OpRegRead, reg)
	op.Idx = idx
	err := a.do(p, op)
	v := op.Val
	a.put(op)
	return v, err
}

// BatchReadInto reads register ranges in one transaction into dst, one
// row per range, refilled in place. It is the one range-read entry
// point. An empty read is a no-op at every layer, decided here: no op is
// built, so no fault is drawn, no queue slot taken, no frame sent.
func (a *Adapter) BatchReadInto(p *sim.Proc, reqs []ReadReq, dst [][]uint64) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := checkRows(reqs, dst); err != nil {
		return err
	}
	op := a.get(OpRead, "")
	op.Reqs, op.Rows = reqs, dst
	err := a.do(p, op)
	a.put(op)
	return err
}

// BatchRead is BatchReadInto with a fresh result matrix.
func (a *Adapter) BatchRead(p *sim.Proc, reqs []ReadReq) ([][]uint64, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([][]uint64, len(reqs))
	if err := a.BatchReadInto(p, reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// UnbatchedRead reads the ranges one single-range read each, in order,
// so every layer's per-transaction behaviour — a fault decision, a wire
// frame, the driver's cost — applies to each range on its own.
func (a *Adapter) UnbatchedRead(p *sim.Proc, reqs []ReadReq) ([][]uint64, error) {
	var out [][]uint64
	for i := range reqs {
		row, err := a.BatchRead(p, reqs[i:i+1])
		if err != nil {
			return nil, err
		}
		out = append(out, row[0])
	}
	return out, nil
}

// ReadEntries dumps a table's installed entries (the audit path).
func (a *Adapter) ReadEntries(p *sim.Proc, table string) ([]rmt.Entry, error) {
	op := a.get(OpReadEntries, table)
	err := a.do(p, op)
	es := op.Entries
	a.put(op)
	return es, err
}

// ReadDefaultAction reads back a table's miss action.
func (a *Adapter) ReadDefaultAction(p *sim.Proc, table string) (*p4.ActionCall, error) {
	op := a.get(OpReadDefault, table)
	err := a.do(p, op)
	call := op.Call
	a.put(op)
	return call, err
}

// Memoize passes through: descriptor precomputation is control-plane
// local and takes no channel time.
func (a *Adapter) Memoize(table string, handle rmt.EntryHandle) {
	if a.below != nil {
		a.below.Memoize(table, handle)
	}
}

// Switch exposes the switch of the channel below (simulation plumbing).
func (a *Adapter) Switch() *rmt.Switch {
	if a.below == nil {
		return nil
	}
	return a.below.Switch()
}

// Stats returns the driver counters of the channel below.
func (a *Adapter) Stats() Stats {
	if a.below == nil {
		return Stats{}
	}
	return a.below.Stats()
}
