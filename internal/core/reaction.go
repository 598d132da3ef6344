package core

import (
	"errors"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/driver"
	"repro/internal/packet"
	"repro/internal/rcl"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// NativeReaction is a reaction body written in Go instead of the
// embedded C-like language. It receives the same polled parameters and
// may stage the same malleable/table updates; the agent applies them
// with identical serializability guarantees.
type NativeReaction func(ctx *Ctx) error

// Ctx exposes one reaction invocation's polled parameters and staged
// update operations.
type Ctx struct {
	agent *Agent
	proc  *sim.Proc
	rxn   *runtimeReaction

	fields map[string]uint64
	regs   map[string][]uint64
}

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Field returns a polled ing/egr field parameter by its P4R name.
func (c *Ctx) Field(name string) uint64 { return c.fields[name] }

// Reg returns a polled register parameter: a slice of length hi+1 whose
// [lo..hi] cells hold the freshest serializable values.
func (c *Ctx) Reg(name string) []uint64 { return c.regs[name] }

// Mbl returns the visible value of a malleable (pending write from this
// iteration, else last committed).
func (c *Ctx) Mbl(name string) uint64 {
	if v, ok := c.agent.pendingMbl[name]; ok {
		return v
	}
	return c.agent.mblCache[name]
}

// SetMbl stages a write to a malleable value (or a malleable field's
// alt index); it commits atomically with the iteration's vv flip.
func (c *Ctx) SetMbl(name string, v uint64) error {
	return c.agent.stageMblWrite(name, v)
}

// Table returns a reaction-scoped handle of a malleable table whose
// operations participate in the three-phase protocol.
func (c *Ctx) Table(name string) (*RxnTable, error) {
	th, err := c.agent.Table(name)
	if err != nil {
		return nil, err
	}
	th.tm.rxn = RxnTable{th: th, p: c.proc}
	return &th.tm.rxn, nil
}

// SetHashSeed reprograms a hash calculation's seed. No non-test code
// calls it: the hash-polarization use case reacts through a malleable
// field. The write bypasses the staged log, the vv flip and
// the journal intent, so it is outside §5 isolation and a successor's
// Recover cannot see it; ROADMAP's "paper's verbs, and only those" item
// deletes it.
func (c *Ctx) SetHashSeed(name string, seed uint64) error {
	return c.agent.retry.SetHashSeed(c.proc, name, seed)
}

// RxnTable is a TableHandle bound to the reaction's process.
type RxnTable struct {
	th *TableHandle
	p  *sim.Proc
}

// AddEntry stages a user entry add.
func (t *RxnTable) AddEntry(e UserEntry) (UserHandle, error) { return t.th.AddEntry(t.p, e) }

// ModifyEntry stages a user entry modification.
func (t *RxnTable) ModifyEntry(h UserHandle, action string, data []uint64) error {
	return t.th.ModifyEntry(t.p, h, action, data)
}

// DeleteEntry stages a user entry removal.
func (t *RxnTable) DeleteEntry(h UserHandle) error { return t.th.DeleteEntry(t.p, h) }

// stageMblWrite validates and stages a malleable write.
func (a *Agent) stageMblWrite(name string, v uint64) error {
	if mv, ok := a.plan.MblValues[name]; ok {
		a.pendingMbl[name] = v & packet.Mask(mv.Width)
		return nil
	}
	if mf, ok := a.plan.MblFields[name]; ok {
		if v >= uint64(len(mf.Alts)) {
			return fmt.Errorf("core: malleable field %s: alt index %d out of range [0,%d)", name, v, len(mf.Alts))
		}
		a.pendingMbl[name] = v
		return nil
	}
	return fmt.Errorf("core: unknown malleable %q", name)
}

// ---- Measurement polling (§4.2, §5.2) ----

// regCacheState implements the timestamp-guarded cache that fixes the
// alternating-stale-read anomaly of §5.2: a checkpoint cell only
// replaces the cached value when its timestamp register advanced.
type regCacheState struct {
	rp     compiler.RegParamInfo
	vals   []uint64    // freshest known value per original index
	lastTs [2][]uint64 // last seen ts per copy per index
}

func newRegCacheState(rp compiler.RegParamInfo) *regCacheState {
	return &regCacheState{
		rp:     rp,
		vals:   make([]uint64, rp.N),
		lastTs: [2][]uint64{make([]uint64, rp.PaddedN), make([]uint64, rp.PaddedN)},
	}
}

func (rc *regCacheState) merge(copyIdx uint64, lo int, dup, ts []uint64) {
	for i := range dup {
		idx := lo + i
		if ts[i] != rc.lastTs[copyIdx][idx] {
			rc.lastTs[copyIdx][idx] = ts[i]
			rc.vals[idx] = dup[i]
		}
	}
}

// ---- Compiled reaction dispatch ----
//
// setupReactionRuntime compiles one reaction's dispatch at agent setup
// time, so the steady-state iteration walks flat instruction slices and
// preallocated buffers instead of rebuilding request slices, parameter
// maps, and interface-boxed params every time:
//
//   - pollReqs[v] is the complete driver.ReadReq batch for checkpoint
//     bit v, precomputed for both bits;
//   - rows is the reusable read-result matrix (refilled in place via
//     driver.RangeReader when the channel supports it);
//   - fields/regs are persistent parameter maps whose key sets never
//     change after setup, so per-iteration stores never allocate;
//   - interpreted bodies run through a prepared rcl.Frame with scalar
//     parameters bound by pointer and arrays by reference;
//   - the poll is one persistent driver.Op, so drvDo is handed nothing
//     freshly allocated per iteration.

// scalarBind routes one polled field (or malleable param) into a bound
// rcl frame scalar.
type scalarBind struct {
	key string // fields key (f.Param) or malleable name
	dst *int64
}

// arrayBind routes one polled register parameter into a bound rcl frame
// array, converting uint64 → int64 in place.
type arrayBind struct {
	key string // regs key (rp.Var)
	dst []int64
}

// setupReactionRuntime (re)builds rr's compiled dispatch state. Called
// from the prologue for every reaction and again from applySwaps when a
// swap relinks the body.
func (a *Agent) setupReactionRuntime(p *sim.Proc, rr *runtimeReaction) {
	info := rr.info

	// Poll plan: both checkpoint-bit variants, fully precomputed.
	for v := uint64(0); v < 2; v++ {
		reqs := rr.pollReqs[v][:0]
		for _, s := range info.IngSlots {
			reqs = append(reqs, driver.ReadReq{Reg: s.Register, Lo: v, Hi: v + 1})
		}
		for _, s := range info.EgrSlots {
			reqs = append(reqs, driver.ReadReq{Reg: s.Register, Lo: v, Hi: v + 1})
		}
		for _, rp := range info.RegParams {
			base := v * uint64(rp.PaddedN)
			reqs = append(reqs,
				driver.ReadReq{Reg: rp.Dup, Lo: base + uint64(rp.Lo), Hi: base + uint64(rp.Hi) + 1},
				driver.ReadReq{Reg: rp.Ts, Lo: base + uint64(rp.Lo), Hi: base + uint64(rp.Hi) + 1},
			)
		}
		rr.pollReqs[v] = reqs
	}
	nSlots := len(info.IngSlots) + len(info.EgrSlots)
	rr.rows = make([][]uint64, nSlots+2*len(info.RegParams))
	for i := range rr.rows {
		n := 1
		if i >= nSlots {
			rp := info.RegParams[(i-nSlots)/2]
			n = rp.Hi - rp.Lo + 1
		}
		rr.rows[i] = make([]uint64, 0, n)
	}

	rr.poll = driver.Op{Kind: driver.OpRead, Rows: rr.rows}

	// Persistent parameter storage. The key sets are fixed at setup;
	// per-iteration refills overwrite existing keys and never allocate.
	rr.fields = make(map[string]uint64)
	rr.regs = make(map[string][]uint64)
	for _, s := range info.IngSlots {
		for _, f := range s.Fields {
			rr.fields[f.Param] = 0
		}
	}
	for _, s := range info.EgrSlots {
		for _, f := range s.Fields {
			rr.fields[f.Param] = 0
		}
	}
	for _, rp := range info.RegParams {
		rr.regs[rp.Var] = make([]uint64, rp.Hi+1)
	}
	rr.lastFields = make(map[string]uint64, len(rr.fields))
	rr.lastRegs = make(map[string][]uint64, len(rr.regs))
	for _, rp := range info.RegParams {
		rr.lastRegs[rp.Var] = make([]uint64, rp.Hi+1)
	}
	rr.hasSnapshot = false

	rr.host = rclHost{agent: a, proc: p}
	rr.ctx = Ctx{agent: a, proc: p, rxn: rr, fields: rr.fields, regs: rr.regs}

	// Interpreted dispatch: prepared frame, scalars bound by pointer,
	// register arrays bound by reference to persistent int64 buffers.
	rr.frame = nil
	rr.fieldDst = rr.fieldDst[:0]
	rr.mblDst = rr.mblDst[:0]
	rr.regDst = rr.regDst[:0]
	if rr.native == nil {
		rr.frame = rr.prog.NewFrame()
		for _, s := range info.IngSlots {
			for _, f := range s.Fields {
				rr.fieldDst = append(rr.fieldDst, scalarBind{key: f.Param, dst: rr.frame.BindScalar(f.Var)})
			}
		}
		for _, s := range info.EgrSlots {
			for _, f := range s.Fields {
				rr.fieldDst = append(rr.fieldDst, scalarBind{key: f.Param, dst: rr.frame.BindScalar(f.Var)})
			}
		}
		for _, rp := range info.RegParams {
			buf := make([]int64, rp.Hi+1)
			rr.frame.BindArray(rp.Var, buf)
			rr.regDst = append(rr.regDst, arrayBind{key: rp.Var, dst: buf})
		}
		for _, mp := range info.MblParams {
			rr.mblDst = append(rr.mblDst, scalarBind{key: mp.Name, dst: rr.frame.BindScalar(mp.Var)})
		}
	}
}

// extractPoll decodes rr.rows into the persistent parameter storage:
// packed slot words are unpacked into rr.fields, register dup/ts pairs
// are merged through the timestamp-guarded cache into rr.regs.
func (a *Agent) extractPoll(rr *runtimeReaction, checkpoint uint64) {
	info := rr.info
	i := 0
	i = extractSlots(rr, info.IngSlots, i)
	i = extractSlots(rr, info.EgrSlots, i)
	for _, rp := range info.RegParams {
		dup, ts := rr.rows[i], rr.rows[i+1]
		i += 2
		rc := a.regCache[rp.Orig]
		rc.merge(checkpoint, rp.Lo, dup, ts)
		copy(rr.regs[rp.Var], rc.vals[:rp.Hi+1])
	}
}

func extractSlots(rr *runtimeReaction, slots []compiler.MeasSlot, i int) int {
	for _, s := range slots {
		word := rr.rows[i][0]
		i++
		for _, f := range s.Fields {
			rr.fields[f.Param] = (word >> uint(f.Shift)) & packet.Mask(f.Width)
		}
	}
	return i
}

// snapshotPoll copies the just-polled parameters into the degradation
// snapshot. Key sets match by construction, so the copies are
// allocation-free after the first iteration.
func (rr *runtimeReaction) snapshotPoll() {
	for k, v := range rr.fields {
		rr.lastFields[k] = v
	}
	for k, v := range rr.regs {
		copy(rr.lastRegs[k], v)
	}
	rr.hasSnapshot = true
}

// restoreSnapshot loads the degradation snapshot back into the working
// parameter storage, so dispatch (native ctx or prepared frame) sees the
// stale-but-consistent values through the same buffers.
func (rr *runtimeReaction) restoreSnapshot() {
	for k, v := range rr.lastFields {
		rr.fields[k] = v
	}
	for k, v := range rr.lastRegs {
		copy(rr.regs[k], v)
	}
}

// pollReaction reads one reaction's parameters from the checkpoint
// copies (a single batched driver transaction on the default path; one
// per range under the batching ablation) into rr.rows — refilled in
// place down the whole stack — and from there into the reaction's
// persistent parameter storage.
func (a *Agent) pollReaction(p *sim.Proc, rr *runtimeReaction, checkpoint uint64) error {
	rr.poll.Reqs, rr.poll.Batched = rr.pollReqs[checkpoint], a.batchedReads
	if len(rr.poll.Reqs) == 0 {
		return nil
	}
	if err := a.drvDo(p, &rr.poll); err != nil {
		return err
	}
	a.extractPoll(rr, checkpoint)
	return nil
}

// runReaction polls parameters and executes the body (native or
// interpreted).
func (a *Agent) runReaction(p *sim.Proc, rr *runtimeReaction, checkpoint uint64) error {
	err := a.pollReaction(p, rr, checkpoint)
	switch {
	case err == nil:
		rr.snapshotPoll()
		rr.lastPollAt = p.Now()
	case a.opts.Recovery.Enabled() && rr.hasSnapshot &&
		(errors.Is(err, ErrRetriesExhausted) || errors.Is(err, driver.ErrChannelDegraded)):
		// Graceful degradation: the channel would not yield a fresh
		// snapshot, so the reaction runs on the last checkpointed one.
		// Both are consistent snapshots (Fig. 9); this one is just stale.
		// A degraded message channel (loss, partition) degrades the same
		// way as exhausted retries — but only within the staleness
		// budget: past it, reacting to ancient measurements is worse
		// than not reacting, so the iteration is abandoned instead.
		if b := a.opts.Recovery.StalenessBudget; b > 0 && p.Now().Sub(rr.lastPollAt) > b {
			a.stats.StalenessAborts++
			return fmt.Errorf("reaction %s: degradation snapshot older than staleness budget %v: %w", rr.info.Name, b, err)
		}
		rr.restoreSnapshot()
		a.iterDegraded = true
	default:
		return err
	}
	a.inReaction = true
	defer func() { a.inReaction = false }()
	if rr.native != nil {
		return rr.native(&rr.ctx)
	}
	for _, b := range rr.fieldDst {
		*b.dst = int64(rr.fields[b.key])
	}
	for _, b := range rr.regDst {
		src := rr.regs[b.key]
		for i, x := range src {
			b.dst[i] = int64(x)
		}
	}
	for _, b := range rr.mblDst {
		*b.dst = int64(a.mblCache[b.key])
	}
	return rr.frame.Exec(&rr.host)
}

// ---- rcl host binding ----

// rclHost adapts the agent to the reaction language's Host interface.
type rclHost struct {
	agent *Agent
	proc  *sim.Proc
}

func (h *rclHost) ReadMbl(name string) (int64, error) {
	if v, ok := h.agent.pendingMbl[name]; ok {
		return int64(v), nil
	}
	if v, ok := h.agent.mblCache[name]; ok {
		return int64(v), nil
	}
	return 0, fmt.Errorf("unknown malleable ${%s}", name)
}

func (h *rclHost) WriteMbl(name string, v int64) error {
	return h.agent.stageMblWrite(name, uint64(v))
}

func (h *rclHost) TableOp(table, method string, args []rcl.Arg) (int64, error) {
	tm, ok := h.agent.tables[table]
	if !ok {
		return 0, fmt.Errorf("unknown malleable table %q", table)
	}
	info := tm.info
	switch method {
	case "addEntry":
		// addEntry(key..., "action", data...)
		nkeys := len(info.Keys)
		if len(args) < nkeys+1 {
			return 0, fmt.Errorf("%s.addEntry needs %d keys and an action name", table, nkeys)
		}
		spec := UserEntry{}
		for i := 0; i < nkeys; i++ {
			if args[i].IsStr {
				return 0, fmt.Errorf("%s.addEntry: key %d must be numeric", table, i)
			}
			spec.Keys = append(spec.Keys, rmt.ExactKey(uint64(args[i].I)))
		}
		if !args[nkeys].IsStr {
			return 0, fmt.Errorf("%s.addEntry: argument %d must be the action name", table, nkeys)
		}
		spec.Action = args[nkeys].S
		for _, a := range args[nkeys+1:] {
			if a.IsStr {
				return 0, fmt.Errorf("%s.addEntry: action data must be numeric", table)
			}
			spec.Data = append(spec.Data, uint64(a.I))
		}
		hdl, err := tm.addEntry(h.proc, spec)
		return int64(hdl), err
	case "modEntry":
		if len(args) < 2 || args[0].IsStr || !args[1].IsStr {
			return 0, fmt.Errorf("%s.modEntry(handle, \"action\", data...)", table)
		}
		var data []uint64
		for _, a := range args[2:] {
			if a.IsStr {
				return 0, fmt.Errorf("%s.modEntry: action data must be numeric", table)
			}
			data = append(data, uint64(a.I))
		}
		return 0, tm.modifyEntry(h.proc, UserHandle(args[0].I), args[1].S, data)
	case "delEntry":
		if len(args) != 1 || args[0].IsStr {
			return 0, fmt.Errorf("%s.delEntry(handle)", table)
		}
		return 0, tm.deleteEntry(h.proc, UserHandle(args[0].I))
	default:
		return 0, fmt.Errorf("unknown table method %s.%s", table, method)
	}
}

func (h *rclHost) Call(name string, args []rcl.Arg) (int64, error) {
	fn, ok := h.agent.builtins[name]
	if !ok {
		return 0, fmt.Errorf("unknown builtin %q", name)
	}
	return fn(h.proc, h.agent, args)
}

// registerDefaultBuiltins installs the host functions every reaction
// can call.
func (a *Agent) registerDefaultBuiltins() {
	a.builtins["now"] = func(p *sim.Proc, _ *Agent, _ []rcl.Arg) (int64, error) {
		return int64(p.Now()), nil
	}
	a.builtins["set_hash_seed"] = func(p *sim.Proc, ag *Agent, args []rcl.Arg) (int64, error) {
		if len(args) != 2 || !args[0].IsStr || args[1].IsStr {
			return 0, fmt.Errorf("set_hash_seed(\"calc\", seed)")
		}
		return 0, ag.retry.SetHashSeed(p, args[0].S, uint64(args[1].I))
	}
	a.builtins["port_count"] = func(_ *sim.Proc, ag *Agent, _ []rcl.Arg) (int64, error) {
		return int64(ag.drv.Switch().Config().NumPorts), nil
	}
}
