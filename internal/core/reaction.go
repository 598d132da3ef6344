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
// with identical serializability guarantees; its Go state is its own.
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

// Abandoned reports whether this reaction's previous run belonged to an
// abandoned iteration. Nothing that run staged took effect, and the
// agent restores no Go state: a body that keeps state across runs takes
// back what it set for that run, handles from its adds included.
func (c *Ctx) Abandoned() bool { return c.rxn.abandoned }

// Field returns a polled ing/egr field parameter by its P4R name.
func (c *Ctx) Field(name string) uint64 { return c.fields[name] }

// Reg returns a polled register parameter: a slice of length hi+1 whose
// [lo..hi] cells hold the freshest serializable values.
func (c *Ctx) Reg(name string) []uint64 { return c.regs[name] }

// SetMbl stages a write to a malleable value (or a malleable field's
// alt index); it commits atomically with the iteration's vv flip.
func (c *Ctx) SetMbl(name string, v uint64) error {
	return c.agent.stageMblWrite(name, v)
}

// Table returns a reaction-scoped handle of a malleable table whose
// operations participate in the three-phase protocol. A table without
// the vv column has no shadow copy to stage into, so a reaction may not
// write it.
func (c *Ctx) Table(name string) (*RxnTable, error) {
	th, err := c.agent.Table(name)
	if err != nil {
		return nil, err
	}
	if !th.tm.versioned() {
		return nil, fmt.Errorf("core: table %q is not malleable (no vv column)", name)
	}
	th.tm.rxn = RxnTable{tm: th.tm, p: c.proc}
	return &th.tm.rxn, nil
}

// RxnTable is a malleable table as a reaction sees it: its calls only
// stage, and the agent prepares them once the reaction returns.
type RxnTable struct {
	tm *tableManager
	p  *sim.Proc
}

// AddEntry stages a user entry add and returns the entry's handle, which
// an abandoned iteration gives back to the next add (see Ctx.Abandoned).
func (t *RxnTable) AddEntry(e UserEntry) (UserHandle, error) { return t.tm.addEntry(t.p, e) }

// ModifyEntry stages a user entry modification.
func (t *RxnTable) ModifyEntry(h UserHandle, action string, data []uint64) error {
	return t.tm.modifyEntry(h, action, data)
}

// DeleteEntry stages a user entry removal.
func (t *RxnTable) DeleteEntry(h UserHandle) error { return t.tm.deleteEntry(h) }

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
	rr.commitImage()
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

// commitImage records an interpreted body's statics and channel_clean()
// baseline as a committed iteration left them; restoreImage puts them
// back when an iteration is abandoned.
func (rr *runtimeReaction) commitImage() {
	rr.ran, rr.abandoned = false, false
	if rr.prog != nil {
		rr.prog.SaveStatics()
		rr.host.committed = rr.host.faults
	}
}

func (rr *runtimeReaction) restoreImage() {
	rr.abandoned = rr.abandoned || rr.ran
	rr.ran = false
	if rr.prog != nil {
		rr.prog.RestoreStatics()
		rr.host.faults = rr.host.committed
	}
}

// pollReaction reads one reaction's parameters from the checkpoint
// copies (a single driver transaction while the driver batches) into
// rr.rows — refilled in place down the whole stack — and from there into
// the reaction's persistent parameter storage.
func (a *Agent) pollReaction(p *sim.Proc, rr *runtimeReaction, checkpoint uint64) error {
	rr.poll.Reqs = rr.pollReqs[checkpoint]
	if len(rr.poll.Reqs) == 0 {
		return nil
	}
	if err := a.drvDo(p, &rr.poll); err != nil {
		return err
	}
	a.extractPoll(rr, checkpoint)
	return nil
}

// runReaction polls parameters, executes the body (native or
// interpreted), which only stages its table calls and events, and then
// issues the prepares of what it staged.
func (a *Agent) runReaction(p *sim.Proc, rr *runtimeReaction, checkpoint uint64) error {
	err := a.pollReaction(p, rr, checkpoint)
	switch {
	case err == nil:
		rr.hasSnapshot = true
		rr.lastPollAt = p.Now()
	case rr.hasSnapshot && (errors.Is(err, ErrRetriesExhausted) || errors.Is(err, driver.ErrChannelDegraded)):
		// Graceful degradation: the channel would not yield a fresh
		// snapshot, so the reaction runs on the last checkpointed one,
		// which only a successful poll would have replaced.
		// Both are consistent snapshots (Fig. 9); this one is just stale.
		// A degraded message channel (loss, partition) degrades the same
		// way as exhausted retries — but only within the staleness
		// budget: past it, reacting to ancient measurements is worse
		// than not reacting, so the iteration is abandoned instead.
		if b := a.opts.Recovery.StalenessBudget; b > 0 && p.Now().Sub(rr.lastPollAt) > b {
			a.stats.StalenessAborts++
			return fmt.Errorf("reaction %s: degradation snapshot older than staleness budget %v: %w", rr.info.Name, b, err)
		}
		a.iterDegraded = true
	default:
		return err
	}
	from := len(a.staged)
	rr.ran = true
	if rr.native != nil {
		err = rr.native(&rr.ctx)
	} else {
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
		err = rr.frame.Exec(&rr.host)
	}
	if err != nil {
		a.dropStaged(from)
		return err
	}
	return a.prepareStaged(p, from)
}

// ---- rcl host binding ----

// rclHost adapts the agent to the reaction language's Host interface.
// keys and data are TableOp's scratch: the table manager copies what it
// keeps, so a table call allocates nothing.
type rclHost struct {
	agent *Agent
	proc  *sim.Proc
	keys  []rmt.KeySpec
	data  []uint64
	// faults is channel_clean()'s baseline, the channel's fault count at
	// this reaction's previous call, and committed its commitImage copy.
	faults, committed uint64
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
	switch method {
	case "addEntry":
		// addEntry(key..., "action", data...)
		nkeys := tm.userKeys()
		if len(args) < nkeys+1 {
			return 0, fmt.Errorf("%s.addEntry needs %d keys and an action name", table, nkeys)
		}
		h.keys = h.keys[:0]
		for i := 0; i < nkeys; i++ {
			if args[i].IsStr {
				return 0, fmt.Errorf("%s.addEntry: key %d must be numeric", table, i)
			}
			h.keys = append(h.keys, rmt.ExactKey(uint64(args[i].I)))
		}
		if !args[nkeys].IsStr {
			return 0, fmt.Errorf("%s.addEntry: argument %d must be the action name", table, nkeys)
		}
		data, err := h.actionData(table, "addEntry", args[nkeys+1:])
		if err != nil {
			return 0, err
		}
		hdl, err := tm.addEntry(h.proc, UserEntry{Keys: h.keys, Action: args[nkeys].S, Data: data})
		return int64(hdl), err
	case "modEntry":
		if len(args) < 2 || args[0].IsStr || !args[1].IsStr {
			return 0, fmt.Errorf("%s.modEntry(handle, \"action\", data...)", table)
		}
		data, err := h.actionData(table, "modEntry", args[2:])
		if err != nil {
			return 0, err
		}
		return 0, tm.modifyEntry(UserHandle(args[0].I), args[1].S, data)
	case "delEntry":
		if len(args) != 1 || args[0].IsStr {
			return 0, fmt.Errorf("%s.delEntry(handle)", table)
		}
		return 0, tm.deleteEntry(UserHandle(args[0].I))
	default:
		return 0, fmt.Errorf("unknown table method %s.%s", table, method)
	}
}

// actionData fills the host's data scratch from a table call's action
// arguments (nil for none).
func (h *rclHost) actionData(table, method string, args []rcl.Arg) ([]uint64, error) {
	if len(args) == 0 {
		return nil, nil
	}
	h.data = h.data[:0]
	for _, a := range args {
		if a.IsStr {
			return nil, fmt.Errorf("%s.%s: action data must be numeric", table, method)
		}
		h.data = append(h.data, uint64(a.I))
	}
	return h.data, nil
}

// Call runs one of the host functions every reaction can call.
func (h *rclHost) Call(name string, args []rcl.Arg) (int64, error) {
	v, err := h.call(name, args)
	if h.agent.builtinTap != nil {
		h.agent.builtinTap(name, v, err)
	}
	return v, err
}

func (h *rclHost) call(name string, args []rcl.Arg) (int64, error) {
	b, ok := rcl.Builtins[name]
	if !ok {
		return 0, fmt.Errorf("unknown builtin %q", name)
	}
	if !b.Takes(args) {
		return 0, errors.New(b.Usage)
	}
	switch name {
	case "now":
		return int64(h.proc.Now()), nil
	case "port_count":
		return int64(h.agent.drv.Switch().Config().NumPorts), nil
	case "emit": // emit("kind", key, val) is Ctx.Emit for interpreted bodies.
		h.agent.emit(args[0].S, uint64(args[1].I), uint64(args[2].I))
		return 0, nil
	case "rand":
		// rand(n) draws uniformly from [0, n) with the simulator's seeded
		// RNG, so a body that explores repeats under one seed. An abandoned
		// iteration does not give its draws back.
		if args[0].I <= 0 {
			return 0, errors.New(b.Usage)
		}
		return h.agent.sim.Rand().Int63n(args[0].I), nil
	case "channel_clean":
		// channel_clean() is 1 unless the agent's control channel
		// retransmitted or timed out since this reaction's previous call. A
		// reaction that measures over its dialogue window discards a window
		// the channel stretched: a dedup-cached response carries counts
		// read long before the reply, so the count window and the time
		// window no longer line up. A fault-blind channel is always clean.
		ch, ok := h.agent.drv.(interface{ Faults() uint64 })
		if !ok {
			return 1, nil
		}
		n, last := ch.Faults(), h.faults
		h.faults = n
		if n == last {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unknown builtin %q", name)
}
