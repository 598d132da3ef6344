package compiler

import (
	"fmt"
	"sort"

	"repro/internal/p4"
	"repro/internal/p4r"
)

func measTableName(reaction, pipe string) string {
	return fmt.Sprintf("p4r_meas_%s_%s_", reaction, pipe)
}

// ---- Reactions: measurement generation (§4.2, Fig. 9, §5.2) ----

func (c *compiler) lowerReactions() {
	// dupRegs dedupes duplicated registers shared by multiple reactions.
	dupRegs := make(map[string]*RegParamInfo)

	for _, r := range c.f.Reactions {
		info := &ReactionInfo{Name: r.Name, Body: r.Body, Stmts: r.Stmts}
		var ingFields, egrFields []SlotField

		for _, p := range r.Params {
			switch p.Kind {
			case p4r.ParamIng, p4r.ParamEgr:
				if p.IsMbl {
					info.MblParams = append(info.MblParams, MblParamInfo{Name: p.Target, Var: sanitize(p.Target)})
					continue
				}
				id := c.prog.Schema.MustID(p.Target)
				sf := SlotField{Param: p.Target, Var: sanitize(p.Target), Width: c.prog.Schema.Width(id)}
				if p.Kind == p4r.ParamIng {
					ingFields = append(ingFields, sf)
				} else {
					egrFields = append(egrFields, sf)
				}
			case p4r.ParamReg:
				reg := c.prog.Registers[p.Target]
				lo, hi := p.Lo, p.Hi
				if hi < 0 {
					lo, hi = 0, reg.Instances-1
				}
				rp, exists := dupRegs[p.Target]
				if !exists {
					rp = c.duplicateRegister(reg)
					dupRegs[p.Target] = rp
				}
				cp := *rp
				cp.Var = p.Target
				cp.Lo, cp.Hi = lo, hi
				info.RegParams = append(info.RegParams, cp)
			}
		}

		info.IngSlots = c.packMeasurement(r.Name, "ing", ingFields)
		info.EgrSlots = c.packMeasurement(r.Name, "egr", egrFields)
		c.plan.Reactions = append(c.plan.Reactions, info)
	}

	// Inject mirroring into every action that writes a duplicated
	// register (§5.2 "Registers and register arrays").
	var regs []string
	for name := range dupRegs {
		regs = append(regs, name)
	}
	sort.Strings(regs)
	for _, name := range regs {
		c.injectMirrors(name, dupRegs[name])
	}
}

// packMeasurement packs field parameters into 64-bit measurement slots
// using sorted first-fit, generates the per-slot registers, and emits
// the measurement action/table for one pipeline.
func (c *compiler) packMeasurement(reaction, pipe string, fields []SlotField) []MeasSlot {
	if len(fields) == 0 {
		return nil
	}
	sorted := append([]SlotField(nil), fields...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Width != sorted[j].Width {
			return sorted[i].Width > sorted[j].Width
		}
		return sorted[i].Param < sorted[j].Param
	})
	var slots []MeasSlot
	used := []int{}
	for _, f := range sorted {
		placed := false
		for i := range slots {
			if used[i]+f.Width <= c.opts.MeasSlotBits {
				f.Shift = used[i]
				slots[i].Fields = append(slots[i].Fields, f)
				used[i] += f.Width
				placed = true
				break
			}
		}
		if !placed {
			f.Shift = 0
			slots = append(slots, MeasSlot{Fields: []SlotField{f}})
			used = append(used, f.Width)
		}
	}

	mvID := c.prog.Schema.MustID(MVField)
	action := &p4.Action{Name: fmt.Sprintf("p4r_meas_act_%s_%s_", reaction, pipe)}
	for k := range slots {
		regName := fmt.Sprintf("p4r_meas_%s_%s%d_", reaction, pipe, k)
		slots[k].Register = regName
		c.prog.AddRegister(&p4.Register{Name: regName, Width: c.opts.MeasSlotBits, Instances: 2})

		if len(slots[k].Fields) == 1 && slots[k].Fields[0].Shift == 0 {
			f := slots[k].Fields[0]
			id := c.prog.Schema.MustID(f.Param)
			action.Body = append(action.Body, p4.RegisterWrite{
				Reg: regName, Index: p4.FieldOp(mvID, MVField), Value: p4.FieldOp(id, f.Param),
			})
			continue
		}
		// Multiple fields: stage the packed word in metadata, then write.
		staging := fmt.Sprintf("%smeas_%s_%s%d", MetaPrefix, reaction, pipe, k)
		c.prog.Schema.Define(staging, c.opts.MeasSlotBits)
		scratch := MetaPrefix + "meas_scratch_"
		c.prog.Schema.Define(scratch, c.opts.MeasSlotBits)
		stID := c.prog.Schema.MustID(staging)
		scID := c.prog.Schema.MustID(scratch)
		action.Body = append(action.Body, p4.ModifyField{Dst: stID, DstName: staging, Src: p4.ConstOp(0)})
		for _, f := range slots[k].Fields {
			id := c.prog.Schema.MustID(f.Param)
			action.Body = append(action.Body,
				p4.ModifyField{Dst: scID, DstName: scratch, Src: p4.FieldOp(id, f.Param)},
				p4.ALU{Op: p4.ALUShl, Dst: scID, DstName: scratch, A: p4.FieldOp(scID, scratch), B: p4.ConstOp(uint64(f.Shift))},
				p4.ALU{Op: p4.ALUOr, Dst: stID, DstName: staging, A: p4.FieldOp(stID, staging), B: p4.FieldOp(scID, scratch)},
			)
		}
		action.Body = append(action.Body, p4.RegisterWrite{
			Reg: regName, Index: p4.FieldOp(mvID, MVField), Value: p4.FieldOp(stID, staging),
		})
	}
	c.prog.AddAction(action)
	c.prog.AddTable(&p4.Table{
		Name:          measTableName(reaction, pipe),
		ActionNames:   []string{action.Name},
		DefaultAction: &p4.ActionCall{Action: action.Name},
		Size:          1,
	})
	return slots
}

// duplicateRegister creates the mv-indexed duplicate and timestamp
// registers for a polled user register.
func (c *compiler) duplicateRegister(reg *p4.Register) *RegParamInfo {
	padded := nextPow2(reg.Instances)
	dup := fmt.Sprintf("p4r_dup_%s_", reg.Name)
	ts := fmt.Sprintf("p4r_ts_%s_", reg.Name)
	c.prog.AddRegister(&p4.Register{Name: dup, Width: reg.Width, Instances: 2 * padded})
	c.prog.AddRegister(&p4.Register{Name: ts, Width: 32, Instances: 2 * padded})
	return &RegParamInfo{
		Orig: reg.Name, Dup: dup, Ts: ts,
		N: reg.Instances, PaddedN: padded,
	}
}

// injectMirrors appends, after every data-plane write to rp.Orig, the
// operations that mirror the written value into the mv-prefixed
// duplicate register and bump its timestamp register.
func (c *compiler) injectMirrors(regName string, rp *RegParamInfo) {
	mvID := c.prog.Schema.MustID(MVField)
	idxField := MetaPrefix + "mirr_" + regName + "_idx"
	valField := MetaPrefix + "mirr_" + regName + "_val"
	c.prog.Schema.Define(idxField, 32)
	c.prog.Schema.Define(valField, c.prog.Registers[regName].Width)
	idxID := c.prog.Schema.MustID(idxField)
	valID := c.prog.Schema.MustID(valField)
	shift := uint64(ceilLog2(rp.PaddedN))

	mirrorOps := func(index p4.Operand, value p4.Operand) []p4.Primitive {
		return []p4.Primitive{
			// dup index = (mv << log2(paddedN)) | index
			p4.ModifyField{Dst: idxID, DstName: idxField, Src: p4.FieldOp(mvID, MVField)},
			p4.ALU{Op: p4.ALUShl, Dst: idxID, DstName: idxField, A: p4.FieldOp(idxID, idxField), B: p4.ConstOp(shift)},
			p4.ALU{Op: p4.ALUOr, Dst: idxID, DstName: idxField, A: p4.FieldOp(idxID, idxField), B: index},
			p4.RegisterWrite{Reg: rp.Dup, Index: p4.FieldOp(idxID, idxField), Value: value},
			p4.RegisterIncrement{Reg: rp.Ts, Index: p4.FieldOp(idxID, idxField), By: p4.ConstOp(1)},
		}
	}

	for _, a := range c.prog.Actions {
		var body []p4.Primitive
		changed := false
		for _, prim := range a.Body {
			body = append(body, prim)
			switch op := prim.(type) {
			case p4.RegisterWrite:
				if op.Reg == regName {
					body = append(body, mirrorOps(op.Index, op.Value)...)
					changed = true
				}
			case p4.RegisterIncrement:
				if op.Reg == regName {
					// Read back the post-increment value, then mirror it.
					body = append(body, p4.RegisterRead{Dst: valID, DstName: valField, Reg: regName, Index: op.Index})
					body = append(body, mirrorOps(op.Index, p4.FieldOp(valID, valField))...)
					changed = true
				}
			}
		}
		if changed {
			a.Body = body
		}
	}
}
