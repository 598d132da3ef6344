package compiler

import (
	"sort"
	"strings"

	"repro/internal/p4"
	"repro/internal/p4r"
	"repro/internal/packet"
)

// ---- Action lowering and specialization (Figs. 4, 5, 6) ----

// mblFieldsUsed returns the malleable *fields* referenced by an action,
// in order of first occurrence.
func (c *compiler) mblFieldsUsed(a *p4r.ActionDecl) []string {
	var out []string
	seen := map[string]bool{}
	for _, call := range a.Body {
		for _, arg := range call.Args {
			if arg.Kind != p4r.ArgMblRef {
				continue
			}
			if _, isField := c.plan.MblFields[arg.Mbl]; isField && !seen[arg.Mbl] {
				seen[arg.Mbl] = true
				out = append(out, arg.Mbl)
			}
		}
	}
	return out
}

func (c *compiler) lowerActions() {
	for _, a := range c.f.Actions {
		fields := c.mblFieldsUsed(a)
		if len(fields) == 0 {
			c.prog.AddAction(c.lowerAction(a, a.Name, nil))
			continue
		}
		// Specialize over the cartesian product of alternatives — the
		// action-instantiation strategy of Figs. 5 and 6.
		spec := &ActionSpecInfo{Fields: fields}
		for _, fn := range fields {
			spec.AltCounts = append(spec.AltCounts, len(c.plan.MblFields[fn].Alts))
		}
		combo := make([]int, len(fields))
		for {
			binding := make(map[string]string, len(fields))
			parts := make([]string, len(fields))
			for i, fn := range fields {
				alt := c.plan.MblFields[fn].Alts[combo[i]]
				binding[fn] = alt
				parts[i] = sanitize(alt)
			}
			vname := a.Name + "__" + strings.Join(parts, "__") + "_"
			c.prog.AddAction(c.lowerAction(a, vname, binding))
			spec.Variants = append(spec.Variants, vname)
			// Advance the combination, last index fastest (row-major, so
			// VariantFor's Horner indexing matches).
			i := len(combo) - 1
			for i >= 0 {
				combo[i]++
				if combo[i] < spec.AltCounts[i] {
					break
				}
				combo[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}
		c.specs[a.Name] = spec
	}
}

// resolveOperand maps a P4R argument to a p4 operand in the context of
// an action declaration and a malleable-field binding.
func (c *compiler) resolveOperand(arg p4r.Arg, decl *p4r.ActionDecl, binding map[string]string) p4.Operand {
	switch arg.Kind {
	case p4r.ArgConst:
		return p4.ConstOp(arg.Value)
	case p4r.ArgIdent:
		for i, pn := range decl.Params {
			if pn == arg.Ident {
				return p4.ParamOp(i, pn)
			}
		}
		return p4.FieldOp(c.prog.Schema.MustID(arg.Ident), arg.Ident)
	}
	if mv, ok := c.plan.MblValues[arg.Mbl]; ok {
		return p4.FieldOp(c.prog.Schema.MustID(mv.MetaField), mv.MetaField)
	}
	alt := binding[arg.Mbl]
	return p4.FieldOp(c.prog.Schema.MustID(alt), alt)
}

// resolveDst resolves an argument that denotes a writable field: a
// field, or the bound alternative of a malleable field.
func (c *compiler) resolveDst(arg p4r.Arg, binding map[string]string) (packet.FieldID, string) {
	name := arg.Ident
	if arg.Kind == p4r.ArgMblRef {
		name = binding[arg.Mbl]
	}
	return c.prog.Schema.MustID(name), name
}

var aluOps = map[string]p4.ALUOp{
	"add": p4.ALUAdd, "subtract": p4.ALUSub,
	"bit_and": p4.ALUAnd, "bit_or": p4.ALUOr, "bit_xor": p4.ALUXor,
	"shift_left": p4.ALUShl, "shift_right": p4.ALUShr,
	"min": p4.ALUMin, "max": p4.ALUMax,
}

func (c *compiler) lowerAction(decl *p4r.ActionDecl, name string, binding map[string]string) *p4.Action {
	a := &p4.Action{Name: name}
	widths := make([]int, len(decl.Params))
	for i := range widths {
		widths[i] = 32 // default; refined below from usage
	}
	noteParamWidth := func(op p4.Operand, w int) {
		if op.Kind == p4.OpParam && w > 0 && widths[op.Param] < w {
			widths[op.Param] = w
		}
	}
	fieldWidth := func(id packet.FieldID) int { return c.prog.Schema.Width(id) }

	for _, call := range decl.Body {
		args := call.Args
		operand := func(i int) p4.Operand { return c.resolveOperand(args[i], decl, binding) }
		switch call.Name {
		case "modify_field":
			dst, dstName := c.resolveDst(args[0], binding)
			src := operand(1)
			noteParamWidth(src, fieldWidth(dst))
			a.Body = append(a.Body, p4.ModifyField{Dst: dst, DstName: dstName, Src: src})
		case "add", "subtract", "bit_and", "bit_or", "bit_xor", "shift_left", "shift_right", "min", "max":
			dst, dstName := c.resolveDst(args[0], binding)
			x, y := operand(1), operand(2)
			noteParamWidth(x, fieldWidth(dst))
			noteParamWidth(y, fieldWidth(dst))
			a.Body = append(a.Body, p4.ALU{Op: aluOps[call.Name], Dst: dst, DstName: dstName, A: x, B: y})
		case "add_to_field", "subtract_from_field":
			dst, dstName := c.resolveDst(args[0], binding)
			v := operand(1)
			op := p4.ALUAdd
			if call.Name == "subtract_from_field" {
				op = p4.ALUSub
			}
			noteParamWidth(v, fieldWidth(dst))
			a.Body = append(a.Body, p4.ALU{Op: op, Dst: dst, DstName: dstName, A: p4.FieldOp(dst, dstName), B: v})
		case "drop":
			a.Body = append(a.Body, p4.Drop{})
		case "no_op":
			a.Body = append(a.Body, p4.NoOp{})
		case "recirculate":
			a.Body = append(a.Body, p4.Recirculate{})
		case "register_read":
			dst, dstName := c.resolveDst(args[0], binding)
			a.Body = append(a.Body, p4.RegisterRead{Dst: dst, DstName: dstName, Reg: args[1].Ident, Index: operand(2)})
		case "register_write":
			val := operand(2)
			noteParamWidth(val, c.prog.Registers[args[0].Ident].Width)
			a.Body = append(a.Body, p4.RegisterWrite{Reg: args[0].Ident, Index: operand(1), Value: val})
		case "register_increment":
			a.Body = append(a.Body, p4.RegisterIncrement{Reg: args[0].Ident, Index: operand(1), By: operand(2)})
		case "count":
			a.Body = append(a.Body, p4.RegisterIncrement{Reg: args[0].Ident, Index: operand(1), By: p4.ConstOp(1)})
		case "count_bytes":
			plen := c.prog.Schema.MustID(p4.FieldPacketLen)
			a.Body = append(a.Body, p4.RegisterIncrement{Reg: args[0].Ident, Index: operand(1), By: p4.FieldOp(plen, p4.FieldPacketLen)})
		case "modify_field_with_hash_based_offset":
			dst, dstName := c.resolveDst(args[0], binding)
			a.Body = append(a.Body, p4.ModifyFieldWithHash{
				Dst: dst, DstName: dstName,
				Base: args[1].Value, Hash: args[2].Ident, Size: args[3].Value,
			})
		}
	}
	for i, pn := range decl.Params {
		a.Params = append(a.Params, p4.Param{Name: pn, Width: widths[i]})
	}
	return a
}

// ---- Table lowering (Figs. 5, 6 and §5.1.2) ----

var matchKindOf = map[string]p4.MatchKind{
	"exact": p4.MatchExact, "ternary": p4.MatchTernary, "lpm": p4.MatchLPM, "range": p4.MatchRange,
}

func (c *compiler) lowerTables() {
	for _, t := range c.f.Tables {
		tbl := &p4.Table{Name: t.Name, Malleable: t.Malleable}
		info := &MblTableInfo{Table: t.Name, SelectorCol: make(map[string]int), VVCol: -1, ActionSpec: make(map[string]*ActionSpecInfo)}
		needsInfo := t.Malleable
		var selectorOrder []string
		expansion := 1
		seenMbl := map[string]bool{}

		noteMbl := func(name string) {
			if !seenMbl[name] {
				seenMbl[name] = true
				selectorOrder = append(selectorOrder, name)
				expansion *= len(c.plan.MblFields[name].Alts)
			}
		}

		for _, rk := range t.Reads {
			uk := UserKey{MatchType: rk.MatchType}
			info.ColOffset = append(info.ColOffset, len(tbl.Keys))
			mv, isVal := c.plan.MblValues[rk.Target.Mbl]
			mf, isField := c.plan.MblFields[rk.Target.Mbl]
			switch {
			case rk.Target.Kind == p4r.ArgIdent:
				id := c.prog.Schema.MustID(rk.Target.Ident)
				uk.FieldName = rk.Target.Ident
				uk.Width = c.prog.Schema.Width(id)
				mk := p4.MatchKey{
					FieldName: rk.Target.Ident, Field: id, Width: uk.Width, Kind: matchKindOf[rk.MatchType],
				}
				if rk.HasMask {
					mk.StaticMask = rk.Mask
				}
				tbl.Keys = append(tbl.Keys, mk)
			case isVal:
				// Matching on a malleable value is matching its metadata.
				id := c.prog.Schema.MustID(mv.MetaField)
				uk.FieldName = mv.MetaField
				uk.Width = mv.Width
				tbl.Keys = append(tbl.Keys, p4.MatchKey{
					FieldName: mv.MetaField, Field: id, Width: mv.Width, Kind: matchKindOf[rk.MatchType],
				})
			case isField:
				// Fig. 6: one ternary column per alternative. Exact user
				// matches become ternary to admit the wildcard.
				uk.MblField = mf.Name
				uk.Width = mf.Width
				needsInfo = true
				noteMbl(mf.Name)
				for _, alt := range mf.Alts {
					id := c.prog.Schema.MustID(alt)
					kind := p4.MatchTernary
					if rk.MatchType == "lpm" {
						kind = p4.MatchLPM
					}
					mk := p4.MatchKey{
						FieldName: alt, Field: id, Width: mf.Width, Kind: kind,
					}
					if rk.HasMask {
						mk.StaticMask = rk.Mask
					}
					tbl.Keys = append(tbl.Keys, mk)
				}
			}
			info.Keys = append(info.Keys, uk)
		}

		for _, an := range t.Actions {
			if spec, ok := c.specs[an]; ok {
				needsInfo = true
				info.ActionSpec[an] = spec
				for _, fn := range spec.Fields {
					noteMbl(fn)
				}
				tbl.ActionNames = append(tbl.ActionNames, spec.Variants...)
				continue
			}
			tbl.ActionNames = append(tbl.ActionNames, an)
		}

		// Selector columns, in order of first use.
		for _, fn := range selectorOrder {
			mf := c.plan.MblFields[fn]
			id := c.prog.Schema.MustID(mf.Selector)
			info.SelectorCol[fn] = len(tbl.Keys)
			tbl.Keys = append(tbl.Keys, p4.MatchKey{
				FieldName: mf.Selector, Field: id, Width: c.prog.Schema.Width(id), Kind: p4.MatchExact,
			})
		}

		if t.Default != nil {
			tbl.DefaultAction = &p4.ActionCall{Action: t.Default.Action, Data: append([]uint64(nil), t.Default.Args...)}
		}

		if t.Malleable {
			// §5.1.2: vv as an exact-match column; every entry doubled.
			vvID := c.prog.Schema.MustID(VVField)
			info.VVCol = len(tbl.Keys)
			tbl.Keys = append(tbl.Keys, p4.MatchKey{FieldName: VVField, Field: vvID, Width: 1, Kind: p4.MatchExact})
		}

		if t.Size > 0 {
			gen := t.Size * expansion
			if t.Malleable {
				gen *= 2
			}
			tbl.Size = gen
		}
		info.GenKeyCount = len(tbl.Keys)
		c.prog.AddTable(tbl)
		if needsInfo {
			c.plan.MblTables[t.Name] = info
		}
	}
}

// ---- Control flow ----

func (c *compiler) condOperand(arg p4r.Arg) p4.Operand {
	if arg.Kind == p4r.ArgConst {
		return p4.ConstOp(arg.Value)
	}
	name := arg.Ident
	if arg.Kind == p4r.ArgMblRef {
		if mv, isVal := c.plan.MblValues[arg.Mbl]; isVal {
			name = mv.MetaField
		} else {
			name = c.carrierFor(arg.Mbl)
		}
	}
	return p4.FieldOp(c.prog.Schema.MustID(name), name)
}

var cmpOps = map[string]p4.CmpOp{
	"==": p4.CmpEQ, "!=": p4.CmpNE, "<": p4.CmpLT, "<=": p4.CmpLE, ">": p4.CmpGT, ">=": p4.CmpGE,
}

func (c *compiler) lowerStmts(stmts []p4r.Stmt) []p4.ControlStmt {
	var out []p4.ControlStmt
	for _, s := range stmts {
		switch st := s.(type) {
		case p4r.ApplyStmt:
			out = append(out, p4.Apply{Table: st.Table})
		case p4r.IfStmt:
			l, r := c.condOperand(st.Cond.Left), c.condOperand(st.Cond.Right)
			out = append(out, p4.If{
				Cond: p4.CondExpr{Left: l, Op: cmpOps[st.Cond.Op], Right: r},
				Then: c.lowerStmts(st.Then), Else: c.lowerStmts(st.Else),
			})
		}
	}
	return out
}

func (c *compiler) buildControlFlow() {
	userIng, userEgr := c.lowerStmts(c.f.Ingress), c.lowerStmts(c.f.Egress)
	var ing []p4.ControlStmt
	for _, it := range c.plan.InitTables {
		ing = append(ing, p4.Apply{Table: it.Table})
	}
	// Carrier loaders run right after init (they read selectors the init
	// tables just loaded). Deterministic order: sorted by malleable name.
	var loaders []string
	for name, mf := range c.plan.MblFields {
		if mf.LoaderTable != "" {
			loaders = append(loaders, name)
		}
	}
	sort.Strings(loaders)
	for _, name := range loaders {
		ing = append(ing, p4.Apply{Table: c.plan.MblFields[name].LoaderTable})
	}
	ing = append(ing, userIng...)
	for _, rxn := range c.plan.Reactions {
		if len(rxn.IngSlots) > 0 {
			ing = append(ing, p4.Apply{Table: measTableName(rxn.Name, "ing")})
		}
	}
	egr := append([]p4.ControlStmt(nil), userEgr...)
	for _, rxn := range c.plan.Reactions {
		if len(rxn.EgrSlots) > 0 {
			egr = append(egr, p4.Apply{Table: measTableName(rxn.Name, "egr")})
		}
	}
	c.prog.Ingress = ing
	c.prog.Egress = egr
}
