package compiler

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/p4"
	"repro/internal/p4r"
	"repro/internal/packet"
	"repro/internal/rmt"
)

// ---- Action lowering and specialization (Figs. 4, 5, 6) ----

// combos lists every combination of fields' alternatives, row-major
// (the last field fastest): the order of an action's variants and of a
// table's MblTableInfo.Combos.
func (c *compiler) combos(fields []string) [][]int {
	out := [][]int{nil}
	for _, fn := range fields {
		var next [][]int
		for _, combo := range out {
			for i := range c.plan.MblFields[fn].Alts {
				next = append(next, append(slices.Clip(combo), i))
			}
		}
		out = next
	}
	return out
}

// variant names action's specialisation for the alternatives combo
// picks for fields (a table's expansion fields, a superset of the
// action's own), and returns the binding lowerAction resolves
// ${field} references through.
func (c *compiler) variant(action string, fields []string, combo []int) (string, map[string]string) {
	own := p4r.SpecialisedOver(c.actions[action], c.fieldDecls)
	binding := make(map[string]string, len(own))
	parts := make([]string, len(own))
	for i, fn := range own {
		alt := c.plan.MblFields[fn].Alts[combo[slices.Index(fields, fn)]]
		binding[fn], parts[i] = alt, sanitize(alt)
	}
	return action + "__" + strings.Join(parts, "__") + "_", binding
}

func (c *compiler) lowerActions() {
	for _, a := range c.f.Actions {
		fields := p4r.SpecialisedOver(a, c.fieldDecls)
		if len(fields) == 0 {
			c.prog.AddAction(c.lowerAction(a, a.Name, nil))
			continue
		}
		// Specialize over the cartesian product of alternatives — the
		// action-instantiation strategy of Figs. 5 and 6.
		for _, combo := range c.combos(fields) {
			name, binding := c.variant(a.Name, fields, combo)
			c.prog.AddAction(c.lowerAction(a, name, binding))
			c.variants[a.Name] = append(c.variants[a.Name], name)
		}
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
		info := &MblTableInfo{Table: t.Name, VVCol: -1}
		fields := p4r.ExpandedOver(t, c.fieldDecls, c.actions)
		// keyCol[i] is user key i's first generated column; fieldOf[i]
		// its malleable field's index in fields, or -1.
		var keyCol, fieldOf []int

		for _, rk := range t.Reads {
			keyCol = append(keyCol, len(tbl.Keys))
			fieldOf = append(fieldOf, -1)
			mv, isVal := c.plan.MblValues[rk.Target.Mbl]
			mf, isField := c.plan.MblFields[rk.Target.Mbl]
			switch {
			case rk.Target.Kind == p4r.ArgIdent:
				id := c.prog.Schema.MustID(rk.Target.Ident)
				mk := p4.MatchKey{
					FieldName: rk.Target.Ident, Field: id, Width: c.prog.Schema.Width(id), Kind: matchKindOf[rk.MatchType],
				}
				if rk.HasMask {
					mk.StaticMask = rk.Mask
				}
				tbl.Keys = append(tbl.Keys, mk)
			case isVal:
				// Matching on a malleable value is matching its metadata.
				id := c.prog.Schema.MustID(mv.MetaField)
				tbl.Keys = append(tbl.Keys, p4.MatchKey{
					FieldName: mv.MetaField, Field: id, Width: mv.Width, Kind: matchKindOf[rk.MatchType],
				})
			case isField:
				// Fig. 6: one ternary column per alternative. Exact user
				// matches become ternary to admit the wildcard.
				fieldOf[len(fieldOf)-1] = slices.Index(fields, mf.Name)
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
		}

		for _, an := range t.Actions {
			if vs, ok := c.variants[an]; ok {
				tbl.ActionNames = append(tbl.ActionNames, vs...)
			} else {
				tbl.ActionNames = append(tbl.ActionNames, an)
			}
		}

		// Selector columns, in ExpandedOver's order.
		selCol := len(tbl.Keys)
		for _, fn := range fields {
			id := c.prog.Schema.MustID(c.plan.MblFields[fn].Selector)
			tbl.Keys = append(tbl.Keys, p4.MatchKey{
				FieldName: c.plan.MblFields[fn].Selector, Field: id, Width: c.prog.Schema.Width(id), Kind: p4.MatchExact,
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

		for _, combo := range c.combos(fields) {
			cb := Combo{Keys: make([]rmt.KeySpec, len(tbl.Keys))}
			for i, alt := range combo {
				cb.Keys[selCol+i] = rmt.ExactKey(uint64(alt))
			}
			for i, col := range keyCol {
				if fieldOf[i] >= 0 {
					col += combo[fieldOf[i]]
				}
				cb.KeyCol = append(cb.KeyCol, col)
			}
			for _, an := range t.Actions {
				if _, ok := c.variants[an]; ok {
					if cb.Variant == nil {
						cb.Variant = make(map[string]string)
					}
					cb.Variant[an], _ = c.variant(an, fields, combo)
				}
			}
			info.Combos = append(info.Combos, cb)
		}

		if t.Size > 0 {
			gen := t.Size * len(info.Combos)
			if t.Malleable {
				gen *= 2
			}
			tbl.Size = gen
		}
		c.prog.AddTable(tbl)
		if t.Malleable || len(fields) > 0 {
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
