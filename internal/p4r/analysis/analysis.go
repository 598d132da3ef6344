// Package analysis implements the semantic analyzer of the P4R
// frontend. It runs over the parsed AST before lowering and reports
// everything it finds as structured diagnostics (internal/p4r/diag)
// instead of dying on the first problem. It alone decides whether a
// program is valid: the compiler lowers every program it accepts
// without an error path of its own.
//
// The passes encode the preconditions of the Mantis program
// transformations (§4–§5 of the paper): malleable declaration/use
// consistency, reaction read/write discipline against polled snapshots,
// init-action and measurement-slot capacity, version-bit entry
// expansion, and the static portion of the serializable-isolation
// invariant (a reaction may only read registers the compiler protects
// with the mv bit, i.e. registers it polls).
package analysis

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/p4"
	"repro/internal/p4r"
	"repro/internal/p4r/diag"
	"repro/internal/rcl"
)

// Limits are the platform capacities the analyzer checks against. They
// mirror the knobs of compiler.Options so mantisc -check sees the same
// limits a compile does.
type Limits struct {
	// MaxInitActionBits bounds the total parameter width of one init
	// action (§5.1.1); a single malleable wider than this can never be
	// packed.
	MaxInitActionBits int
	// MeasSlotBits is the width of one packed measurement register slot
	// (§5.2); a field parameter wider than this cannot be measured.
	MeasSlotBits int
	// MaxTableEntries bounds the generated (post-expansion) entry count
	// of a single table: declared size × alt expansion × 2 version
	// copies (§5.1.2).
	MaxTableEntries int
}

// DefaultLimits mirrors compiler.DefaultOptions.
func DefaultLimits() Limits {
	return Limits{MaxInitActionBits: 512, MeasSlotBits: 64, MaxTableEntries: 1 << 20}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxInitActionBits == 0 {
		l.MaxInitActionBits = d.MaxInitActionBits
	}
	if l.MeasSlotBits == 0 {
		l.MeasSlotBits = d.MeasSlotBits
	}
	if l.MaxTableEntries == 0 {
		l.MaxTableEntries = d.MaxTableEntries
	}
	return l
}

// checker carries the symbol tables shared by the passes.
type checker struct {
	f   *p4r.File
	lim Limits
	out *diag.List

	fields    map[string]int // instance.field (and standard metadata) -> width
	registers map[string]*p4r.RegisterDecl
	mblValues map[string]*p4r.MblValue
	mblFields map[string]*p4r.MblField
	actions   map[string]*p4r.ActionDecl
	tables    map[string]*p4r.TableDecl
	calcs     map[string]*p4r.FieldListCalc

	mblUsed    map[string]bool // malleable name -> referenced anywhere
	regWritten map[string]bool // register name -> written by a data-plane action
}

// Analyze runs every semantic pass over f and returns the collected
// diagnostics, sorted by source position. The returned list may mix
// errors and warnings; callers decide whether warnings block (Werror).
func Analyze(f *p4r.File, lim Limits) *diag.List {
	c := &checker{
		f:          f,
		lim:        lim.withDefaults(),
		out:        &diag.List{},
		fields:     make(map[string]int),
		registers:  make(map[string]*p4r.RegisterDecl),
		mblValues:  make(map[string]*p4r.MblValue),
		mblFields:  make(map[string]*p4r.MblField),
		actions:    make(map[string]*p4r.ActionDecl),
		tables:     make(map[string]*p4r.TableDecl),
		calcs:      make(map[string]*p4r.FieldListCalc),
		mblUsed:    make(map[string]bool),
		regWritten: make(map[string]bool),
	}
	c.buildSymbols()
	c.checkMblFieldAlts()
	c.checkActions()
	c.checkFieldLists()
	c.checkTables()
	c.checkReactions()
	c.checkInitCapacity()
	c.checkUnused()
	c.out.Sort()
	return c.out
}

func (c *checker) errorf(code string, line, col int, format string, args ...any) *diag.Diagnostic {
	d := diag.Errorf(code, line, col, format, args...)
	c.out.Add(d)
	return d
}

func (c *checker) warnf(code string, line, col int, format string, args ...any) *diag.Diagnostic {
	d := diag.Warnf(code, line, col, format, args...)
	c.out.Add(d)
	return d
}

// mblDeclared reports whether name is a declared malleable (value or
// field), marking it used.
func (c *checker) mblDeclared(name string) bool {
	_, isVal := c.mblValues[name]
	_, isField := c.mblFields[name]
	if isVal || isField {
		c.mblUsed[name] = true
		return true
	}
	return false
}

// mblWidth returns the declared width of a malleable, or 0.
func (c *checker) mblWidth(name string) int {
	if mv, ok := c.mblValues[name]; ok {
		return mv.Width
	}
	if mf, ok := c.mblFields[name]; ok {
		return mf.Width
	}
	return 0
}

// ---- Symbol construction, duplicates and reserved names (M013), widths and counts (L003) ----

// reserved reports whether a declared name could collide with one the
// compiler generates: every generated table, action and register, and
// the metadata instance p4r_meta_, ends in "_" and most start with p4r_.
func reserved(name string) bool {
	return strings.HasSuffix(name, "_") || strings.HasPrefix(name, "p4r_")
}

func (c *checker) reservedName(kind, name string, line, col int) {
	c.errorf(diag.DuplicateDecl, line, col, "%s %s: reserved name", kind, name).Hint =
		"names that end in _ or start with p4r_ belong to the compiler"
}

// checkWidth reports a width the packet schema or a register cannot
// hold (L003), printed back as the literal's uint64.
func (c *checker) checkWidth(w, line, col int, format string, args ...any) {
	if w < 1 || w > 64 {
		c.errorf(diag.LowerCapacity, line, col, format+" has unsupported width %d", append(args, uint64(w))...)
	}
}

// checkCount reports a count outside 1..p4r.MaxCount (L003). The parser
// stores the literal's uint64 as an int, so uint64(n) prints it back.
func (c *checker) checkCount(n, line, col int, format string, args ...any) {
	if n < 1 || n > p4r.MaxCount {
		c.errorf(diag.LowerCapacity, line, col, format+" %d outside 1..%d", append(args, uint64(n), p4r.MaxCount)...)
	}
}

func (c *checker) buildSymbols() {
	// Standard metadata is always in scope (p4.DefineStandardMetadata).
	for name, w := range map[string]int{
		p4.FieldIngressPort: 16, p4.FieldEgressSpec: 16, p4.FieldPacketLen: 32,
		p4.FieldTimestamp: 48, p4.FieldEnqQdepth: 24, p4.FieldEgressPort: 16,
		p4.FieldPriority: 8,
	} {
		c.fields[name] = w
	}

	headerTypes := make(map[string]*p4r.HeaderType)
	for _, ht := range c.f.HeaderTypes {
		if prev, dup := headerTypes[ht.Name]; dup {
			c.errorf(diag.DuplicateDecl, ht.Line, ht.Col, "duplicate header_type %s (first declared on line %d)", ht.Name, prev.Line)
			continue
		}
		headerTypes[ht.Name] = ht
		for _, fd := range ht.Fields {
			c.checkWidth(fd.Width, ht.Line, ht.Col, "header_type %s: field %s", ht.Name, fd.Name)
		}
	}
	instances := make(map[string]*p4r.Instance)
	for _, inst := range c.f.Instances {
		if prev, dup := instances[inst.Name]; dup {
			c.errorf(diag.DuplicateDecl, inst.Line, inst.Col, "duplicate instance %s (first declared on line %d)", inst.Name, prev.Line)
			continue
		}
		instances[inst.Name] = inst
		if reserved(inst.Name) {
			c.reservedName("instance", inst.Name, inst.Line, inst.Col)
			continue
		}
		ht, ok := headerTypes[inst.TypeName]
		if !ok {
			c.errorf(diag.UnknownSymbol, inst.Line, inst.Col, "instance %s of unknown header_type %s", inst.Name, inst.TypeName)
			continue
		}
		for _, fd := range ht.Fields {
			// One schema slot per name: the same name at another width
			// (a repeated field, or a standard_metadata instance) has none.
			name := inst.Name + "." + fd.Name
			if w, dup := c.fields[name]; dup && w != fd.Width {
				c.errorf(diag.DuplicateDecl, inst.Line, inst.Col, "field %s redefined with width %d (was %d)", name, fd.Width, w)
				continue
			}
			c.fields[name] = fd.Width
		}
	}
	for _, r := range c.f.Registers {
		if prev, dup := c.registers[r.Name]; dup {
			c.errorf(diag.DuplicateDecl, r.Line, r.Col, "duplicate register %s (first declared on line %d)", r.Name, prev.Line)
			continue
		}
		c.registers[r.Name] = r
		if reserved(r.Name) {
			c.reservedName("register", r.Name, r.Line, r.Col)
		}
		c.checkWidth(r.Width, r.Line, r.Col, "register %s", r.Name)
		c.checkCount(r.InstanceCount, r.CountLine, r.CountCol, "register %s: instance_count", r.Name)
	}
	for _, mv := range c.f.MblValues {
		if c.declaredMblDup(mv.Name, mv.Line, mv.Col) {
			continue
		}
		c.mblValues[mv.Name] = mv
		c.checkWidth(mv.Width, mv.Line, mv.Col, "malleable value %s", mv.Name)
	}
	for _, mf := range c.f.MblFields {
		if c.declaredMblDup(mf.Name, mf.Line, mf.Col) {
			continue
		}
		c.mblFields[mf.Name] = mf
	}
	for _, mv := range c.f.MblValues {
		c.checkMblName("value", mv.Name, mv.Line, mv.Col)
	}
	for _, mf := range c.f.MblFields {
		c.checkMblName("field", mf.Name, mf.Line, mf.Col)
	}
	for _, a := range c.f.Actions {
		if prev, dup := c.actions[a.Name]; dup {
			c.errorf(diag.DuplicateDecl, a.Line, a.Col, "duplicate action %s (first declared on line %d)", a.Name, prev.Line)
			continue
		}
		c.actions[a.Name] = a
		if reserved(a.Name) {
			c.reservedName("action", a.Name, a.Line, a.Col)
		}
	}
	for _, t := range c.f.Tables {
		if prev, dup := c.tables[t.Name]; dup {
			c.errorf(diag.DuplicateDecl, t.Line, t.Col, "duplicate table %s (first declared on line %d)", t.Name, prev.Line)
			continue
		}
		c.tables[t.Name] = t
		if reserved(t.Name) {
			c.reservedName("table", t.Name, t.Line, t.Col)
		}
		if t.SizeLine > 0 {
			c.checkCount(t.Size, t.SizeLine, t.SizeCol, "table %s: size", t.Name)
		}
	}
	for _, calc := range c.f.Calcs {
		if prev, dup := c.calcs[calc.Name]; dup {
			c.errorf(diag.DuplicateDecl, calc.Line, calc.Col, "duplicate field_list_calculation %s (first declared on line %d)", calc.Name, prev.Line)
			continue
		}
		c.calcs[calc.Name] = calc
	}
	seenRxn := make(map[string]*p4r.Reaction)
	for _, r := range c.f.Reactions {
		if prev, dup := seenRxn[r.Name]; dup {
			c.errorf(diag.DuplicateDecl, r.Line, r.Col, "duplicate reaction %s (first declared on line %d)", r.Name, prev.Line)
			continue
		}
		seenRxn[r.Name] = r
	}

	// Record which registers the data plane writes (register_write,
	// register_increment, count, count_bytes): these are the registers
	// whose unpolled reads are isolation hazards (M010).
	for _, a := range c.f.Actions {
		for _, call := range a.Body {
			switch call.Name {
			case "register_write", "register_increment", "count", "count_bytes":
				if len(call.Args) > 0 && call.Args[0].Kind == p4r.ArgIdent {
					c.regWritten[call.Args[0].Ident] = true
				}
			}
		}
	}
}

func (c *checker) declaredMblDup(name string, line, col int) bool {
	if prev, ok := c.mblValues[name]; ok {
		c.errorf(diag.DuplicateDecl, line, col, "duplicate malleable %s (first declared on line %d)", name, prev.Line)
		return true
	}
	if prev, ok := c.mblFields[name]; ok {
		c.errorf(diag.DuplicateDecl, line, col, "duplicate malleable %s (first declared on line %d)", name, prev.Line)
		return true
	}
	return false
}

// checkMblName reports a malleable whose name the compiler's metadata
// fields (p4r_meta_.<name>) could collide with: the version bits and
// scratch fields end in _, measurement staging starts with meas_,
// register mirroring with mirr_, and a malleable field f owns f_alt and
// f_val besides the value named f.
func (c *checker) checkMblName(kind, name string, line, col int) {
	clash := reserved(name) || strings.HasPrefix(name, "meas_") || strings.HasPrefix(name, "mirr_")
	for _, suffix := range []string{"_alt", "_val"} {
		if f, ok := strings.CutSuffix(name, suffix); ok && kind == "value" && c.mblFields[f] != nil {
			clash = true
		}
	}
	if clash {
		c.errorf(diag.DuplicateDecl, line, col, "malleable %s %s: reserved name", kind, name).Hint =
			"the compiler's metadata fields start with p4r_, meas_ or mirr_, end in _, or add _alt or _val to a malleable field's name"
	}
}

// ---- Malleable field alternatives (M005/M013/M014) ----

func (c *checker) checkMblFieldAlts() {
	for _, mf := range c.f.MblFields {
		// Each alt names the actions specialised over it (§4.1).
		named := make(map[string]string, len(mf.Alts))
		for _, alt := range mf.Alts {
			if prev, dup := named[sanitize(alt)]; dup {
				c.errorf(diag.DuplicateDecl, mf.Line, mf.Col, "malleable field %s: alts %q and %q name the same specialisation", mf.Name, prev, alt)
				continue
			}
			named[sanitize(alt)] = alt
			w, ok := c.fields[alt]
			if !ok {
				c.errorf(diag.UnknownSymbol, mf.Line, mf.Col, "malleable field %s: unknown alt %q", mf.Name, alt)
				continue
			}
			if w != mf.Width {
				c.errorf(diag.WidthMismatch, mf.Line, mf.Col,
					"malleable field %s (width %d): alt %q has width %d", mf.Name, mf.Width, alt, w)
			}
		}
	}
}

// ---- Actions: primitives, argument kinds, symbol resolution (M001/M014/L002) ----

// argKind is what one argument of a primitive must denote.
type argKind int

const (
	argDst     argKind = iota // a header field or a malleable field
	argOperand                // a constant, parameter, field or malleable
	argReg                    // a register
	argConst                  // a constant
	argCalc                   // a field_list_calculation
)

var aluArgs = []argKind{argDst, argOperand, argOperand}

// primitives gives the argument kinds, by position, of every primitive
// the compiler lowers.
var primitives = map[string][]argKind{
	"modify_field":        {argDst, argOperand},
	"add_to_field":        {argDst, argOperand},
	"subtract_from_field": {argDst, argOperand},
	"register_read":       {argDst, argReg, argOperand},
	"register_write":      {argReg, argOperand, argOperand},
	"register_increment":  {argReg, argOperand, argOperand},
	"count":               {argReg, argOperand},
	"count_bytes":         {argReg, argOperand},

	"add": aluArgs, "subtract": aluArgs, "min": aluArgs, "max": aluArgs,
	"bit_and": aluArgs, "bit_or": aluArgs, "bit_xor": aluArgs,
	"shift_left": aluArgs, "shift_right": aluArgs,
	"drop": nil, "no_op": nil, "recirculate": nil,

	"modify_field_with_hash_based_offset": {argDst, argConst, argCalc, argConst},
}

func (c *checker) checkActions() {
	for _, a := range c.f.Actions {
		if strings.Contains(a.Name, "__") && len(p4r.SpecialisedOver(a, c.mblFields)) > 0 {
			c.errorf(diag.DuplicateDecl, a.Line, a.Col, "action %s: reserved name", a.Name).Hint =
				"a specialised action's name may not contain __, which separates it from its alts"
		}
		params := make(map[string]bool, len(a.Params))
		for _, pn := range a.Params {
			params[pn] = true
		}
		for _, call := range a.Body {
			kinds, known := primitives[call.Name]
			switch {
			case !known:
				c.errorf(diag.UnknownSymbol, call.Line, call.Col, "unknown primitive %q", call.Name)
			case len(call.Args) != len(kinds):
				c.errorf(diag.LowerInvalid, call.Line, call.Col, "%s takes %d arguments, got %d", call.Name, len(kinds), len(call.Args))
				known = false
			}
			for i, arg := range call.Args {
				if c.resolveArg(a, params, call, i) && known {
					c.checkArgKind(kinds[i], arg, params)
				}
			}
		}
	}
}

// resolveArg reports an argument naming nothing (M001, M014) and
// whether it resolves. Identifiers resolve as action parameters,
// fields, registers, or hash calculation names.
func (c *checker) resolveArg(a *p4r.ActionDecl, params map[string]bool, call p4r.PrimCall, i int) bool {
	arg := call.Args[i]
	switch arg.Kind {
	case p4r.ArgMblRef:
		if !c.mblDeclared(arg.Mbl) {
			c.errorf(diag.UndeclaredMbl, arg.Line, arg.Col,
				"action %s: reference to undeclared malleable ${%s}", a.Name, arg.Mbl).Hint =
				"declare it with `malleable value` or `malleable field`"
			return false
		}
	case p4r.ArgIdent:
		_, isField := c.fields[arg.Ident]
		if !params[arg.Ident] && !isField && c.registers[arg.Ident] == nil && c.calcs[arg.Ident] == nil {
			c.errorf(diag.UnknownSymbol, arg.Line, arg.Col,
				"action %s: %s argument %d: unknown field or parameter %q", a.Name, call.Name, i+1, arg.Ident)
			return false
		}
	}
	return true
}

// checkArgKind reports a resolved argument of the wrong kind (L002).
func (c *checker) checkArgKind(kind argKind, arg p4r.Arg, params map[string]bool) {
	_, isField := c.fields[arg.Ident]
	isIdent := arg.Kind == p4r.ArgIdent
	var msg string
	switch {
	case kind == argDst && arg.Kind == p4r.ArgConst:
		msg = "destination must be a field"
	case kind == argDst && arg.Kind == p4r.ArgMblRef && c.mblValues[arg.Mbl] != nil:
		msg = fmt.Sprintf("malleable value ${%s} cannot be assigned in the data plane (values are set by reactions)", arg.Mbl)
	case kind == argDst && isIdent && !isField:
		msg = fmt.Sprintf("destination %q is not a field", arg.Ident)
	case kind == argOperand && isIdent && !isField && !params[arg.Ident]:
		msg = fmt.Sprintf("operand %q is not a field or parameter", arg.Ident)
	case kind == argReg && (!isIdent || c.registers[arg.Ident] == nil):
		msg = "register name expected"
	case kind == argConst && arg.Kind != p4r.ArgConst:
		msg = "hash base and size must be constants"
	case kind == argCalc && (!isIdent || c.calcs[arg.Ident] == nil):
		msg = "hash calculation name expected"
	default:
		return
	}
	c.errorf(diag.LowerInvalid, arg.Line, arg.Col, "%s", msg)
}

// ---- Field lists and hash calculations (M001/M014/L002) ----

func (c *checker) checkFieldLists() {
	lists := make(map[string]*p4r.FieldList)
	for _, fl := range c.f.FieldLists {
		if prev, dup := lists[fl.Name]; dup {
			c.errorf(diag.DuplicateDecl, fl.Line, fl.Col, "duplicate field_list %s (first declared on line %d)", fl.Name, prev.Line)
			continue
		}
		lists[fl.Name] = fl
		for _, e := range fl.Entries {
			switch e.Kind {
			case p4r.ArgIdent:
				if _, ok := c.fields[e.Ident]; !ok {
					c.errorf(diag.UnknownSymbol, e.Line, e.Col, "field_list %s: unknown field %q", fl.Name, e.Ident)
				}
			case p4r.ArgMblRef:
				if !c.mblDeclared(e.Mbl) {
					c.errorf(diag.UndeclaredMbl, e.Line, e.Col, "field_list %s: reference to undeclared malleable ${%s}", fl.Name, e.Mbl)
				}
			case p4r.ArgConst:
				c.errorf(diag.LowerInvalid, e.Line, e.Col, "field_list %s: constants are not allowed", fl.Name)
			}
		}
	}
	for _, calc := range c.f.Calcs {
		if c.calcs[calc.Name] != calc {
			continue // a duplicate, reported with the declarations
		}
		if _, ok := lists[calc.Input]; !ok {
			c.errorf(diag.UnknownSymbol, calc.Line, calc.Col, "field_list_calculation %s: unknown field_list %q", calc.Name, calc.Input)
		}
		switch calc.Algorithm {
		case "crc16", "crc32", "identity":
		default:
			c.errorf(diag.UnknownSymbol, calc.Line, calc.Col, "field_list_calculation %s: unknown algorithm %q", calc.Name, calc.Algorithm)
		}
	}
}

// ---- Tables (M001, M008, M009, M012, M014) ----

func (c *checker) checkTables() {
	for _, t := range c.f.Tables {
		for _, rk := range t.Reads {
			switch rk.Target.Kind {
			case p4r.ArgIdent:
				if _, ok := c.fields[rk.Target.Ident]; !ok {
					c.errorf(diag.UnknownSymbol, rk.Line, rk.Col, "table %s: unknown match field %q", t.Name, rk.Target.Ident)
				}
			case p4r.ArgMblRef:
				if !c.mblDeclared(rk.Target.Mbl) {
					c.errorf(diag.UndeclaredMbl, rk.Line, rk.Col, "table %s: reference to undeclared malleable ${%s}", t.Name, rk.Target.Mbl)
					continue
				}
				if mf, isField := c.mblFields[rk.Target.Mbl]; isField && rk.MatchType == "range" {
					c.errorf(diag.LowerInvalid, rk.Line, rk.Col, "table %s: range match on malleable field ${%s} is not supported", t.Name, mf.Name)
				}
			}
		}

		seenAction := map[string]int{}
		for _, an := range t.Actions {
			if line, dup := seenAction[an]; dup {
				c.errorf(diag.DuplicateAction, t.Line, t.Col,
					"table %s: action %s listed more than once", t.Name, an).Hint =
					fmt.Sprintf("first listed for this table on line %d", line)
				continue
			}
			seenAction[an] = t.Line
			if _, ok := c.actions[an]; !ok {
				c.errorf(diag.UnknownSymbol, t.Line, t.Col, "table %s: unknown action %q", t.Name, an)
			}
		}

		if t.Default != nil {
			a, ok := c.actions[t.Default.Action]
			switch {
			case !ok:
				c.errorf(diag.UnknownSymbol, t.Line, t.Col, "table %s: unknown default action %q", t.Name, t.Default.Action)
			case len(p4r.SpecialisedOver(a, c.mblFields)) > 0:
				c.errorf(diag.LowerInvalid, t.Line, t.Col,
					"table %s: default action %q uses malleable fields, which is not supported", t.Name, t.Default.Action).Hint =
					"install a low-priority entry instead"
			case len(t.Default.Args) != len(a.Params):
				c.errorf(diag.DefaultArity, t.Line, t.Col,
					"table %s: default_action %s takes %d arguments, got %d", t.Name, a.Name, len(a.Params), len(t.Default.Args))
			}
		}

		// §5.1.2: every user entry of a malleable table is installed once
		// per alt combination and doubled for the two config versions. The
		// generated capacity must fit the platform table limit.
		if t.Size > 0 {
			expansion := 1
			for _, fn := range p4r.ExpandedOver(t, c.mblFields, c.actions) {
				expansion *= len(c.mblFields[fn].Alts)
			}
			gen := t.Size * expansion
			if t.Malleable {
				gen *= 2
			}
			if gen > c.lim.MaxTableEntries {
				c.errorf(diag.TableExpansion, t.Line, t.Col,
					"table %s: %d declared entries expand to %d generated entries (× %d alt combinations%s), exceeding the platform table capacity %d",
					t.Name, t.Size, gen, expansion, versionNote(t.Malleable), c.lim.MaxTableEntries).Hint =
					"shrink the table, reduce alts, or split the malleable field"
			}
		}
	}

	// Control blocks: applied tables must exist (M014). Walked here so
	// table-name typos surface in -check, not just at lowering.
	var walk func(stmts []p4r.Stmt)
	walk = func(stmts []p4r.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case p4r.ApplyStmt:
				if _, ok := c.tables[st.Table]; !ok {
					c.errorf(diag.UnknownSymbol, st.Line, st.Col, "apply of unknown table %q", st.Table)
				}
			case p4r.IfStmt:
				for _, arg := range []p4r.Arg{st.Cond.Left, st.Cond.Right} {
					switch arg.Kind {
					case p4r.ArgIdent:
						if _, ok := c.fields[arg.Ident]; !ok {
							c.errorf(diag.UnknownSymbol, arg.Line, arg.Col, "unknown field %q in condition", arg.Ident)
						}
					case p4r.ArgMblRef:
						if !c.mblDeclared(arg.Mbl) {
							c.errorf(diag.UndeclaredMbl, arg.Line, arg.Col, "reference to undeclared malleable ${%s} in condition", arg.Mbl)
						}
					}
				}
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(c.f.Ingress)
	walk(c.f.Egress)
}

func versionNote(malleable bool) string {
	if malleable {
		return " × 2 version copies"
	}
	return ""
}

// ---- Init-table capacity (M006) ----

func (c *checker) checkInitCapacity() {
	for _, mv := range c.f.MblValues {
		if mv.Width > c.lim.MaxInitActionBits {
			c.errorf(diag.InitCapacity, mv.Line, mv.Col,
				"malleable value %s (%d bits) exceeds the init-action capacity %d", mv.Name, mv.Width, c.lim.MaxInitActionBits)
		}
	}
	// Selector widths (ceil log2 of the alt count) are tiny; only a
	// pathological alt count could exceed the cap, but check anyway so
	// the invariant is complete.
	for _, mf := range c.f.MblFields {
		sel := 1
		for (1 << sel) < len(mf.Alts) {
			sel++
		}
		if sel > c.lim.MaxInitActionBits {
			c.errorf(diag.InitCapacity, mf.Line, mf.Col,
				"malleable field %s selector (%d bits) exceeds the init-action capacity %d", mf.Name, sel, c.lim.MaxInitActionBits)
		}
	}
	// The master init action also holds the version bits: vv when
	// anything is malleable, mv when a reaction polls. Reported at the
	// first reaction, whose mv bit is the one a capacity of 1 lacks.
	bits, line, col := 0, 0, 0
	for _, t := range c.f.Tables {
		if t.Malleable {
			bits = 1
		}
	}
	if len(c.f.MblValues)+len(c.f.MblFields) > 0 {
		bits = 1
	}
	if len(c.f.Reactions) > 0 {
		bits, line, col = bits+1, c.f.Reactions[0].Line, c.f.Reactions[0].Col
	}
	if bits > c.lim.MaxInitActionBits {
		c.errorf(diag.InitCapacity, line, col,
			"the master init action's %d version bits exceed the init-action capacity %d", bits, c.lim.MaxInitActionBits)
	}
}

// ---- Unused declarations (M002, M011 — warnings) ----

func (c *checker) checkUnused() {
	for _, mv := range c.f.MblValues {
		if !c.mblUsed[mv.Name] {
			c.warnf(diag.UnusedMbl, mv.Line, mv.Col, "malleable value %s is declared but never used", mv.Name)
		}
	}
	for _, mf := range c.f.MblFields {
		if !c.mblUsed[mf.Name] {
			c.warnf(diag.UnusedMbl, mf.Line, mf.Col, "malleable field %s is declared but never used", mf.Name)
		}
	}
	referenced := map[string]bool{}
	for _, t := range c.f.Tables {
		for _, an := range t.Actions {
			referenced[an] = true
		}
		if t.Default != nil {
			referenced[t.Default.Action] = true
		}
	}
	for _, a := range c.f.Actions {
		if !referenced[a.Name] {
			c.warnf(diag.UnreachableDecl, a.Line, a.Col,
				"action %s is not reachable from any table", a.Name).Hint =
				"add it to a table's actions block or delete it"
		}
	}
}

// ---- Reactions (M001, M003, M004, M005, M006, M007, M010, M014, L002) ----

func (c *checker) checkReactions() {
	for _, r := range c.f.Reactions {
		rx := &reactionScope{
			c:          c,
			r:          r,
			fieldParam: make(map[string]int),
			regParam:   make(map[string]bool),
			locals:     make(map[string]bool),
		}
		for _, p := range r.Params {
			switch p.Kind {
			case p4r.ParamIng, p4r.ParamEgr:
				if p.IsMbl {
					if !c.mblDeclared(p.Target) {
						c.errorf(diag.UndeclaredMbl, p.Line, p.Col,
							"reaction %s: reference to undeclared malleable ${%s}", r.Name, p.Target)
					}
					// The body reads it as a polled parameter of its width.
					rx.fieldParam[sanitize(p.Target)] = c.mblWidth(p.Target)
					continue
				}
				w, ok := c.fields[p.Target]
				if !ok {
					c.errorf(diag.UnknownSymbol, p.Line, p.Col, "reaction %s: unknown field parameter %q", r.Name, p.Target)
					continue
				}
				if w > c.lim.MeasSlotBits {
					c.errorf(diag.InitCapacity, p.Line, p.Col,
						"reaction %s: field %q (%d bits) exceeds the measurement slot width %d", r.Name, p.Target, w, c.lim.MeasSlotBits)
				}
				rx.fieldParam[sanitize(p.Target)] = w
			case p4r.ParamReg:
				reg, ok := c.registers[p.Target]
				if !ok {
					c.errorf(diag.UnknownSymbol, p.Line, p.Col, "reaction %s: unknown register parameter %q", r.Name, p.Target)
					continue
				}
				n := reg.InstanceCount
				if n == 0 {
					n = 1
				}
				if p.Hi >= 0 && p.Hi >= n {
					c.errorf(diag.RegSliceRange, p.Line, p.Col,
						"reaction %s: register %s[%d:%d] out of range (instance_count %d)", r.Name, p.Target, p.Lo, p.Hi, n)
				}
				rx.regParam[p.Target] = true
			}
		}
		rx.checkBody()
		// A body the agent could not lower is the program's error.
		if _, err := rcl.NewProgram(r.Stmts); err != nil {
			c.errorf(diag.LowerInvalid, r.Line, r.Col, "reaction %s: %v", r.Name, err)
		}
	}
}

// reactionScope tracks name bindings while walking one reaction body.
type reactionScope struct {
	c          *checker
	r          *p4r.Reaction
	fieldParam map[string]int // sanitized field-param var -> width
	regParam   map[string]bool
	locals     map[string]bool
}

// checkBody walks the reaction body the parser already parsed (a body
// that does not parse is a syntax error of the file).
func (rx *reactionScope) checkBody() {
	stmts := rx.r.Stmts
	// First collect every declared local (including statics and loop-init
	// declarations) so use-sites resolve regardless of order.
	var collect func(stmts []rcl.Stmt)
	collect = func(stmts []rcl.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case rcl.DeclStmt:
				for _, v := range st.Vars {
					rx.locals[v.Name] = true
				}
			case rcl.IfStmt:
				collect(st.Then)
				collect(st.Else)
			case rcl.WhileStmt:
				collect(st.Body)
			case rcl.ForStmt:
				if st.Init != nil {
					collect([]rcl.Stmt{st.Init})
				}
				collect(st.Body)
			}
		}
	}
	collect(stmts)
	rx.walkStmts(stmts)
}

func (rx *reactionScope) walkStmts(stmts []rcl.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case rcl.DeclStmt:
			for _, v := range st.Vars {
				if v.Init != nil {
					rx.walkExpr(v.Init)
				}
			}
		case rcl.ExprStmt:
			rx.walkExpr(st.E)
		case rcl.IfStmt:
			rx.walkExpr(st.Cond)
			rx.walkStmts(st.Then)
			rx.walkStmts(st.Else)
		case rcl.WhileStmt:
			rx.walkExpr(st.Cond)
			rx.walkStmts(st.Body)
		case rcl.ForStmt:
			if st.Init != nil {
				rx.walkStmts([]rcl.Stmt{st.Init})
			}
			if st.Cond != nil {
				rx.walkExpr(st.Cond)
			}
			if st.Post != nil {
				rx.walkExpr(st.Post)
			}
			rx.walkStmts(st.Body)
		case rcl.ReturnStmt:
			if st.E != nil {
				rx.walkExpr(st.E)
			}
		}
	}
}

func (rx *reactionScope) walkExpr(e rcl.Expr) {
	switch x := e.(type) {
	case rcl.VarRef:
		rx.checkRead(x.Name, x.Line)
	case rcl.MblExpr:
		if !rx.c.mblDeclared(x.Name) {
			rx.c.errorf(diag.UndeclaredMbl, bodyLine(rx.r, x.Line), 0,
				"reaction %s: reference to undeclared malleable ${%s}", rx.r.Name, x.Name)
		}
	case rcl.IndexExpr:
		rx.walkExpr(x.Base)
		rx.walkExpr(x.Idx)
	case rcl.UnaryExpr:
		if x.Op == "++" || x.Op == "--" {
			rx.checkWrite(x.X, x.Line, nil)
		}
		rx.walkExpr(x.X)
	case rcl.BinaryExpr:
		rx.checkCompareWidths(x)
		rx.walkExpr(x.L)
		rx.walkExpr(x.R)
	case rcl.TernaryExpr:
		rx.walkExpr(x.Cond)
		rx.walkExpr(x.T)
		rx.walkExpr(x.F)
	case rcl.AssignExpr:
		rx.checkWrite(x.Target, x.Line, x.Val)
		rx.walkExpr(x.Val)
		// The target's sub-expressions (array index) still count as reads.
		if ix, ok := x.Target.(rcl.IndexExpr); ok {
			rx.walkExpr(ix.Idx)
		}
	case rcl.CallExpr:
		rx.checkCall(x)
		for _, a := range x.Args {
			rx.walkExpr(a)
		}
	case rcl.TableCallExpr:
		rx.checkTableCall(x)
		for _, a := range x.Args {
			rx.walkExpr(a)
		}
	}
}

// checkCall reports a call of a builtin the host does not have, or one
// whose arguments cannot match its signature (rcl.Builtins). The
// interpreter's own builtins are checked when the body is lowered.
func (rx *reactionScope) checkCall(x rcl.CallExpr) {
	switch x.Name {
	case "min", "max", "abs", "len":
		return
	}
	line := bodyLine(rx.r, x.Line)
	b, ok := rcl.Builtins[x.Name]
	if !ok {
		rx.c.errorf(diag.UnknownSymbol, line, 0, "reaction %s: unknown builtin %q", rx.r.Name, x.Name)
		return
	}
	args := make([]rcl.Arg, len(x.Args))
	for i, a := range x.Args {
		_, args[i].IsStr = a.(rcl.StrLit)
	}
	if !b.Takes(args) {
		rx.c.errorf(diag.LowerInvalid, line, 0, "reaction %s: %s", rx.r.Name, b.Usage)
	}
}

// checkTableCall reports a table call the agent would refuse: on an
// unknown or non-malleable table (a reaction may write only a table with
// the vv column, §5.1.2), of an unknown method, or whose arguments do
// not fit the table: addEntry(key..., "action", data...),
// modEntry(handle, "action", data...) and delEntry(handle). Only a
// literal is a string, so where the action name stands is static.
func (rx *reactionScope) checkTableCall(x rcl.TableCallExpr) {
	line := bodyLine(rx.r, x.Line)
	t, ok := rx.c.tables[x.Table]
	if !ok {
		rx.c.errorf(diag.UnknownSymbol, line, 0, "reaction %s: table call on unknown table %q", rx.r.Name, x.Table)
		return
	}
	name := -1 // the action name's argument index
	switch x.Method {
	case "addEntry":
		name = len(t.Reads)
	case "modEntry":
		name = 1
	case "delEntry":
		if len(x.Args) != 1 {
			rx.c.errorf(diag.LowerInvalid, line, 0, "reaction %s: %s.delEntry takes one handle, got %d arguments", rx.r.Name, x.Table, len(x.Args))
		}
	default:
		rx.c.errorf(diag.UnknownSymbol, line, 0, "reaction %s: unknown table method %s.%s", rx.r.Name, x.Table, x.Method).Hint =
			"a table has addEntry, modEntry and delEntry"
		return
	}
	if !t.Malleable {
		rx.c.errorf(diag.WriteNonMbl, line, 0, "reaction %s: writes to table %s, which is not malleable", rx.r.Name, x.Table).Hint =
			"declare it `malleable table` so the reaction's writes are versioned"
	}
	for i, a := range x.Args {
		if _, isStr := a.(rcl.StrLit); isStr != (i == name) {
			what := "a number"
			if i == name {
				what = "the action name"
			}
			rx.c.errorf(diag.LowerInvalid, line, 0, "reaction %s: %s.%s: argument %d must be %s", rx.r.Name, x.Table, x.Method, i+1, what)
			return
		}
	}
	if name < 0 {
		return
	}
	if len(x.Args) <= name {
		rx.c.errorf(diag.LowerInvalid, line, 0, "reaction %s: %s.%s: argument %d must be the action name", rx.r.Name, x.Table, x.Method, name+1)
		return
	}
	action := x.Args[name].(rcl.StrLit).S
	a := rx.c.actions[action]
	if a == nil || !slices.Contains(t.Actions, action) {
		rx.c.errorf(diag.LowerInvalid, line, 0, "reaction %s: %s.%s: action %q is not one of table %s's actions",
			rx.r.Name, x.Table, x.Method, action, x.Table)
		return
	}
	if n := len(x.Args) - name - 1; n != len(a.Params) {
		rx.c.errorf(diag.LowerInvalid, line, 0, "reaction %s: %s.%s: action %s takes %d arguments, got %d",
			rx.r.Name, x.Table, x.Method, action, len(a.Params), n)
	}
}

// checkRead flags reads of register state the reaction did not poll. A
// polled register is snapshotted under the mv bit by the generated
// duplicate/mirror machinery (§5.2); reading any other register from the
// control plane races the data plane and breaks serializable isolation.
func (rx *reactionScope) checkRead(name string, line int) {
	if rx.locals[name] || rx.regParam[name] {
		return
	}
	if _, ok := rx.fieldParam[name]; ok {
		return
	}
	if _, isReg := rx.c.registers[name]; isReg {
		if rx.c.regWritten[name] {
			rx.c.errorf(diag.IsolationHazard, bodyLine(rx.r, line), 0,
				"reaction %s: reads register %s, which the data plane writes, without polling it", rx.r.Name, name).Hint =
				fmt.Sprintf("add `reg %s` to the reaction parameters so the compiler mv-protects it", name)
		} else {
			rx.c.errorf(diag.ReadBeforePoll, bodyLine(rx.r, line), 0,
				"reaction %s: reads register %s without polling it", rx.r.Name, name).Hint =
				fmt.Sprintf("add `reg %s` to the reaction parameters", name)
		}
	}
	if _, isReg := rx.c.registers[name]; !isReg {
		rx.undefined(name, line)
	}
}

// undefined reports a name the body neither declares nor has bound: a
// body sees only its locals, its statics and its parameters.
func (rx *reactionScope) undefined(name string, line int) {
	rx.c.errorf(diag.UnknownSymbol, bodyLine(rx.r, line), 0, "reaction %s: undefined name %s", rx.r.Name, name).Hint =
		"a body sees its locals and statics, and its parameters: a field f.g as f_g, a register or ${m} by its name"
}

// checkWrite flags writes through anything but a local variable or a
// declared malleable. Polled parameters are immutable snapshots (§4.2):
// assigning to them cannot reach the switch and indicates a confused
// program.
func (rx *reactionScope) checkWrite(target rcl.Expr, line int, val rcl.Expr) {
	switch t := target.(type) {
	case rcl.MblExpr:
		if !rx.c.mblDeclared(t.Name) {
			rx.c.errorf(diag.UndeclaredMbl, bodyLine(rx.r, line), 0,
				"reaction %s: write to undeclared malleable ${%s}", rx.r.Name, t.Name)
			return
		}
		rx.checkMblValueWidth(t.Name, line, val)
	case rcl.VarRef:
		if rx.locals[t.Name] {
			return
		}
		if _, ok := rx.fieldParam[t.Name]; ok {
			rx.c.errorf(diag.WriteNonMbl, bodyLine(rx.r, line), 0,
				"reaction %s: writes to polled field parameter %s", rx.r.Name, t.Name).Hint =
				"polled parameters are read-only snapshots; stage changes through a malleable"
			return
		}
		if rx.regParam[t.Name] || rx.c.registers[t.Name] != nil {
			rx.c.errorf(diag.WriteNonMbl, bodyLine(rx.r, line), 0,
				"reaction %s: writes to register %s", rx.r.Name, t.Name).Hint =
				"register snapshots are read-only; the data plane owns register state"
			return
		}
		rx.undefined(t.Name, line)
	case rcl.IndexExpr:
		if base, ok := t.Base.(rcl.VarRef); ok && !rx.locals[base.Name] {
			if rx.regParam[base.Name] || rx.c.registers[base.Name] != nil {
				rx.c.errorf(diag.WriteNonMbl, bodyLine(rx.r, line), 0,
					"reaction %s: writes to polled register %s", rx.r.Name, base.Name).Hint =
					"register snapshots are read-only; the data plane owns register state"
			} else if _, ok := rx.fieldParam[base.Name]; !ok {
				rx.undefined(base.Name, line)
			}
		}
	}
}

// checkMblValueWidth reports constant stores that cannot fit the
// malleable's declared width (M005).
func (rx *reactionScope) checkMblValueWidth(name string, line int, val rcl.Expr) {
	lit, ok := val.(rcl.NumLit)
	if !ok || lit.V < 0 {
		return
	}
	if mf, isField := rx.c.mblFields[name]; isField {
		if int(lit.V) >= len(mf.Alts) {
			rx.c.errorf(diag.WidthMismatch, bodyLine(rx.r, line), 0,
				"reaction %s: alt index %d out of range for malleable field %s (%d alts)", rx.r.Name, lit.V, name, len(mf.Alts))
		}
		return
	}
	if w := rx.c.mblWidth(name); w > 0 && w < 64 && uint64(lit.V) >= 1<<uint(w) {
		rx.c.errorf(diag.WidthMismatch, bodyLine(rx.r, line), 0,
			"reaction %s: constant %d does not fit malleable %s (width %d)", rx.r.Name, lit.V, name, w)
	}
}

// checkCompareWidths warns about comparisons of a polled field parameter
// against a constant that its width can never produce (M005): the branch
// is statically dead.
func (rx *reactionScope) checkCompareWidths(x rcl.BinaryExpr) {
	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
	default:
		return
	}
	ref, lit := x.L, x.R
	if _, ok := ref.(rcl.VarRef); !ok {
		ref, lit = x.R, x.L
	}
	v, okV := ref.(rcl.VarRef)
	n, okN := lit.(rcl.NumLit)
	if !okV || !okN || n.V < 0 {
		return
	}
	if w, ok := rx.fieldParam[v.Name]; ok && w < 64 && uint64(n.V) >= 1<<uint(w) {
		rx.c.warnf(diag.WidthMismatch, bodyLine(rx.r, x.Line), 0,
			"reaction %s: %s is %d bits wide and can never equal or exceed %d; comparison is constant", rx.r.Name, v.Name, w, n.V)
	}
}

// bodyLine is a body node's line in the file, or the reaction's own
// line for a node that carries none.
func bodyLine(r *p4r.Reaction, line int) int {
	if line <= 0 {
		return r.Line
	}
	return line
}

func sanitize(name string) string { return strings.ReplaceAll(name, ".", "_") }
