package compiler

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/compiler/place"
	"repro/internal/p4"
	"repro/internal/p4r"
	"repro/internal/p4r/analysis"
	"repro/internal/p4r/diag"
	"repro/internal/rcl"
	"repro/internal/rmt"
)

// Options tunes platform-dependent compilation limits.
type Options struct {
	// ProgramName names the generated program.
	ProgramName string
	// MaxInitActionBits is the maximum total parameter width of a single
	// init action; exceeding it splits the init table (§5.1.1). Real
	// targets allow very large actions; tests shrink this to exercise
	// the multi-init-table protocol.
	MaxInitActionBits int
	// MeasSlotBits is the width of packed measurement registers.
	MeasSlotBits int
	// MaxTableEntries bounds the generated entry count of one table
	// after alt expansion and version doubling (checked by the semantic
	// analyzer). Zero means the default platform limit.
	MaxTableEntries int
	// Werror promotes analyzer warnings to errors (mantisc -Werror).
	Werror bool
	// Target names the switch profile the RMT placement pass charges
	// the program against after lowering: a place registry name or a
	// JSON profile path. Placement always runs; empty (or "none")
	// selects the unbounded profile, which assigns stages and checks
	// single-stage register access but enforces no budget, so library
	// callers that compile deliberately oversized programs (the Fig. 13
	// resource sweeps) stay unconstrained unless they opt in.
	Target string
}

// DefaultOptions returns production-like limits.
func DefaultOptions() Options {
	return Options{ProgramName: "p4r", MaxInitActionBits: 512, MeasSlotBits: 64}
}

type compiler struct {
	f    *p4r.File
	opts Options
	prog *p4.Program
	plan *Plan

	// fieldDecls and actions index the file's malleable fields and
	// actions for p4r's expansion functions; variants lists each
	// specialised action's generated variants in combos order.
	fieldDecls map[string]*p4r.MblField
	actions    map[string]*p4r.ActionDecl
	variants   map[string][]string
}

// Compile lowers a parsed P4R file into a program + plan and places it
// under the opts.Target profile. When the generated program does not
// place, Compile returns the plan (with Plan.Placement populated, so
// callers can render the stage map) alongside the non-nil diagnostic
// error.
func Compile(f *p4r.File, opts Options) (*Plan, error) {
	if opts.MaxInitActionBits == 0 {
		opts.MaxInitActionBits = 512
	}
	if opts.MeasSlotBits == 0 {
		opts.MeasSlotBits = 64
	}
	if opts.ProgramName == "" {
		opts.ProgramName = "p4r"
	}
	c := &compiler{
		f:          f,
		opts:       opts,
		prog:       p4.NewProgram(opts.ProgramName),
		fieldDecls: make(map[string]*p4r.MblField),
		actions:    make(map[string]*p4r.ActionDecl),
		variants:   make(map[string][]string),
	}
	for _, mf := range f.MblFields {
		c.fieldDecls[mf.Name] = mf
	}
	for _, a := range f.Actions {
		c.actions[a.Name] = a
	}
	c.plan = &Plan{
		file:      f,
		opts:      opts,
		Prog:      c.prog,
		MblValues: make(map[string]*MblValueInfo),
		MblFields: make(map[string]*MblFieldInfo),
		MblTables: make(map[string]*MblTableInfo),
	}
	// The semantic analyzer alone decides whether the program is valid,
	// collect-all, so a broken program reports every problem and the
	// lowering below is a plain translation that cannot fail.
	diags := analyze(f, opts)
	c.plan.Diags = diags
	if diags.HasErrors() {
		return nil, diags
	}
	steps := []func(){
		c.defineSchema,
		c.defineRegisters,
		c.defineMalleables,
		c.packInitTables,
		c.lowerFieldLists,
		c.lowerActions,
		c.lowerTables,
		c.lowerReactions,
		c.buildControlFlow,
	}
	for _, step := range steps {
		step()
	}
	if err := c.prog.Validate(); err != nil {
		return nil, diag.Errorf(diag.LowerInternal, 0, 0, "generated program invalid: %v", err)
	}
	prof, derr := place.Find(opts.Target)
	if derr != nil {
		c.plan.Diags.Add(derr)
		return nil, c.plan.Diags
	}
	pl := place.Place(c.prog, prof, place.Options{Pos: c.placementPositions()})
	c.plan.Placement = pl
	c.plan.Diags.Merge(pl.Diags)
	if pl.Diags.HasErrors() {
		return c.plan, c.plan.Diags
	}
	return c.plan, nil
}

// analyze runs the semantic analyzer on f under opts' limits.
func analyze(f *p4r.File, opts Options) *diag.List {
	diags := analysis.Analyze(f, analysis.Limits{
		MaxInitActionBits: opts.MaxInitActionBits,
		MeasSlotBits:      opts.MeasSlotBits,
		MaxTableEntries:   opts.MaxTableEntries,
	})
	if opts.Werror {
		diags.Promote()
	}
	return diags
}

// CheckBody checks body as reaction name's body in the compiled program,
// the way Compile's analyzer checked the program's own, and returns its
// statements, or the analyzer's diagnostics. The other reactions keep
// the bodies they were compiled with.
func (p *Plan) CheckBody(name, body string) ([]rcl.Stmt, error) {
	i := slices.IndexFunc(p.file.Reactions, func(r *p4r.Reaction) bool { return r.Name == name })
	if i < 0 {
		return nil, diag.Errorf(diag.UnknownSymbol, 0, 0, "no reaction %q", name)
	}
	stmts, err := rcl.ParseBody(body)
	if err != nil {
		return nil, err
	}
	f, r := *p.file, *p.file.Reactions[i]
	r.Body, r.Stmts = body, stmts
	f.Reactions = slices.Clone(f.Reactions)
	f.Reactions[i] = &r
	if diags := analyze(&f, p.opts); diags.HasErrors() {
		return nil, diags
	}
	return stmts, nil
}

// placementPositions maps lowered table and register names back to P4R
// source positions for placement diagnostics. Compiler-generated state
// points at the declaration that caused it: measurement tables and
// registers at their reaction, duplicate/timestamp registers at the
// original register. Init and loader tables carry no position.
func (c *compiler) placementPositions() map[string]place.Pos {
	pos := make(map[string]place.Pos)
	for _, t := range c.f.Tables {
		pos[t.Name] = place.Pos{Line: t.Line, Col: t.Col}
	}
	for _, r := range c.f.Registers {
		pos[r.Name] = place.Pos{Line: r.Line, Col: r.Col}
	}
	rxnPos := make(map[string]place.Pos, len(c.f.Reactions))
	for _, r := range c.f.Reactions {
		rxnPos[r.Name] = place.Pos{Line: r.Line, Col: r.Col}
	}
	for _, rxn := range c.plan.Reactions {
		p := rxnPos[rxn.Name]
		if len(rxn.IngSlots) > 0 {
			pos[measTableName(rxn.Name, "ing")] = p
		}
		if len(rxn.EgrSlots) > 0 {
			pos[measTableName(rxn.Name, "egr")] = p
		}
		for _, slot := range rxn.IngSlots {
			pos[slot.Register] = p
		}
		for _, slot := range rxn.EgrSlots {
			pos[slot.Register] = p
		}
		for _, rp := range rxn.RegParams {
			pos[rp.Dup] = pos[rp.Orig]
			pos[rp.Ts] = pos[rp.Orig]
		}
	}
	return pos
}

// CompileSource parses and compiles P4R source text, recording the
// source's non-blank line count (the Table-1 "P4R LoC" metric). Like
// Compile, a placement failure returns the plan alongside the error.
func CompileSource(src string, opts Options) (*Plan, error) {
	f, err := p4r.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, cerr := Compile(f, opts)
	if plan == nil {
		return nil, cerr
	}
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	plan.SourceLines = n
	return plan, cerr
}

func ceilLog2(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func sanitize(name string) string { return strings.ReplaceAll(name, ".", "_") }

// ---- Step 1: schema ----

func (c *compiler) defineSchema() {
	c.prog.DefineStandardMetadata()
	headerTypes := make(map[string]*p4r.HeaderType, len(c.f.HeaderTypes))
	for _, ht := range c.f.HeaderTypes {
		headerTypes[ht.Name] = ht
	}
	for _, inst := range c.f.Instances {
		for _, fd := range headerTypes[inst.TypeName].Fields {
			c.prog.Schema.Define(inst.Name+"."+fd.Name, fd.Width)
		}
	}
}

func (c *compiler) defineRegisters() {
	for _, r := range c.f.Registers {
		c.prog.AddRegister(&p4.Register{Name: r.Name, Width: r.Width, Instances: r.InstanceCount})
	}
}

// ---- Step 2: malleable declarations ----

func (c *compiler) defineMalleables() {
	for _, mv := range c.f.MblValues {
		meta := MetaPrefix + mv.Name
		c.prog.Schema.Define(meta, mv.Width)
		c.plan.MblValues[mv.Name] = &MblValueInfo{
			Name: mv.Name, MetaField: meta, Width: mv.Width, Init: mv.Init,
		}
	}
	for _, mf := range c.f.MblFields {
		selWidth := ceilLog2(len(mf.Alts))
		if selWidth == 0 {
			selWidth = 1
		}
		sel := MetaPrefix + mf.Name + "_alt"
		c.prog.Schema.Define(sel, selWidth)
		c.plan.MblFields[mf.Name] = &MblFieldInfo{
			Name: mf.Name, Selector: sel, Width: mf.Width,
			Alts: append([]string(nil), mf.Alts...), InitAlt: mf.InitAltIndex(),
		}
	}
	// Version bits exist whenever there is anything dynamic to version.
	if len(c.f.MblValues)+len(c.f.MblFields)+len(c.f.Tables) > 0 || len(c.f.Reactions) > 0 {
		hasMblTable := false
		for _, t := range c.f.Tables {
			if t.Malleable {
				hasMblTable = true
			}
		}
		c.plan.UsesVV = hasMblTable || len(c.f.MblValues)+len(c.f.MblFields) > 0
		c.plan.UsesMV = len(c.f.Reactions) > 0
		if c.plan.UsesVV {
			c.prog.Schema.Define(VVField, 1)
		}
		if c.plan.UsesMV {
			c.prog.Schema.Define(MVField, 1)
		}
	}
}

// ---- Step 3: init-table bin packing (§4.1 compound usages) ----

// firstFitDecreasing packs items into bins of capacity capBits using the
// paper's sorted-first-fit heuristic. reserved items are pinned to bin 0
// (the master init table must hold the version bits).
func firstFitDecreasing(reserved, items []InitParam, capBits int) [][]InitParam {
	sorted := append([]InitParam(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Width != sorted[j].Width {
			return sorted[i].Width > sorted[j].Width
		}
		return sorted[i].Mbl < sorted[j].Mbl
	})
	bins := [][]InitParam{append([]InitParam(nil), reserved...)}
	used := []int{0}
	for _, p := range reserved {
		used[0] += p.Width
	}
	for _, it := range sorted {
		placed := false
		for b := range bins {
			if used[b]+it.Width <= capBits {
				bins[b] = append(bins[b], it)
				used[b] += it.Width
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, []InitParam{it})
			used = append(used, it.Width)
		}
	}
	return bins
}

func (c *compiler) packInitTables() {
	var reserved, items []InitParam
	if c.plan.UsesVV {
		reserved = append(reserved, InitParam{Kind: InitVV, Width: 1})
	}
	if c.plan.UsesMV {
		reserved = append(reserved, InitParam{Kind: InitMV, Width: 1})
	}
	for _, mv := range c.f.MblValues {
		items = append(items, InitParam{Kind: InitValue, Mbl: mv.Name, Width: mv.Width, Init: mv.Init})
	}
	for _, mf := range c.f.MblFields {
		info := c.plan.MblFields[mf.Name]
		selWidth := c.prog.Schema.Width(c.prog.Schema.MustID(info.Selector))
		items = append(items, InitParam{Kind: InitField, Mbl: mf.Name, Width: selWidth, Init: uint64(info.InitAlt)})
	}
	if len(reserved)+len(items) == 0 {
		return
	}
	bins := firstFitDecreasing(reserved, items, c.opts.MaxInitActionBits)

	for b, bin := range bins {
		tname := fmt.Sprintf("p4r_init%d_", b+1)
		aname := fmt.Sprintf("p4r_init_action_%d_", b+1)
		action := &p4.Action{Name: aname}
		for _, ip := range bin {
			var meta, pname string
			switch ip.Kind {
			case InitVV:
				meta, pname = VVField, "config_ver"
			case InitMV:
				meta, pname = MVField, "measure_ver"
			case InitValue:
				meta, pname = c.plan.MblValues[ip.Mbl].MetaField, ip.Mbl
			case InitField:
				meta, pname = c.plan.MblFields[ip.Mbl].Selector, ip.Mbl+"_alt"
			}
			pidx := len(action.Params)
			action.Params = append(action.Params, p4.Param{Name: pname, Width: ip.Width})
			action.Body = append(action.Body, p4.ModifyField{
				Dst: c.prog.Schema.MustID(meta), DstName: meta, Src: p4.ParamOp(pidx, pname),
			})
		}
		c.prog.AddAction(action)
		tbl := &p4.Table{Name: tname, ActionNames: []string{aname}, Size: 2}
		if b == 0 {
			// Master: no keys; configured via an atomically-updatable
			// default action.
			initData := make([]uint64, len(bin))
			for i, ip := range bin {
				initData[i] = ip.Init
			}
			tbl.Size = 1
			tbl.DefaultAction = &p4.ActionCall{Action: aname, Data: initData}
		} else {
			// Non-master init tables match on vv and are maintained like
			// malleable tables (two entries, three-phase updates).
			vvID := c.prog.Schema.MustID(VVField)
			tbl.Keys = []p4.MatchKey{{FieldName: VVField, Field: vvID, Width: 1, Kind: p4.MatchExact}}
		}
		c.prog.AddTable(tbl)
		c.plan.InitTables = append(c.plan.InitTables, &InitTableInfo{
			Table: tname, Action: aname, Params: bin,
		})
	}
}

// ---- Step 4: field lists and hash calculations ----

// carrierFor ensures a malleable field has a carrier metadata field and
// loader table (the "load values in prior stages" optimization), and
// returns the carrier field name.
func (c *compiler) carrierFor(mblName string) string {
	info := c.plan.MblFields[mblName]
	if info.Carrier != "" {
		return info.Carrier
	}
	carrier := MetaPrefix + mblName + "_val"
	c.prog.Schema.Define(carrier, info.Width)
	info.Carrier = carrier

	loader := "p4r_load_" + mblName + "_"
	info.LoaderTable = loader
	selID := c.prog.Schema.MustID(info.Selector)
	var actionNames []string
	for i, alt := range info.Alts {
		an := fmt.Sprintf("p4r_load_%s_%d_", mblName, i)
		c.prog.AddAction(&p4.Action{
			Name: an,
			Body: []p4.Primitive{p4.ModifyField{
				Dst: c.prog.Schema.MustID(carrier), DstName: carrier,
				Src: p4.FieldOp(c.prog.Schema.MustID(alt), alt),
			}},
		})
		actionNames = append(actionNames, an)
		c.plan.StaticEntries = append(c.plan.StaticEntries, StaticEntry{
			Table: loader,
			Entry: rmt.Entry{
				Keys:   []rmt.KeySpec{rmt.ExactKey(uint64(i))},
				Action: an,
			},
		})
	}
	c.prog.AddTable(&p4.Table{
		Name:        loader,
		Keys:        []p4.MatchKey{{FieldName: info.Selector, Field: selID, Width: c.prog.Schema.Width(selID), Kind: p4.MatchExact}},
		ActionNames: actionNames,
		Size:        len(info.Alts),
	})
	return carrier
}

func (c *compiler) lowerFieldLists() {
	lists := make(map[string][]string) // field list name -> resolved field names
	for _, fl := range c.f.FieldLists {
		var fields []string
		for _, e := range fl.Entries {
			switch {
			case e.Kind == p4r.ArgIdent:
				fields = append(fields, e.Ident)
			case c.plan.MblValues[e.Mbl] != nil:
				fields = append(fields, c.plan.MblValues[e.Mbl].MetaField)
			default:
				fields = append(fields, c.carrierFor(e.Mbl))
			}
		}
		lists[fl.Name] = fields
	}
	for _, calc := range c.f.Calcs {
		width := calc.OutputWidth
		if width == 0 {
			width = 16
		}
		h := &p4.HashCalc{Name: calc.Name, Algo: hashAlgos[calc.Algorithm], Width: width}
		for _, fn := range lists[calc.Input] {
			h.Fields = append(h.Fields, c.prog.Schema.MustID(fn))
		}
		c.prog.AddHash(h)
	}
}

var hashAlgos = map[string]p4.HashAlgo{
	"crc16": p4.HashCRC16, "crc32": p4.HashCRC32, "identity": p4.HashIdentity,
}
