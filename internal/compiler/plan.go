// Package compiler implements the Mantis compiler: it lowers a parsed
// P4R file (internal/p4r) into
//
//  1. a valid, malleable p4.Program — with the transformations of §4 and
//     §5 of the paper applied: init tables for malleable values/fields
//     (Fig. 4), alt-selector metadata and action specialization for
//     malleable field writes and reads (Figs. 5, 6), measurement
//     registers with mv-gated working/checkpoint copies (Fig. 9, §4.2),
//     register duplication with timestamp registers (§5.2), and the vv
//     version column on malleable tables (§5.1.2); and
//
//  2. a Plan describing every generated artifact, which the Mantis agent
//     (internal/core) uses at runtime to drive the prologue/dialogue
//     loop, expand user table entries, and bind reaction parameters.
package compiler

import (
	"repro/internal/compiler/place"
	"repro/internal/p4"
	"repro/internal/p4r"
	"repro/internal/p4r/diag"
	"repro/internal/rcl"
	"repro/internal/rmt"
)

// Generated object name constants.
const (
	MetaPrefix = "p4r_meta_."
	// VVField is the 1-bit configuration version bit (§5.1).
	VVField = MetaPrefix + "vv_"
	// MVField is the 1-bit measurement version bit (§5.2).
	MVField = MetaPrefix + "mv_"
)

// Plan is everything the agent needs to operate the generated program.
type Plan struct {
	Prog *p4.Program
	// SourceLines is the non-blank line count of the input P4R (Table 1).
	SourceLines int

	MblValues map[string]*MblValueInfo
	MblFields map[string]*MblFieldInfo
	// InitTables are the packed init tables; element 0 is the master
	// (holds vv and mv).
	InitTables []*InitTableInfo

	MblTables map[string]*MblTableInfo

	Reactions []*ReactionInfo

	// StaticEntries are fixed entries the prologue installs once
	// (carrier-loader tables for malleable fields used in field lists).
	StaticEntries []StaticEntry

	// UsesVV/UsesMV report whether the program carries version bits.
	UsesVV bool
	UsesMV bool

	// Diags holds the semantic analyzer's findings for this compile
	// (warnings included even when compilation succeeds), plus the
	// placement findings.
	Diags *diag.List

	// Placement is the RMT stage assignment under the Options.Target
	// profile (the unbounded one when Target is empty). It is the
	// program's one resource model: stage counts and SRAM/TCAM totals
	// are read from it.
	Placement *place.Placement

	// file and opts are what the plan was compiled from, for CheckBody.
	file *p4r.File
	opts Options
}

// MblValueInfo describes one malleable value.
type MblValueInfo struct {
	Name string
	// MetaField is the generated metadata field carrying the value.
	MetaField string
	Width     int
	Init      uint64
}

// MblFieldInfo describes one malleable field.
type MblFieldInfo struct {
	Name string
	// Selector is the generated alt-selector metadata field
	// (width ceil(log2(|alts|))).
	Selector string
	Width    int
	// Alts are the alternative field names; InitAlt indexes the initial.
	Alts    []string
	InitAlt int
	// Carrier, if non-empty, is the metadata field loaded with the
	// current alternative's value at the start of the pipeline (the §4.1
	// "load values in prior stages" optimization, used for field lists).
	Carrier string
	// LoaderTable is the table loading Carrier, if any.
	LoaderTable string
}

// InitParamKind classifies init-table action parameters.
type InitParamKind int

// Init parameter kinds.
const (
	InitValue InitParamKind = iota // malleable value
	InitField                      // malleable field selector
	InitVV                         // configuration version bit
	InitMV                         // measurement version bit
)

// InitParam is one parameter of a packed init action.
type InitParam struct {
	Kind InitParamKind
	// Mbl is the malleable name for InitValue/InitField.
	Mbl   string
	Width int
	// Init is the initial numeric value (value, alt index, or 0).
	Init uint64
}

// InitTableInfo is one generated init table. The master (index 0) has no
// match keys and is updated atomically via its default action; the
// others match on vv and are maintained as malleable tables (§5.1.1).
type InitTableInfo struct {
	Table  string
	Action string
	Params []InitParam
}

// MblTableInfo is the generated layout of a table that is malleable or
// expanded over malleable fields (§4.1, Figs. 5–6; §5.1.2). Its
// generated key columns are
//
//	[expanded user columns...] [selector columns...] [vv column]
//
// where a plain user column occupies one generated column, a
// malleable-field user column one ternary column per alternative, and
// the selector columns follow p4r.ExpandedOver's order.
type MblTableInfo struct {
	Table string
	// VVCol is the generated vv column (the last), or -1 for a table
	// that is not malleable and so has no vv column.
	VVCol int
	// Combos lists the combinations of the table's malleable-field
	// alternatives in install order: by selector column, the last field
	// fastest. A table without malleable fields has one. Every user
	// entry is installed once per combination, in this order, in each
	// vv copy; the agent reads it (core's tableManager), nothing else
	// re-derives it.
	Combos []Combo
}

// Combo is one combination of a table's malleable-field alternatives:
// where a user entry's keys go and which action it runs there.
type Combo struct {
	// Keys is the generated key row before a user entry fills it: each
	// selector column holds its field's alternative index, exact, and
	// every other column is a wildcard.
	Keys []rmt.KeySpec
	// KeyCol[i] is the generated column that carries user key i: its
	// field's column, or the combination's alternative's column of a
	// malleable field.
	KeyCol []int
	// Variant maps each listed user action that specialises over
	// malleable fields to its generated action for this combination;
	// nil when no listed action does.
	Variant map[string]string
}

// Action returns the generated action combination c runs for user
// action a.
func (c *Combo) Action(a string) string {
	if v, ok := c.Variant[a]; ok {
		return v
	}
	return a
}

// SlotField places one reaction field parameter inside a packed
// measurement register slot.
type SlotField struct {
	// Param is the P4R-visible parameter name (e.g. "ipv4.srcAddr").
	Param string
	// Var is the identifier bound in the reaction body ('.' -> '_').
	Var   string
	Width int
	Shift int // bit offset within the 64-bit slot
}

// MeasSlot is one generated 64-bit measurement register with two
// mv-gated instances (index mv = working copy).
type MeasSlot struct {
	Register string
	Fields   []SlotField
}

// RegParamInfo describes a duplicated user register parameter.
type RegParamInfo struct {
	// Orig is the user register; Dup and Ts are the generated duplicate
	// and timestamp registers, each with 2*PaddedN instances.
	Orig string
	Dup  string
	Ts   string
	// Var is the bound array variable name in the reaction body.
	Var string
	// Lo..Hi is the polled index range (inclusive).
	Lo, Hi int
	// N is the original instance count, PaddedN the power-of-two padding
	// used for the mv-prefixed dup index.
	N       int
	PaddedN int
}

// MblParamInfo is a malleable read parameter (its last-written value is
// passed into the body).
type MblParamInfo struct {
	Name string
	Var  string
}

// ReactionInfo is one reaction's runtime description.
type ReactionInfo struct {
	Name string
	// Body is the reaction's source text and Stmts its statements, parsed
	// once with the program; each agent builds its Program from Stmts.
	Body  string
	Stmts []rcl.Stmt
	// IngSlots/EgrSlots are packed measurement registers written at the
	// end of the respective pipeline.
	IngSlots  []MeasSlot
	EgrSlots  []MeasSlot
	RegParams []RegParamInfo
	MblParams []MblParamInfo
}

// StaticEntry is an entry the prologue installs verbatim.
type StaticEntry struct {
	Table string
	Entry rmt.Entry
}
