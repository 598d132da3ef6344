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
	"repro/internal/p4r/diag"
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
	// InitOrder lists init-parameter names in packed order; element 0 of
	// InitTables is the master (holds vv and mv).
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
	// (warnings included even when compilation succeeds), plus any
	// placement findings when Options.Target was set.
	Diags *diag.List

	// Placement is the RMT stage assignment computed when
	// Options.Target was set; nil otherwise.
	Placement *place.Placement
}

// MblValueInfo describes one malleable value.
type MblValueInfo struct {
	Name string
	// MetaField is the generated metadata field carrying the value.
	MetaField string
	Width     int
	Init      uint64
	// InitTable / ParamIdx locate the value's slot in the packed init
	// tables.
	InitTable int
	ParamIdx  int
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
	InitTable   int
	ParamIdx    int
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
	Master bool
}

// UserKey describes one user-visible key column of a malleable table,
// before vv and alt expansion.
type UserKey struct {
	// FieldName is the concrete field, or "" when MblField is set.
	FieldName string
	MatchType string
	// MblField names the malleable field matched by this column; the
	// generated table carries |alts| ternary columns plus the selector.
	MblField string
	Width    int
}

// MblTableInfo maps a malleable table's user-visible schema onto the
// generated table layout. Generated column order is:
//
//	[expanded user columns...] [selector columns...] [vv column]
//
// where a plain user column occupies one generated column and a
// malleable-field user column occupies |alts| ternary columns (its
// selector column is appended in order of first use).
type MblTableInfo struct {
	Table string
	Keys  []UserKey
	// GenKeyCount is the number of generated key columns.
	GenKeyCount int
	// ColOffset[i] is the first generated column of user key i.
	ColOffset []int
	// SelectorCol maps malleable field name -> generated selector column.
	SelectorCol map[string]int
	// VVCol is the generated vv column index (last).
	VVCol int
	// ActionSpec maps a user action name to its specialization layout.
	ActionSpec map[string]*ActionSpecInfo
}

// ActionSpecInfo records how a user action was specialized over the
// malleable fields it uses.
type ActionSpecInfo struct {
	// Fields are the malleable fields the action uses, in specialization
	// order (outermost first).
	Fields []string
	// AltCounts[i] is len(alts) of Fields[i].
	AltCounts []int
	// Variant returns the generated action name for a combination of alt
	// indices (row-major over AltCounts); stored flattened.
	Variants []string
}

// VariantFor returns the generated action name for the given alt
// indices (one per specialized field; empty if the action was not
// specialized).
func (a *ActionSpecInfo) VariantFor(alts []int) string {
	idx := 0
	for i, ai := range alts {
		idx = idx*a.AltCounts[i] + ai
	}
	return a.Variants[idx]
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
	Body string
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
