// Package p4 defines the intermediate representation of a P4-14 subset
// program: header/metadata layouts, match-action tables, actions built
// from primitive operations, stateful registers, hash calculations, and
// the ingress/egress control flow.
//
// A Program is the *static* artifact produced either directly (for
// hand-built baselines) or by the Mantis compiler from P4R source. It is
// immutable once built; runtime state (table entries, register contents,
// counters) lives in the RMT switch model (internal/rmt), which
// instantiates a Program the way loading a compiled P4 binary configures
// a switch ASIC.
package p4

import (
	"fmt"

	"repro/internal/packet"
)

// MatchKind is the match type of one table key column.
type MatchKind int

// Match kinds supported by RMT tables.
const (
	MatchExact MatchKind = iota
	MatchTernary
	MatchLPM
	MatchRange
)

func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	case MatchRange:
		return "range"
	}
	return fmt.Sprintf("MatchKind(%d)", int(k))
}

// MatchKey is one column of a table's match specification.
type MatchKey struct {
	FieldName string
	Field     packet.FieldID
	Width     int
	Kind      MatchKind
	// StaticMask, when non-zero, is ANDed with the packet field before
	// matching (the P4-14 `reads { f mask 0xff : ... }` qualifier).
	StaticMask uint64
}

// Table is a match-action table declaration.
type Table struct {
	Name string
	Keys []MatchKey
	// ActionNames lists the actions entries may invoke.
	ActionNames []string
	// DefaultAction runs on a miss; nil means no-op on miss.
	DefaultAction *ActionCall
	// Size is the declared capacity in entries (0 = unbounded).
	Size int
	// Malleable marks tables declared `malleable` in P4R source. The
	// Mantis compiler adds the vv version column to these.
	Malleable bool
}

// HasTernary reports whether any key column needs TCAM (ternary, lpm, or
// range matching).
func (t *Table) HasTernary() bool {
	for _, k := range t.Keys {
		if k.Kind != MatchExact {
			return true
		}
	}
	return false
}

// KeyWidthBits is the total width of all match columns.
func (t *Table) KeyWidthBits() int {
	w := 0
	for _, k := range t.Keys {
		w += k.Width
	}
	return w
}

// ActionCall names an action plus its bound data arguments (used for
// default actions and table entries).
type ActionCall struct {
	Action string
	Data   []uint64
}

// Param is a runtime action parameter supplied by table entries.
type Param struct {
	Name  string
	Width int
}

// Action is a named action: a parameter list and a primitive-op body.
type Action struct {
	Name   string
	Params []Param
	Body   []Primitive
}

// ParamWidthBits is the total width of all parameters (action data),
// which bounds how much configuration a single table entry can carry —
// the constraint that forces the Mantis compiler to split init tables.
func (a *Action) ParamWidthBits() int {
	w := 0
	for _, p := range a.Params {
		w += p.Width
	}
	return w
}

// Register is a stateful SRAM element: an array of Instances cells, each
// Width bits wide. In real RMT hardware a register lives in a single
// stage and is accessible once per packet; the rmt model enforces this
// when StrictStageAccess is enabled.
type Register struct {
	Name      string
	Width     int
	Instances int
}

// Bits is the total SRAM footprint of the register in bits.
func (r *Register) Bits() int { return r.Width * r.Instances }

// HashAlgo selects the hash function of a field-list calculation.
type HashAlgo int

// Supported hash algorithms.
const (
	HashCRC16 HashAlgo = iota
	HashCRC32
	HashIdentity
)

// HashCalc computes a hash over a list of fields; actions reference it by
// name (modify_field_with_hash_based_offset). Seed lets reactions rotate
// the function, and the field list itself may be rewritten by malleable
// fields (use case #3).
type HashCalc struct {
	Name   string
	Fields []packet.FieldID
	Algo   HashAlgo
	Width  int // output width in bits
}

// ControlStmt is one step in a control flow: apply a table or branch.
type ControlStmt interface{ controlStmt() }

// Apply applies the named table to the packet.
type Apply struct{ Table string }

// If branches the control flow on a field comparison.
type If struct {
	Cond CondExpr
	Then []ControlStmt
	Else []ControlStmt
}

func (Apply) controlStmt() {}
func (If) controlStmt()    {}

// CmpOp is a comparison operator in control-flow conditions.
type CmpOp int

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// CondExpr compares a field against a field or constant.
type CondExpr struct {
	Left  Operand
	Op    CmpOp
	Right Operand
}

// Program is a complete P4 program ready to load into a switch model.
type Program struct {
	Name   string
	Schema *packet.Schema

	Actions   map[string]*Action
	Tables    map[string]*Table
	Registers map[string]*Register
	Hashes    map[string]*HashCalc

	// TableOrder and RegisterOrder preserve declaration order for
	// deterministic stage allocation and printing.
	TableOrder    []string
	RegisterOrder []string

	Ingress []ControlStmt
	Egress  []ControlStmt
}

// NewProgram returns an empty program with a fresh schema.
func NewProgram(name string) *Program {
	return &Program{
		Name:      name,
		Schema:    packet.NewSchema(),
		Actions:   make(map[string]*Action),
		Tables:    make(map[string]*Table),
		Registers: make(map[string]*Register),
		Hashes:    make(map[string]*HashCalc),
	}
}

// AddAction registers an action; duplicate names panic (compiler bug).
func (p *Program) AddAction(a *Action) *Action {
	if _, dup := p.Actions[a.Name]; dup {
		panic(fmt.Sprintf("p4: duplicate action %q", a.Name))
	}
	p.Actions[a.Name] = a
	return a
}

// AddTable registers a table; duplicate names panic.
func (p *Program) AddTable(t *Table) *Table {
	if _, dup := p.Tables[t.Name]; dup {
		panic(fmt.Sprintf("p4: duplicate table %q", t.Name))
	}
	p.Tables[t.Name] = t
	p.TableOrder = append(p.TableOrder, t.Name)
	return t
}

// AddRegister registers a stateful register; duplicate names panic.
func (p *Program) AddRegister(r *Register) *Register {
	if _, dup := p.Registers[r.Name]; dup {
		panic(fmt.Sprintf("p4: duplicate register %q", r.Name))
	}
	p.Registers[r.Name] = r
	p.RegisterOrder = append(p.RegisterOrder, r.Name)
	return r
}

// AddHash registers a hash calculation; duplicate names panic.
func (p *Program) AddHash(h *HashCalc) *HashCalc {
	if _, dup := p.Hashes[h.Name]; dup {
		panic(fmt.Sprintf("p4: duplicate hash calculation %q", h.Name))
	}
	p.Hashes[h.Name] = h
	return h
}

// Validate checks cross-references: every table action exists, every
// field/register/hash referenced by actions and control flow is defined,
// and control flow applies only declared tables.
func (p *Program) Validate() error {
	for _, name := range p.TableOrder {
		t := p.Tables[name]
		for _, an := range t.ActionNames {
			if _, ok := p.Actions[an]; !ok {
				return fmt.Errorf("table %s: unknown action %q", name, an)
			}
		}
		if d := t.DefaultAction; d != nil {
			a, ok := p.Actions[d.Action]
			if !ok {
				return fmt.Errorf("table %s: unknown default action %q", name, d.Action)
			}
			if len(d.Data) != len(a.Params) {
				return fmt.Errorf("table %s: default action %q takes %d args, got %d",
					name, d.Action, len(a.Params), len(d.Data))
			}
		}
		for _, k := range t.Keys {
			if k.Field < 0 || int(k.Field) >= p.Schema.NumFields() {
				return fmt.Errorf("table %s: match key %q not resolved", name, k.FieldName)
			}
		}
	}
	for _, a := range p.Actions {
		for i, prim := range a.Body {
			if err := prim.check(p, a); err != nil {
				return fmt.Errorf("action %s, op %d: %w", a.Name, i, err)
			}
		}
	}
	var checkFlow func(stmts []ControlStmt) error
	checkFlow = func(stmts []ControlStmt) error {
		for _, s := range stmts {
			switch st := s.(type) {
			case Apply:
				if _, ok := p.Tables[st.Table]; !ok {
					return fmt.Errorf("control flow applies unknown table %q", st.Table)
				}
			case If:
				if err := checkFlow(st.Then); err != nil {
					return err
				}
				if err := checkFlow(st.Else); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown control statement %T", s)
			}
		}
		return nil
	}
	if err := checkFlow(p.Ingress); err != nil {
		return fmt.Errorf("ingress: %w", err)
	}
	if err := checkFlow(p.Egress); err != nil {
		return fmt.Errorf("egress: %w", err)
	}
	return nil
}
