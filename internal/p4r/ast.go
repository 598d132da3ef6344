package p4r

// File is the parsed representation of one .p4r source file.
type File struct {
	HeaderTypes []*HeaderType
	Instances   []*Instance
	Registers   []*RegisterDecl
	FieldLists  []*FieldList
	Calcs       []*FieldListCalc
	Actions     []*ActionDecl
	Tables      []*TableDecl
	MblValues   []*MblValue
	MblFields   []*MblField
	Reactions   []*Reaction
	Ingress     []Stmt
	Egress      []Stmt
}

// HeaderType declares a header layout.
type HeaderType struct {
	Name   string
	Fields []FieldDef
	Line   int
	Col    int
}

// FieldDef is one field of a header type.
type FieldDef struct {
	Name  string
	Width int
}

// Instance instantiates a header type as a packet header or metadata.
type Instance struct {
	TypeName string
	Name     string
	Metadata bool
	Line     int
	Col      int
}

// RegisterDecl declares a stateful register array.
type RegisterDecl struct {
	Name          string
	Width         int
	InstanceCount int
	Line          int
	Col           int
}

// FieldList names an ordered list of fields (possibly malleable refs).
type FieldList struct {
	Name    string
	Entries []Arg
	Line    int
	Col     int
}

// FieldListCalc declares a hash over a field list.
type FieldListCalc struct {
	Name        string
	Input       string
	Algorithm   string
	OutputWidth int
	Line        int
	Col         int
}

// ArgKind discriminates Arg variants.
type ArgKind int

// Arg kinds: a (possibly dotted) identifier, a numeric literal, or a
// ${...} malleable reference.
const (
	ArgIdent ArgKind = iota
	ArgConst
	ArgMblRef
)

// Arg is an argument in an action call, table read, field list, or
// condition. Identifier resolution (action parameter vs header field)
// happens during compilation, once the enclosing action's parameter list
// is known.
type Arg struct {
	Kind  ArgKind
	Ident string
	Value uint64
	Mbl   string
	Line  int
	Col   int
}

// PrimCall is one primitive invocation in an action body.
type PrimCall struct {
	Name string
	Args []Arg
	Line int
	Col  int
}

// ActionDecl declares a compound action.
type ActionDecl struct {
	Name   string
	Params []string
	Body   []PrimCall
	Line   int
	Col    int
}

// ReadKey is one column of a table's reads block.
type ReadKey struct {
	Target    Arg // ArgIdent field or ArgMblRef
	MatchType string
	// Mask is the static mask of a `f mask 0x..` read (HasMask set).
	Mask    uint64
	HasMask bool
	Line    int
	Col     int
}

// DefaultCall is a table's default action with constant arguments.
type DefaultCall struct {
	Action string
	Args   []uint64
}

// TableDecl declares a match-action table; Malleable tables get version
// control from the Mantis compiler.
type TableDecl struct {
	Name      string
	Malleable bool
	Reads     []ReadKey
	Actions   []string
	Default   *DefaultCall
	Size      int
	Line      int
	Col       int
}

// MblValue is a `malleable value` declaration: a runtime-settable
// constant of a given width.
type MblValue struct {
	Name  string
	Width int
	Init  uint64
	Line  int
	Col   int
}

// MblField is a `malleable field` declaration: a runtime-shiftable
// reference to one of a fixed set of alternative fields.
type MblField struct {
	Name  string
	Width int
	Init  string
	Alts  []string
	Line  int
	Col   int
}

// InitAltIndex returns the index of the init field within Alts, or -1.
func (m *MblField) InitAltIndex() int {
	for i, a := range m.Alts {
		if a == m.Init {
			return i
		}
	}
	return -1
}

// ReactionParamKind classifies reaction parameters per Figure 3's
// reaction_args rule.
type ReactionParamKind int

// Reaction parameter kinds: ingress field, egress field, register slice.
const (
	ParamIng ReactionParamKind = iota
	ParamEgr
	ParamReg
)

// ReactionParam is one polled parameter of a reaction.
type ReactionParam struct {
	Kind ReactionParamKind
	// Target is the field name (ing/egr), the malleable name when IsMbl,
	// or the register name (reg).
	Target string
	IsMbl  bool
	// Lo, Hi bound a register slice parameter reg name[lo:hi]
	// (inclusive, as in the paper's `reg qdepths[1:10]`).
	Lo, Hi int
	Line   int
	Col    int
}

// Reaction is a reaction declaration. Body is the raw C-like source,
// parsed and executed by internal/rcl; its line 1 is line Line of the
// file.
type Reaction struct {
	Name   string
	Params []ReactionParam
	Body   string
	Line   int
	Col    int
}

// Stmt is a control-flow statement (apply or if).
type Stmt interface{ stmt() }

// ApplyStmt applies a table.
type ApplyStmt struct {
	Table string
	Line  int
	Col   int
}

// IfStmt branches on a condition.
type IfStmt struct {
	Cond CondExpr
	Then []Stmt
	Else []Stmt
}

func (ApplyStmt) stmt() {}
func (IfStmt) stmt()    {}

// CondExpr is a binary comparison between two arguments.
type CondExpr struct {
	Left  Arg
	Op    string
	Right Arg
}
