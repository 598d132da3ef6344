package rcl

import (
	"fmt"
)

// Arg is one argument passed to a host function or malleable-table
// library call: an integer or a string (e.g. an action name).
type Arg struct {
	I     int64
	S     string
	IsStr bool
}

// Host is the environment a reaction body executes against. The Mantis
// agent (internal/core) implements Host, backing malleable reads/writes
// with the generated init-table machinery and table calls with the
// three-phase serializable update protocol.
type Host interface {
	// ReadMbl returns the last written value of a malleable value, or the
	// current alt index of a malleable field.
	ReadMbl(name string) (int64, error)
	// WriteMbl stages a write to a malleable value or field.
	WriteMbl(name string, v int64) error
	// TableOp performs a malleable-table library call
	// (addEntry/modEntry/delEntry) and returns a handle or 0.
	TableOp(table, method string, args []Arg) (int64, error)
	// Call invokes a host builtin (now(), set_hash_seed(...), ...).
	Call(name string, args []Arg) (int64, error)
}

// Program is a compiled reaction body: the AST lowered into closure
// trees with compile-time slot resolution (compile.go). Static
// variables persist on the Program across Exec calls, mirroring C
// statics in a loaded .so.
type Program struct {
	stmts []Stmt

	code        []stmtFn
	nlocals     int
	params      map[string]int // free name → params-array slot
	staticCells map[string]*staticCell
	// compileErr defers semantic errors found during lowering
	// (redeclaration, bad assignment targets) to Exec time, preserving
	// the dynamic interpreter's error surface.
	compileErr error

	// MaxSteps bounds interpreted loop iterations per invocation;
	// reaction loops must terminate for the dialogue to advance.
	// 0 = default.
	MaxSteps int
}

const defaultMaxSteps = 10_000_000

// Compile parses a reaction body into an executable Program.
func Compile(src string) (*Program, error) {
	stmts, err := parseBody(src)
	if err != nil {
		return nil, err
	}
	p := &Program{
		stmts:       stmts,
		params:      make(map[string]int),
		staticCells: make(map[string]*staticCell),
	}
	p.compile()
	return p, nil
}

// ParseBody parses a reaction body and returns its statement AST without
// building an executable Program. Static analyzers (internal/p4r/analysis)
// use this to walk reaction bodies for reads, writes, and declarations.
// Its error, like Compile's, is a *diag.Diagnostic whose line counts
// from the body's first line.
func ParseBody(src string) ([]Stmt, error) { return parseBody(src) }

// cell is a variable binding: a scalar or an array, with an optional
// width mask applied on store.
type cell struct {
	scalar int64
	arr    []int64
	isArr  bool
	width  int // 64 = unmasked
}

func (c *cell) store(v int64) {
	if c.width > 0 && c.width < 64 {
		v &= (1 << uint(c.width)) - 1
	}
	c.scalar = v
}

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// execState is the reusable run-time state of one Frame: the flat
// locals array (slots assigned at compile time, reused across scopes),
// the parameter cells Bind* fills, and the stack-disciplined host-call
// argument scratch. Nothing here allocates after the Frame's first
// execution.
type execState struct {
	locals []cell
	params []cell
	bound  []bool // params[i] has been bound by Frame.Bind*
	argbuf []Arg
}

// interp is the per-execution context threaded through compiled
// closures: the host, the state arrays, and the loop step guard.
type interp struct {
	prog  *Program
	host  Host
	st    *execState
	steps int
	max   int
}

func (in *interp) tick() error {
	in.steps++
	if in.steps > in.max {
		return fmt.Errorf("rcl: reaction exceeded %d operations (non-terminating loop?)", in.max)
	}
	return nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
