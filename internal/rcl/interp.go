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
	// TableOp stages a malleable-table library call
	// (addEntry/modEntry/delEntry) and returns a handle or 0.
	TableOp(table, method string, args []Arg) (int64, error)
	// Call invokes a host builtin (now(), emit(...), ...).
	Call(name string, args []Arg) (int64, error)
}

// Builtin is the signature of a host function a reaction body can call.
type Builtin struct {
	// Args has one letter per argument: s a string, n a number.
	Args string
	// Usage is what a call that does not match Args reports.
	Usage string
}

// Builtins are the host functions a body can call beyond the
// interpreter's own (min, max, abs, len). The analyzer checks a body's
// calls against them and the agent's host refuses any other call.
var Builtins = map[string]Builtin{
	"now":           {"", "now() takes no arguments"},
	"port_count":    {"", "port_count() takes no arguments"},
	"channel_clean": {"", "channel_clean() takes no arguments"},
	"rand":          {"n", "rand(n) needs one positive integer"},
	"emit":          {"snn", `emit("kind", key, val)`},
}

// Takes reports whether args match b's signature.
func (b Builtin) Takes(args []Arg) bool {
	if len(args) != len(b.Args) {
		return false
	}
	for i, a := range args {
		if a.IsStr != (b.Args[i] == 's') {
			return false
		}
	}
	return true
}

// Program is a compiled reaction body: the AST lowered into closure
// trees with compile-time slot resolution (compile.go). Static
// variables persist on the Program across Exec calls, mirroring C
// statics in a loaded .so.
type Program struct {
	stmts []Stmt

	code    []stmtFn
	nlocals int
	params  map[string]int // free name → params-array slot
	// statics in declaration order, and their last SaveStatics image.
	statics []*staticCell
	image   []int64

	// MaxSteps bounds interpreted loop iterations per invocation;
	// reaction loops must terminate for the dialogue to advance.
	// 0 = default.
	MaxSteps int
}

const defaultMaxSteps = 10_000_000

// Compile parses a reaction body into an executable Program.
func Compile(src string) (*Program, error) {
	stmts, err := ParseBody(src)
	if err != nil {
		return nil, err
	}
	return NewProgram(stmts)
}

// NewProgram lowers parsed statements into an executable Program with
// its own statics, or reports the body's first semantic error. A P4R
// file's bodies are parsed once, with the file (p4r.Reaction.Stmts);
// the compiler lowers each once to reject a bad one, and each agent
// that runs one builds its Program from those statements.
func NewProgram(stmts []Stmt) (*Program, error) {
	p := &Program{
		stmts:  stmts,
		params: make(map[string]int),
	}
	if err := p.compile(); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveStatics records every static's value and run-once flag for
// RestoreStatics, so a caller can take back what Execs did. Once the
// statics are initialized, a save allocates nothing.
func (p *Program) SaveStatics() {
	img := p.image[:0]
	for _, sc := range p.statics {
		img = append(img, sc.c.scalar, boolToInt(sc.done))
		if sc.done {
			img = append(img, sc.c.arr...)
		}
	}
	p.image = img
}

// RestoreStatics returns the statics to the last SaveStatics; an array
// saved before its first initialization is initialized again.
func (p *Program) RestoreStatics() {
	img := p.image
	for _, sc := range p.statics {
		sc.c.scalar, sc.done = img[0], img[1] != 0
		img = img[2:]
		if sc.done {
			img = img[copy(sc.c.arr, img):]
		}
	}
}

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
