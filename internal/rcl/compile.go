package rcl

import (
	"fmt"
	"slices"
)

// This file lowers the parsed AST into closure trees once, at Compile
// time. The tree-walking interpreter this replaces re-dispatched on
// node types and resolved every variable by walking a name stack on
// every execution; reaction bodies run every dialogue iteration
// forever, so that per-iteration work is paid millions of times. The
// compiled form resolves each name to a fixed slot at compile time and
// specializes each operator into its own closure, leaving only the
// actual arithmetic (plus the loop step guard) at run time.
//
// Name resolution is lexical. Each declaration gets a slot in a flat
// locals array; sibling scopes reuse slots (stack discipline), so the
// array's length is the program's deepest live-variable count. Names
// that resolve to no declaration are parameters: they get slots in a
// separate params array that Frame.BindScalar/BindArray fill before
// execution. Reading an unbound parameter is an "undefined variable"
// error at run time, since which names get bound is the host's choice.
//
// Semantic errors found during lowering (redeclaration, bad assignment
// targets, array misuse) are Compile's errors, so a P4R program whose
// body has one is rejected when it compiles, not when it first runs.

// evalFn computes one expression.
type evalFn func(in *interp) (int64, error)

// stmtFn executes one statement and reports control transfer.
type stmtFn func(in *interp) (ctrl, error)

// storeFn writes a value through an assignment target.
type storeFn func(in *interp, v int64) error

// staticCell is a static variable's storage plus its run-once flag.
// Closures capture it, so statics persist per-Program across Exec
// calls, as before.
type staticCell struct {
	name string
	c    cell
	done bool
}

type refKind int

const (
	refLocal refKind = iota
	refParam
	refStatic
)

// slotRef is a compile-time resolved variable.
type slotRef struct {
	kind refKind
	slot int         // refLocal / refParam
	sc   *staticCell // refStatic
}

// compScope is one lexical scope during lowering. nlocals counts only
// local slots (statics resolve through the scope but own no slot), so
// popping releases exactly the slots this scope allocated.
type compScope struct {
	names   map[string]slotRef
	nlocals int
}

type compEnv struct {
	prog   *Program
	scopes []compScope // innermost last
	cur    int         // next free local slot
	high   int         // locals high-water mark
}

// compile lowers prog.stmts into prog.code.
func (p *Program) compile() error {
	ce := &compEnv{prog: p}
	ce.pushScope()
	code, err := ce.compileStmts(p.stmts)
	ce.popScope()
	p.code = code
	p.nlocals = ce.high
	return err
}

func (ce *compEnv) pushScope() {
	ce.scopes = append(ce.scopes, compScope{})
}

func (ce *compEnv) popScope() {
	top := &ce.scopes[len(ce.scopes)-1]
	ce.cur -= top.nlocals // release this scope's slots for siblings
	ce.scopes = ce.scopes[:len(ce.scopes)-1]
}

// declareLocal allocates a slot for name in the innermost scope.
func (ce *compEnv) declareLocal(name string, line int) (int, error) {
	top := &ce.scopes[len(ce.scopes)-1]
	if _, dup := top.names[name]; dup {
		return 0, fmt.Errorf("rcl line %d: redeclaration of %s", line, name)
	}
	if top.names == nil {
		top.names = make(map[string]slotRef)
	}
	slot := ce.cur
	ce.cur++
	top.nlocals++
	if ce.cur > ce.high {
		ce.high = ce.cur
	}
	top.names[name] = slotRef{kind: refLocal, slot: slot}
	return slot, nil
}

func (ce *compEnv) declareStatic(name string, width int) *staticCell {
	i := slices.IndexFunc(ce.prog.statics, func(sc *staticCell) bool { return sc.name == name })
	if i < 0 {
		i = len(ce.prog.statics)
		ce.prog.statics = append(ce.prog.statics, &staticCell{name: name, c: cell{width: width}})
	}
	sc := ce.prog.statics[i]
	top := &ce.scopes[len(ce.scopes)-1]
	if top.names == nil {
		top.names = make(map[string]slotRef)
	}
	if _, dup := top.names[name]; !dup {
		top.names[name] = slotRef{kind: refStatic, sc: sc}
	}
	return sc
}

// resolve finds name in the scope stack; unknown names become params.
func (ce *compEnv) resolve(name string) slotRef {
	for i := len(ce.scopes) - 1; i >= 0; i-- {
		if r, ok := ce.scopes[i].names[name]; ok {
			return r
		}
	}
	if slot, ok := ce.prog.params[name]; ok {
		return slotRef{kind: refParam, slot: slot}
	}
	slot := len(ce.prog.params)
	ce.prog.params[name] = slot
	return slotRef{kind: refParam, slot: slot}
}

// cellFn returns an accessor for the resolved variable's cell. The
// param variant checks the bound bit so a typo'd name still reports
// "undefined variable" at run time.
func (ce *compEnv) cellFn(name string, line int) func(in *interp) (*cell, error) {
	switch r := ce.resolve(name); r.kind {
	case refLocal:
		slot := r.slot
		return func(in *interp) (*cell, error) { return &in.st.locals[slot], nil }
	case refStatic:
		c := &r.sc.c
		return func(in *interp) (*cell, error) { return c, nil }
	default:
		slot := r.slot
		return func(in *interp) (*cell, error) {
			if !in.st.bound[slot] {
				return nil, fmt.Errorf("rcl line %d: undefined variable %s", line, name)
			}
			return &in.st.params[slot], nil
		}
	}
}

func (ce *compEnv) compileStmts(stmts []Stmt) ([]stmtFn, error) {
	fns := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		f, err := ce.compileStmt(s)
		if err != nil {
			return nil, err
		}
		fns = append(fns, f...)
	}
	return fns, nil
}

// runStmts drives a compiled statement list.
func runStmts(in *interp, fns []stmtFn) (ctrl, error) {
	for _, f := range fns {
		c, err := f(in)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

// compileStmt lowers one statement. Declarations may expand to one
// closure per declarator, hence the slice.
func (ce *compEnv) compileStmt(s Stmt) ([]stmtFn, error) {
	switch st := s.(type) {
	case DeclStmt:
		return ce.compileDecl(st)
	case ExprStmt:
		ef, err := ce.compileExpr(st.E)
		if err != nil {
			return nil, err
		}
		return []stmtFn{func(in *interp) (ctrl, error) {
			_, err := ef(in)
			return ctrlNone, err
		}}, nil
	case IfStmt:
		cond, err := ce.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		ce.pushScope()
		then, err := ce.compileStmts(st.Then)
		ce.popScope()
		if err != nil {
			return nil, err
		}
		ce.pushScope()
		els, err := ce.compileStmts(st.Else)
		ce.popScope()
		if err != nil {
			return nil, err
		}
		return []stmtFn{func(in *interp) (ctrl, error) {
			v, err := cond(in)
			if err != nil {
				return ctrlNone, err
			}
			if v != 0 {
				return runStmts(in, then)
			}
			return runStmts(in, els)
		}}, nil
	case WhileStmt:
		cond, err := ce.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		ce.pushScope()
		body, err := ce.compileStmts(st.Body)
		ce.popScope()
		if err != nil {
			return nil, err
		}
		return []stmtFn{func(in *interp) (ctrl, error) {
			for {
				if err := in.tick(); err != nil {
					return ctrlNone, err
				}
				v, err := cond(in)
				if err != nil {
					return ctrlNone, err
				}
				if v == 0 {
					return ctrlNone, nil
				}
				c, err := runStmts(in, body)
				if err != nil {
					return ctrlNone, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, nil
				case ctrlReturn:
					return ctrlReturn, nil
				}
			}
		}}, nil
	case ForStmt:
		// The init declaration's scope spans the whole loop.
		ce.pushScope()
		defer ce.popScope()
		var initFns []stmtFn
		if st.Init != nil {
			var err error
			initFns, err = ce.compileStmt(st.Init)
			if err != nil {
				return nil, err
			}
		}
		var cond evalFn
		if st.Cond != nil {
			var err error
			cond, err = ce.compileExpr(st.Cond)
			if err != nil {
				return nil, err
			}
		}
		var post evalFn
		if st.Post != nil {
			var err error
			post, err = ce.compileExpr(st.Post)
			if err != nil {
				return nil, err
			}
		}
		ce.pushScope()
		body, err := ce.compileStmts(st.Body)
		ce.popScope()
		if err != nil {
			return nil, err
		}
		return []stmtFn{func(in *interp) (ctrl, error) {
			if c, err := runStmts(in, initFns); err != nil || c != ctrlNone {
				return c, err
			}
			for {
				if err := in.tick(); err != nil {
					return ctrlNone, err
				}
				if cond != nil {
					v, err := cond(in)
					if err != nil {
						return ctrlNone, err
					}
					if v == 0 {
						return ctrlNone, nil
					}
				}
				c, err := runStmts(in, body)
				if err != nil {
					return ctrlNone, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, nil
				case ctrlReturn:
					return ctrlReturn, nil
				}
				if post != nil {
					if _, err := post(in); err != nil {
						return ctrlNone, err
					}
				}
			}
		}}, nil
	case BreakStmt:
		return []stmtFn{func(*interp) (ctrl, error) { return ctrlBreak, nil }}, nil
	case ContinueStmt:
		return []stmtFn{func(*interp) (ctrl, error) { return ctrlContinue, nil }}, nil
	case ReturnStmt:
		if st.E == nil {
			return []stmtFn{func(*interp) (ctrl, error) { return ctrlReturn, nil }}, nil
		}
		ef, err := ce.compileExpr(st.E)
		if err != nil {
			return nil, err
		}
		return []stmtFn{func(in *interp) (ctrl, error) {
			if _, err := ef(in); err != nil {
				return ctrlNone, err
			}
			return ctrlReturn, nil
		}}, nil
	}
	return nil, fmt.Errorf("rcl: unknown statement %T", s)
}

func (ce *compEnv) compileDecl(d DeclStmt) ([]stmtFn, error) {
	var fns []stmtFn
	for _, v := range d.Vars {
		if v.ArraySize > 0 && v.Init != nil {
			return nil, fmt.Errorf("rcl line %d: array initializers are not supported", d.Line)
		}
		var initFn evalFn
		if v.Init != nil {
			var err error
			initFn, err = ce.compileExpr(v.Init)
			if err != nil {
				return nil, err
			}
		}
		if d.Static {
			sc := ce.declareStatic(v.Name, d.Width)
			size := v.ArraySize
			fns = append(fns, func(in *interp) (ctrl, error) {
				if sc.done {
					return ctrlNone, nil // statics initialize once
				}
				sc.done = true
				if size > 0 {
					sc.c.isArr = true
					sc.c.arr = make([]int64, size)
				} else if initFn != nil {
					val, err := initFn(in)
					if err != nil {
						return ctrlNone, err
					}
					sc.c.store(val)
				}
				return ctrlNone, nil
			})
			continue
		}
		slot, err := ce.declareLocal(v.Name, d.Line)
		if err != nil {
			return nil, err
		}
		width := d.Width
		if size := v.ArraySize; size > 0 {
			// Redeclared arrays (loop bodies, repeated Execs) reuse the
			// slot's capacity; only the first execution allocates.
			fns = append(fns, func(in *interp) (ctrl, error) {
				c := &in.st.locals[slot]
				c.isArr = true
				c.width = width
				if cap(c.arr) >= size {
					c.arr = c.arr[:size]
					for i := range c.arr {
						c.arr[i] = 0
					}
				} else {
					c.arr = make([]int64, size)
				}
				return ctrlNone, nil
			})
			continue
		}
		if initFn != nil {
			fns = append(fns, func(in *interp) (ctrl, error) {
				c := &in.st.locals[slot]
				c.isArr = false
				c.width = width
				c.scalar = 0
				val, err := initFn(in)
				if err != nil {
					return ctrlNone, err
				}
				c.store(val)
				return ctrlNone, nil
			})
		} else {
			fns = append(fns, func(in *interp) (ctrl, error) {
				c := &in.st.locals[slot]
				c.isArr = false
				c.width = width
				c.scalar = 0
				return ctrlNone, nil
			})
		}
	}
	return fns, nil
}

func (ce *compEnv) compileExpr(e Expr) (evalFn, error) {
	switch x := e.(type) {
	case NumLit:
		v := x.V
		return func(*interp) (int64, error) { return v, nil }, nil
	case StrLit:
		return nil, fmt.Errorf("rcl: string literal used as a value")
	case VarRef:
		name, line := x.Name, x.Line
		if r := ce.resolve(name); r.kind == refLocal {
			slot := r.slot
			return func(in *interp) (int64, error) {
				c := &in.st.locals[slot]
				if c.isArr {
					return 0, fmt.Errorf("rcl line %d: array %s used as a scalar", line, name)
				}
				return c.scalar, nil
			}, nil
		}
		cf := ce.cellFn(name, line)
		return func(in *interp) (int64, error) {
			c, err := cf(in)
			if err != nil {
				return 0, err
			}
			if c.isArr {
				return 0, fmt.Errorf("rcl line %d: array %s used as a scalar", line, name)
			}
			return c.scalar, nil
		}, nil
	case MblExpr:
		name := x.Name
		return func(in *interp) (int64, error) { return in.host.ReadMbl(name) }, nil
	case IndexExpr:
		cf, idxFn, err := ce.compileIndex(x)
		if err != nil {
			return nil, err
		}
		return func(in *interp) (int64, error) {
			c, idx, err := arrayCell(in, cf, idxFn, x.Line)
			if err != nil {
				return 0, err
			}
			return c.arr[idx], nil
		}, nil
	case UnaryExpr:
		return ce.compileUnary(x)
	case BinaryExpr:
		return ce.compileBinary(x)
	case TernaryExpr:
		cond, err := ce.compileExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		tf, err := ce.compileExpr(x.T)
		if err != nil {
			return nil, err
		}
		ff, err := ce.compileExpr(x.F)
		if err != nil {
			return nil, err
		}
		return func(in *interp) (int64, error) {
			v, err := cond(in)
			if err != nil {
				return 0, err
			}
			if v != 0 {
				return tf(in)
			}
			return ff(in)
		}, nil
	case AssignExpr:
		return ce.compileAssign(x)
	case CallExpr:
		return ce.compileCall(x)
	case TableCallExpr:
		argFns, err := ce.compileArgs(x.Args)
		if err != nil {
			return nil, err
		}
		table, method, line := x.Table, x.Method, x.Line
		return func(in *interp) (int64, error) {
			mark, err := pushArgs(in, argFns)
			if err != nil {
				return 0, err
			}
			v, err := in.host.TableOp(table, method, in.st.argbuf[mark:])
			in.st.argbuf = in.st.argbuf[:mark]
			if err != nil {
				return 0, fmt.Errorf("rcl line %d: %w", line, err)
			}
			return v, nil
		}, nil
	}
	return nil, fmt.Errorf("rcl: unknown expression %T", e)
}

// compileIndex resolves arr[idx]'s base cell accessor and index fn.
func (ce *compEnv) compileIndex(x IndexExpr) (func(in *interp) (*cell, error), evalFn, error) {
	base, ok := x.Base.(VarRef)
	if !ok {
		return nil, nil, fmt.Errorf("rcl line %d: indexing a non-variable", x.Line)
	}
	idxFn, err := ce.compileExpr(x.Idx)
	if err != nil {
		return nil, nil, err
	}
	return ce.cellFn(base.Name, base.Line), idxFn, nil
}

// arrayCell fetches the array cell and a bounds-checked index.
func arrayCell(in *interp, cf func(in *interp) (*cell, error), idxFn evalFn, line int) (*cell, int64, error) {
	c, err := cf(in)
	if err != nil {
		return nil, 0, err
	}
	if !c.isArr {
		return nil, 0, fmt.Errorf("rcl line %d: indexing a non-array", line)
	}
	idx, err := idxFn(in)
	if err != nil {
		return nil, 0, err
	}
	if idx < 0 || idx >= int64(len(c.arr)) {
		return nil, 0, fmt.Errorf("rcl line %d: index %d out of range for array of %d", line, idx, len(c.arr))
	}
	return c, idx, nil
}

// compileTarget lowers an assignment target into load and store fns.
func (ce *compEnv) compileTarget(e Expr) (evalFn, storeFn, error) {
	switch t := e.(type) {
	case VarRef:
		name, line := t.Name, t.Line
		cf := ce.cellFn(name, line)
		load := func(in *interp) (int64, error) {
			c, err := cf(in)
			if err != nil {
				return 0, err
			}
			if c.isArr {
				return 0, fmt.Errorf("rcl line %d: array %s used as a scalar", line, name)
			}
			return c.scalar, nil
		}
		store := func(in *interp, v int64) error {
			c, err := cf(in)
			if err != nil {
				return err
			}
			if c.isArr {
				return fmt.Errorf("rcl line %d: cannot assign to array %s", line, name)
			}
			c.store(v)
			return nil
		}
		return load, store, nil
	case IndexExpr:
		cf, idxFn, err := ce.compileIndex(t)
		if err != nil {
			return nil, nil, err
		}
		line := t.Line
		load := func(in *interp) (int64, error) {
			c, idx, err := arrayCell(in, cf, idxFn, line)
			if err != nil {
				return 0, err
			}
			return c.arr[idx], nil
		}
		store := func(in *interp, v int64) error {
			c, idx, err := arrayCell(in, cf, idxFn, line)
			if err != nil {
				return err
			}
			c.arr[idx] = v
			return nil
		}
		return load, store, nil
	case MblExpr:
		name := t.Name
		load := func(in *interp) (int64, error) { return in.host.ReadMbl(name) }
		store := func(in *interp, v int64) error { return in.host.WriteMbl(name, v) }
		return load, store, nil
	}
	return nil, nil, fmt.Errorf("rcl: invalid assignment target %T", e)
}

func (ce *compEnv) compileUnary(x UnaryExpr) (evalFn, error) {
	if x.Op == "++" || x.Op == "--" {
		load, store, err := ce.compileTarget(x.X)
		if err != nil {
			return nil, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		postfix := x.Postfix
		return func(in *interp) (int64, error) {
			old, err := load(in)
			if err != nil {
				return 0, err
			}
			if err := store(in, old+delta); err != nil {
				return 0, err
			}
			if postfix {
				return old, nil
			}
			return old + delta, nil
		}, nil
	}
	xf, err := ce.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "-":
		return func(in *interp) (int64, error) { v, err := xf(in); return -v, err }, nil
	case "~":
		return func(in *interp) (int64, error) { v, err := xf(in); return ^v, err }, nil
	case "!":
		return func(in *interp) (int64, error) {
			v, err := xf(in)
			if err != nil {
				return 0, err
			}
			return boolToInt(v == 0), nil
		}, nil
	}
	return nil, fmt.Errorf("rcl: unknown unary op %q", x.Op)
}

// binopFn specializes one binary operator into a two-operand function.
// Only division and modulo can fail, so the others compile to bare
// arithmetic.
func binopFn(op string, line int) (func(l, r int64) (int64, error), error) {
	switch op {
	case "+":
		return func(l, r int64) (int64, error) { return l + r, nil }, nil
	case "-":
		return func(l, r int64) (int64, error) { return l - r, nil }, nil
	case "*":
		return func(l, r int64) (int64, error) { return l * r, nil }, nil
	case "/":
		return func(l, r int64) (int64, error) {
			if r == 0 {
				return 0, fmt.Errorf("rcl line %d: division by zero", line)
			}
			return l / r, nil
		}, nil
	case "%":
		return func(l, r int64) (int64, error) {
			if r == 0 {
				return 0, fmt.Errorf("rcl line %d: modulo by zero", line)
			}
			return l % r, nil
		}, nil
	case "&":
		return func(l, r int64) (int64, error) { return l & r, nil }, nil
	case "|":
		return func(l, r int64) (int64, error) { return l | r, nil }, nil
	case "^":
		return func(l, r int64) (int64, error) { return l ^ r, nil }, nil
	case "<<":
		return func(l, r int64) (int64, error) { return l << (uint64(r) & 63), nil }, nil
	case ">>":
		return func(l, r int64) (int64, error) { return l >> (uint64(r) & 63), nil }, nil
	case "==":
		return func(l, r int64) (int64, error) { return boolToInt(l == r), nil }, nil
	case "!=":
		return func(l, r int64) (int64, error) { return boolToInt(l != r), nil }, nil
	case "<":
		return func(l, r int64) (int64, error) { return boolToInt(l < r), nil }, nil
	case "<=":
		return func(l, r int64) (int64, error) { return boolToInt(l <= r), nil }, nil
	case ">":
		return func(l, r int64) (int64, error) { return boolToInt(l > r), nil }, nil
	case ">=":
		return func(l, r int64) (int64, error) { return boolToInt(l >= r), nil }, nil
	}
	return nil, fmt.Errorf("rcl line %d: unknown operator %q", line, op)
}

func (ce *compEnv) compileBinary(x BinaryExpr) (evalFn, error) {
	lf, err := ce.compileExpr(x.L)
	if err != nil {
		return nil, err
	}
	rf, err := ce.compileExpr(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "&&":
		return func(in *interp) (int64, error) {
			l, err := lf(in)
			if err != nil || l == 0 {
				return 0, err
			}
			r, err := rf(in)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}, nil
	case "||":
		return func(in *interp) (int64, error) {
			l, err := lf(in)
			if err != nil {
				return 0, err
			}
			if l != 0 {
				return 1, nil
			}
			r, err := rf(in)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}, nil
	}
	op, err := binopFn(x.Op, x.Line)
	if err != nil {
		return nil, err
	}
	return func(in *interp) (int64, error) {
		l, err := lf(in)
		if err != nil {
			return 0, err
		}
		r, err := rf(in)
		if err != nil {
			return 0, err
		}
		return op(l, r)
	}, nil
}

func (ce *compEnv) compileAssign(x AssignExpr) (evalFn, error) {
	rhsFn, err := ce.compileExpr(x.Val)
	if err != nil {
		return nil, err
	}
	load, store, err := ce.compileTarget(x.Target)
	if err != nil {
		return nil, err
	}
	if x.Op == "=" {
		return func(in *interp) (int64, error) {
			rhs, err := rhsFn(in)
			if err != nil {
				return 0, err
			}
			if err := store(in, rhs); err != nil {
				return 0, err
			}
			return rhs, nil
		}, nil
	}
	op, err := binopFn(x.Op[:len(x.Op)-1], x.Line) // strip '='
	if err != nil {
		return nil, err
	}
	return func(in *interp) (int64, error) {
		rhs, err := rhsFn(in)
		if err != nil {
			return 0, err
		}
		old, err := load(in)
		if err != nil {
			return 0, err
		}
		rhs, err = op(old, rhs)
		if err != nil {
			return 0, err
		}
		if err := store(in, rhs); err != nil {
			return 0, err
		}
		return rhs, nil
	}, nil
}

// argFn produces one host-call argument.
type argFn func(in *interp) (Arg, error)

func (ce *compEnv) compileArgs(exprs []Expr) ([]argFn, error) {
	fns := make([]argFn, len(exprs))
	for i, e := range exprs {
		if s, ok := e.(StrLit); ok {
			a := Arg{S: s.S, IsStr: true}
			fns[i] = func(*interp) (Arg, error) { return a, nil }
			continue
		}
		ef, err := ce.compileExpr(e)
		if err != nil {
			return nil, err
		}
		fns[i] = func(in *interp) (Arg, error) {
			v, err := ef(in)
			return Arg{I: v}, err
		}
	}
	return fns, nil
}

// pushArgs evaluates call arguments onto the shared argbuf stack and
// returns the mark where this call's region begins. The caller slices
// argbuf[mark:] for the host call and truncates back to mark after;
// nested calls inside argument expressions push and pop their own
// regions above ours. Hosts must not retain the slice past the call.
func pushArgs(in *interp, fns []argFn) (int, error) {
	st := in.st
	mark := len(st.argbuf)
	for _, f := range fns {
		a, err := f(in)
		if err != nil {
			st.argbuf = st.argbuf[:mark]
			return mark, err
		}
		st.argbuf = append(st.argbuf, a)
	}
	return mark, nil
}

func (ce *compEnv) compileCall(x CallExpr) (evalFn, error) {
	// Interpreter-level builtins first.
	switch x.Name {
	case "min", "max":
		if len(x.Args) != 2 {
			return nil, fmt.Errorf("rcl line %d: %s takes 2 arguments", x.Line, x.Name)
		}
		af, err := ce.compileExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		bf, err := ce.compileExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		wantMin := x.Name == "min"
		return func(in *interp) (int64, error) {
			a, err := af(in)
			if err != nil {
				return 0, err
			}
			b, err := bf(in)
			if err != nil {
				return 0, err
			}
			if wantMin == (a < b) {
				return a, nil
			}
			return b, nil
		}, nil
	case "abs":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("rcl line %d: abs takes 1 argument", x.Line)
		}
		xf, err := ce.compileExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(in *interp) (int64, error) {
			v, err := xf(in)
			if err != nil {
				return 0, err
			}
			if v < 0 {
				return -v, nil
			}
			return v, nil
		}, nil
	case "len":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("rcl line %d: len takes 1 argument", x.Line)
		}
		vr, ok := x.Args[0].(VarRef)
		if !ok {
			return nil, fmt.Errorf("rcl line %d: len argument must be an array", x.Line)
		}
		cf := ce.cellFn(vr.Name, vr.Line)
		line := x.Line
		name := vr.Name
		return func(in *interp) (int64, error) {
			c, err := cf(in)
			if err != nil {
				return 0, err
			}
			if !c.isArr {
				return 0, fmt.Errorf("rcl line %d: len of non-array %s", line, name)
			}
			return int64(len(c.arr)), nil
		}, nil
	}
	argFns, err := ce.compileArgs(x.Args)
	if err != nil {
		return nil, err
	}
	name, line := x.Name, x.Line
	return func(in *interp) (int64, error) {
		mark, err := pushArgs(in, argFns)
		if err != nil {
			return 0, err
		}
		v, err := in.host.Call(name, in.st.argbuf[mark:])
		in.st.argbuf = in.st.argbuf[:mark]
		if err != nil {
			return 0, fmt.Errorf("rcl line %d: %w", line, err)
		}
		return v, nil
	}, nil
}
