// Package rcl implements the Reaction C-like Language: the C-style
// bodies of P4R `reaction` declarations.
//
// In the original Mantis, reaction bodies are extracted from the .p4r
// file, compiled with gcc into a shared object, and dynamically loaded
// by the agent. Go has no equivalent of dlopen for Go code, so this
// package interprets the same language instead. The semantics preserved
// are the ones the paper relies on:
//
//   - arbitrary (Turing-complete) computation over polled parameters,
//   - reads and writes of malleables via ${name},
//   - malleable table manipulation via generated library functions
//     (table.addEntry / modEntry / delEntry),
//   - `static` variables that persist across dialogue iterations (the
//     paper's "stateful dialogue" via C statics), and
//   - host builtins (now(), min(), max(), ...).
//
// A body is lexed by internal/p4r/lex, the lexer of the whole P4R
// file, with its Dotted mode off.
//
// Values are signed 64-bit integers with C-like operator semantics.
// Declared widths (uint16_t, ...) mask on assignment the way C integer
// conversion would.
package rcl

import (
	"repro/internal/p4r/diag"
	"repro/internal/p4r/lex"
)

// ---- AST ----

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// DeclVar is one declarator within a declaration.
type DeclVar struct {
	Name      string
	ArraySize int  // 0 for scalars
	Init      Expr // nil if absent
}

// DeclStmt declares one or more variables of a C integer type. Static
// declarations persist across reaction invocations.
type DeclStmt struct {
	Static bool
	Type   string
	Width  int // mask width; 64 means unmasked
	Vars   []DeclVar
	Line   int
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct{ E Expr }

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

// ForStmt is a C for loop.
type ForStmt struct {
	Init Stmt // may be nil
	Cond Expr // may be nil (infinite)
	Post Expr // may be nil
	Body []Stmt
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// ReturnStmt ends the reaction invocation.
type ReturnStmt struct{ E Expr }

func (DeclStmt) stmtNode()     {}
func (ExprStmt) stmtNode()     {}
func (IfStmt) stmtNode()       {}
func (WhileStmt) stmtNode()    {}
func (ForStmt) stmtNode()      {}
func (BreakStmt) stmtNode()    {}
func (ContinueStmt) stmtNode() {}
func (ReturnStmt) stmtNode()   {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// NumLit is an integer literal.
type NumLit struct{ V int64 }

// StrLit is a string literal (allowed only as a call argument, e.g. an
// action name for table operations).
type StrLit struct{ S string }

// VarRef names a variable or bound parameter.
type VarRef struct {
	Name string
	Line int
}

// MblExpr references a malleable value/field: ${name}.
type MblExpr struct {
	Name string
	Line int
}

// IndexExpr is arr[idx].
type IndexExpr struct {
	Base Expr
	Idx  Expr
	Line int
}

// UnaryExpr is a prefix or postfix unary operation. Op is one of
// - ~ ! ++ --.
type UnaryExpr struct {
	Op      string
	X       Expr
	Postfix bool
	Line    int
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Line int
}

// TernaryExpr is cond ? a : b.
type TernaryExpr struct{ Cond, T, F Expr }

// AssignExpr assigns (possibly compound) to a variable, array element,
// or malleable.
type AssignExpr struct {
	Target Expr // VarRef, IndexExpr, or MblExpr
	Op     string
	Val    Expr
	Line   int
}

// CallExpr invokes a builtin or host function.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

// TableCallExpr invokes a generated malleable-table library function:
// table.addEntry(...), table.modEntry(...) or table.delEntry(...).
type TableCallExpr struct {
	Table  string
	Method string
	Args   []Expr
	Line   int
}

func (NumLit) exprNode()        {}
func (StrLit) exprNode()        {}
func (VarRef) exprNode()        {}
func (MblExpr) exprNode()       {}
func (IndexExpr) exprNode()     {}
func (UnaryExpr) exprNode()     {}
func (BinaryExpr) exprNode()    {}
func (TernaryExpr) exprNode()   {}
func (AssignExpr) exprNode()    {}
func (CallExpr) exprNode()      {}
func (TableCallExpr) exprNode() {}

// typeWidths maps C type names to mask widths (64 = unmasked).
var typeWidths = map[string]int{
	"int": 64, "long": 64, "short": 16, "char": 8, "bool": 1,
	"unsigned": 64, "size_t": 64,
	"uint8_t": 8, "uint16_t": 16, "uint32_t": 32, "uint64_t": 64,
	"int8_t": 64, "int16_t": 64, "int32_t": 64, "int64_t": 64,
}

// maxArraySize bounds a declared array's length. Arrays live in the
// reaction's frame; the largest one in the repository has 8 cells.
const maxArraySize = 4096

// ---- Parser ----

// parser reads statements from a lexer one token at a time. Its first
// lexical error is sticky: the current token becomes EOF and every later
// error the parser reports is that one, so errors come in text order.
type parser struct {
	lx       *lex.Lexer
	tok, nxt lex.Token
	hasNxt   bool
	err      error
	// block is set inside a reaction body, which must not end before
	// its closing brace; line:col is just past its opening one.
	block     bool
	line, col int
}

func (p *parser) cur() lex.Token { return p.tok }

// peek returns the token after the current one. It is asked only where
// the current token is inside the statement, so it never reads past a
// block's closing brace.
func (p *parser) peek() lex.Token {
	if !p.hasNxt {
		p.nxt, p.hasNxt = p.lexNext(), true
	}
	return p.nxt
}

func (p *parser) advance() lex.Token {
	t := p.tok
	switch {
	case p.hasNxt:
		p.tok, p.hasNxt = p.nxt, false
	case t.Kind != lex.EOF:
		p.tok = p.lexNext()
	}
	return t
}

func (p *parser) lexNext() lex.Token {
	t, err := p.lx.Next()
	if err == nil && t.Kind == lex.EOF && p.block {
		err = diag.Errorf(diag.BadLiteral, p.line, p.col, "unterminated block")
	}
	if err != nil {
		p.err = err
		return lex.Token{Kind: lex.EOF}
	}
	return t
}

// errf reports a syntax error at the current token as an S001
// diagnostic at its line and column, unless a lexical error came first.
func (p *parser) errf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return diag.Errorf(diag.SyntaxError, p.cur().Line, p.cur().Col, format, args...)
}

func (p *parser) isPunct(s string) bool {
	return p.cur().Kind == lex.Punct && p.cur().Text == s
}

func (p *parser) expect(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, got %s", s, p.cur())
	}
	p.advance()
	return nil
}

// ParseBody parses a whole text as a reaction body: a statement list,
// positioned from line 1, column 1. Its error, like ParseBlock's, is a
// *diag.Diagnostic.
func ParseBody(src string) ([]Stmt, error) {
	return parse(&parser{lx: lex.New(src)})
}

// ParseBlock parses the reaction body whose '{' lx has just returned,
// up to the matching '}', and leaves lx just past that brace with its
// Dotted mode as it was. Comments and string literals are the body's
// own tokens, so a brace inside one neither opens nor closes the block,
// and every position is lx's.
func ParseBlock(lx *lex.Lexer) ([]Stmt, error) {
	defer func(dotted bool) { lx.Dotted = dotted }(lx.Dotted)
	lx.Dotted = false
	p := &parser{lx: lx, block: true}
	p.line, p.col = lx.Pos()
	return parse(p)
}

func parse(p *parser) ([]Stmt, error) {
	p.tok = p.lexNext()
	var stmts []Stmt
	for p.cur().Kind != lex.EOF && !(p.block && p.isPunct("}")) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, p.err
}

// parseBlockOrStmt parses `{ ... }` or a single statement.
func (p *parser) parseBlockOrStmt() ([]Stmt, error) {
	if p.isPunct("{") {
		p.advance()
		var out []Stmt
		for !p.isPunct("}") {
			if p.cur().Kind == lex.EOF {
				return nil, p.errf("unterminated block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		p.advance()
		return out, nil
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	if t.Kind == lex.Ident {
		switch t.Text {
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "for":
			return p.parseFor()
		case "break":
			p.advance()
			return BreakStmt{Line: t.Line}, p.expect(";")
		case "continue":
			p.advance()
			return ContinueStmt{Line: t.Line}, p.expect(";")
		case "return":
			p.advance()
			if p.isPunct(";") {
				p.advance()
				return ReturnStmt{}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return ReturnStmt{E: e}, p.expect(";")
		case "static":
			p.advance()
			return p.parseDecl(true)
		}
		if _, isType := typeWidths[t.Text]; isType {
			return p.parseDecl(false)
		}
	}
	// Expression statement.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return ExprStmt{E: e}, p.expect(";")
}

func (p *parser) parseDecl(static bool) (Stmt, error) {
	t := p.cur()
	width, ok := typeWidths[t.Text]
	if !ok {
		return nil, p.errf("expected type name, got %s", t)
	}
	p.advance()
	// Skip a second type word ("unsigned int", "long long").
	if p.cur().Kind == lex.Ident {
		if w2, ok := typeWidths[p.cur().Text]; ok && p.peek().Kind == lex.Ident {
			width = w2
			p.advance()
		}
	}
	d := DeclStmt{Static: static, Type: t.Text, Width: width, Line: t.Line}
	for {
		if p.cur().Kind != lex.Ident {
			return nil, p.errf("expected variable name, got %s", p.cur())
		}
		v := DeclVar{Name: p.advance().Text}
		if p.isPunct("[") {
			p.advance()
			if p.cur().Kind != lex.Number {
				return nil, p.errf("array size must be a constant")
			}
			if n := int64(p.cur().Num); n <= 0 {
				return nil, p.errf("array size must be positive")
			} else if n > maxArraySize {
				return nil, p.errf("array size %d exceeds the limit of %d", n, maxArraySize)
			}
			v.ArraySize = int(p.advance().Num)
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if p.isPunct("=") {
			p.advance()
			e, err := p.parseAssignRHS()
			if err != nil {
				return nil, err
			}
			v.Init = e
		}
		d.Vars = append(d.Vars, v)
		if p.isPunct(",") {
			p.advance()
			continue
		}
		break
	}
	return d, p.expect(";")
}

func (p *parser) parseIf() (Stmt, error) {
	p.advance()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	st := IfStmt{Cond: cond, Then: then}
	if p.cur().Kind == lex.Ident && p.cur().Text == "else" {
		p.advance()
		if p.cur().Kind == lex.Ident && p.cur().Text == "if" {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
		} else {
			els, err := p.parseBlockOrStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	p.advance()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	return WhileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.advance()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var st ForStmt
	if !p.isPunct(";") {
		if p.cur().Kind == lex.Ident {
			if _, isType := typeWidths[p.cur().Text]; isType {
				d, err := p.parseDecl(false) // consumes trailing ';'
				if err != nil {
					return nil, err
				}
				st.Init = d
				goto cond
			}
		}
		{
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Init = ExprStmt{E: e}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	} else {
		p.advance()
	}
cond:
	if !p.isPunct(";") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = e
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Post = e
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// ---- Expressions (precedence climbing) ----

// parseExpr parses a full expression including assignment (lowest,
// right-associative).
func (p *parser) parseExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == lex.Punct {
		op := p.cur().Text
		switch op {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
			line := p.cur().Line
			switch lhs.(type) {
			case VarRef, IndexExpr, MblExpr:
			default:
				return nil, p.errf("invalid assignment target")
			}
			p.advance()
			rhs, err := p.parseExpr() // right-assoc
			if err != nil {
				return nil, err
			}
			return AssignExpr{Target: lhs, Op: op, Val: rhs, Line: line}, nil
		}
	}
	return lhs, nil
}

// parseAssignRHS parses an initializer expression (no comma operator).
func (p *parser) parseAssignRHS() (Expr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.isPunct("?") {
		p.advance()
		t, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		f, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return TernaryExpr{Cond: cond, T: t, F: f}, nil
	}
	return cond, nil
}

// binary operator precedence, lowest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == lex.Punct {
		matched := ""
		for _, op := range precLevels[level] {
			if p.cur().Text == op {
				matched = op
				break
			}
		}
		if matched == "" {
			break
		}
		line := p.cur().Line
		p.advance()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = BinaryExpr{Op: matched, L: lhs, R: rhs, Line: line}
	}
	return lhs, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == lex.Punct {
		switch t.Text {
		case "-", "~", "!", "+":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return UnaryExpr{Op: t.Text, X: x, Line: t.Line}, nil
		case "++", "--":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return UnaryExpr{Op: t.Text, X: x, Line: t.Line}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("["):
			line := p.cur().Line
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = IndexExpr{Base: e, Idx: idx, Line: line}
		case p.isPunct("."):
			vr, ok := e.(VarRef)
			if !ok {
				return nil, p.errf("method call on non-table expression")
			}
			p.advance()
			if p.cur().Kind != lex.Ident {
				return nil, p.errf("expected method name after '.'")
			}
			method := p.advance().Text
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			e = TableCallExpr{Table: vr.Name, Method: method, Args: args, Line: vr.Line}
		case p.isPunct("++") || p.isPunct("--"):
			op := p.advance().Text
			e = UnaryExpr{Op: op, X: e, Postfix: true}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseCallArgs() ([]Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.isPunct(")") {
		a, err := p.parseAssignRHS()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.isPunct(",") {
			p.advance()
		}
	}
	p.advance()
	return args, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lex.Number:
		p.advance()
		return NumLit{V: int64(t.Num)}, nil
	case lex.String:
		p.advance()
		return StrLit{S: t.Text}, nil
	case lex.MblRef:
		p.advance()
		return MblExpr{Name: t.Text, Line: t.Line}, nil
	case lex.Ident:
		p.advance()
		if p.isPunct("(") {
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			return CallExpr{Name: t.Text, Args: args, Line: t.Line}, nil
		}
		return VarRef{Name: t.Text, Line: t.Line}, nil
	case lex.Punct:
		if t.Text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expect(")")
		}
	}
	return nil, p.errf("unexpected token %s", t)
}
