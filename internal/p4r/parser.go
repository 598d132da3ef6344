// Package p4r implements the P4R language frontend: a recursive-descent
// parser for the P4-14 v1.0.5 subset extended with the Mantis constructs
// of the paper's Figure 3 — `malleable value`, `malleable field`,
// `malleable table`, `${...}` malleable references, and `reaction`
// declarations with embedded C-like bodies, which internal/rcl parses
// from the same token stream (internal/p4r/lex).
//
// The original Mantis frontend is written in Flex/Bison; this package is
// a hand-written equivalent producing the same surface AST, which the
// Mantis compiler (internal/compiler) lowers to a malleable p4.Program
// plus a reaction plan.
package p4r

import (
	"fmt"

	"repro/internal/p4r/diag"
	"repro/internal/p4r/lex"
	"repro/internal/rcl"
)

// Parser is a recursive-descent parser for P4R source with one token of
// lookahead.
type Parser struct {
	src string
	lx  *lex.Lexer
	cur lex.Token
	f   *File
}

// Parse parses a complete P4R source file.
func Parse(src string) (*File, error) {
	p := &Parser{src: src, lx: lex.New(src), f: &File{}}
	p.lx.Dotted = true
	if err := p.next(); err != nil {
		return nil, err
	}
	for p.cur.Kind != lex.EOF {
		if err := p.parseTopLevel(); err != nil {
			return nil, err
		}
	}
	return p.f, nil
}

func (p *Parser) next() error {
	tok, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.cur = tok
	return nil
}

// errf reports a generic syntax error at the current token.
func (p *Parser) errf(format string, args ...any) error {
	return p.errc(diag.SyntaxError, format, args...)
}

// errc reports a coded syntax error at the current token.
func (p *Parser) errc(code, format string, args ...any) error {
	return diag.Errorf(code, p.cur.Line, p.cur.Col, format, args...)
}

func (p *Parser) expectIdent() (lex.Token, error) {
	if p.cur.Kind != lex.Ident {
		return lex.Token{}, p.errf("expected identifier, got %s", p.cur)
	}
	tok := p.cur
	return tok, p.next()
}

func (p *Parser) expectNumber() (uint64, error) {
	if p.cur.Kind != lex.Number {
		return 0, p.errf("expected number, got %s", p.cur)
	}
	v := p.cur.Num
	return v, p.next()
}

func (p *Parser) expectPunct(text string) error {
	if p.cur.Kind != lex.Punct || p.cur.Text != text {
		return p.errf("expected %q, got %s", text, p.cur)
	}
	return p.next()
}

func (p *Parser) isPunct(text string) bool {
	return p.cur.Kind == lex.Punct && p.cur.Text == text
}

func (p *Parser) acceptPunct(text string) (bool, error) {
	if p.isPunct(text) {
		return true, p.next()
	}
	return false, nil
}

// keyNumber parses `key : <number> ;` where the key identifier was
// already consumed.
func (p *Parser) keyNumber() (uint64, error) {
	if err := p.expectPunct(":"); err != nil {
		return 0, err
	}
	v, err := p.expectNumber()
	if err != nil {
		return 0, err
	}
	return v, p.expectPunct(";")
}

func (p *Parser) parseTopLevel() error {
	if p.cur.Kind != lex.Ident {
		return p.errf("expected declaration, got %s", p.cur)
	}
	switch p.cur.Text {
	case "header_type":
		return p.parseHeaderType()
	case "header", "metadata":
		return p.parseInstance()
	case "register":
		return p.parseRegister()
	case "field_list":
		return p.parseFieldList()
	case "field_list_calculation":
		return p.parseFieldListCalc()
	case "action":
		return p.parseAction()
	case "table":
		if err := p.next(); err != nil {
			return err
		}
		return p.parseTable(false)
	case "malleable":
		return p.parseMalleable()
	case "reaction":
		return p.parseReaction()
	case "control":
		return p.parseControl()
	default:
		return p.errc(diag.UnknownConstruct, "unknown declaration %q", p.cur.Text)
	}
}

func (p *Parser) parseHeaderType() error {
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	ht := &HeaderType{Name: name.Text, Line: line, Col: col}
	// fields { name : width; ... }
	kw, err := p.expectIdent()
	if err != nil {
		return err
	}
	if kw.Text != "fields" {
		return p.errf("expected 'fields' in header_type %s", name.Text)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.isPunct("}") {
		fname, err := p.expectIdent()
		if err != nil {
			return err
		}
		w, err := p.keyNumber()
		if err != nil {
			return err
		}
		ht.Fields = append(ht.Fields, FieldDef{Name: fname.Text, Width: int(w)})
	}
	if err := p.next(); err != nil { // consume inner }
		return err
	}
	if err := p.expectPunct("}"); err != nil {
		return err
	}
	p.f.HeaderTypes = append(p.f.HeaderTypes, ht)
	return nil
}

func (p *Parser) parseInstance() error {
	meta := p.cur.Text == "metadata"
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	typ, err := p.expectIdent()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	p.f.Instances = append(p.f.Instances, &Instance{
		TypeName: typ.Text, Name: name.Text, Metadata: meta, Line: line, Col: col,
	})
	return nil
}

func (p *Parser) parseRegister() error {
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	r := &RegisterDecl{Name: name.Text, Line: line, Col: col}
	for !p.isPunct("}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		v, err := p.keyNumber()
		if err != nil {
			return err
		}
		switch key.Text {
		case "width":
			r.Width = int(v)
		case "instance_count":
			r.InstanceCount, r.CountLine, r.CountCol = int(v), key.Line, key.Col
		default:
			return diag.Errorf(diag.UnknownConstruct, key.Line, key.Col, "unknown register attribute %q", key.Text)
		}
	}
	if err := p.next(); err != nil {
		return err
	}
	if r.Width == 0 {
		return diag.Errorf(diag.MissingAttr, name.Line, name.Col, "register %s missing width", r.Name)
	}
	if r.CountLine == 0 {
		r.InstanceCount = 1
	}
	p.f.Registers = append(p.f.Registers, r)
	return nil
}

// parseArg parses an identifier, number, or ${mbl} reference.
func (p *Parser) parseArg() (Arg, error) {
	switch p.cur.Kind {
	case lex.Ident:
		a := Arg{Kind: ArgIdent, Ident: p.cur.Text, Line: p.cur.Line, Col: p.cur.Col}
		return a, p.next()
	case lex.Number:
		a := Arg{Kind: ArgConst, Value: p.cur.Num, Line: p.cur.Line, Col: p.cur.Col}
		return a, p.next()
	case lex.MblRef:
		a := Arg{Kind: ArgMblRef, Mbl: p.cur.Text, Line: p.cur.Line, Col: p.cur.Col}
		return a, p.next()
	default:
		return Arg{}, p.errf("expected argument, got %s", p.cur)
	}
}

func (p *Parser) parseFieldList() error {
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	fl := &FieldList{Name: name.Text, Line: line, Col: col}
	for !p.isPunct("}") {
		a, err := p.parseArg()
		if err != nil {
			return err
		}
		fl.Entries = append(fl.Entries, a)
		if ok, err := p.acceptPunct(";"); err != nil {
			return err
		} else if !ok {
			if _, err := p.acceptPunct(","); err != nil {
				return err
			}
		}
	}
	if err := p.next(); err != nil {
		return err
	}
	p.f.FieldLists = append(p.f.FieldLists, fl)
	return nil
}

func (p *Parser) parseFieldListCalc() error {
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	c := &FieldListCalc{Name: name.Text, Line: line, Col: col}
	for !p.isPunct("}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key.Text {
		case "input":
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			in, err := p.expectIdent()
			if err != nil {
				return err
			}
			c.Input = in.Text
			if _, err := p.acceptPunct(";"); err != nil {
				return err
			}
			if err := p.expectPunct("}"); err != nil {
				return err
			}
		case "algorithm":
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			algo, err := p.expectIdent()
			if err != nil {
				return err
			}
			c.Algorithm = algo.Text
			if err := p.expectPunct(";"); err != nil {
				return err
			}
		case "output_width":
			w, err := p.keyNumber()
			if err != nil {
				return err
			}
			c.OutputWidth = int(w)
		default:
			return diag.Errorf(diag.UnknownConstruct, key.Line, key.Col, "unknown field_list_calculation attribute %q", key.Text)
		}
	}
	if err := p.next(); err != nil {
		return err
	}
	p.f.Calcs = append(p.f.Calcs, c)
	return nil
}

func (p *Parser) parseAction() error {
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	a := &ActionDecl{Name: name.Text, Line: line, Col: col}
	for !p.isPunct(")") {
		param, err := p.expectIdent()
		if err != nil {
			return err
		}
		a.Params = append(a.Params, param.Text)
		if _, err := p.acceptPunct(","); err != nil {
			return err
		}
	}
	if err := p.next(); err != nil { // consume )
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.isPunct("}") {
		prim, err := p.expectIdent()
		if err != nil {
			return err
		}
		call := PrimCall{Name: prim.Text, Line: prim.Line, Col: prim.Col}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !p.isPunct(")") {
			arg, err := p.parseArg()
			if err != nil {
				return err
			}
			call.Args = append(call.Args, arg)
			if _, err := p.acceptPunct(","); err != nil {
				return err
			}
		}
		if err := p.next(); err != nil { // consume )
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		a.Body = append(a.Body, call)
	}
	if err := p.next(); err != nil {
		return err
	}
	p.f.Actions = append(p.f.Actions, a)
	return nil
}

var matchTypes = map[string]bool{"exact": true, "ternary": true, "lpm": true, "range": true}

func (p *Parser) parseTable(malleable bool) error {
	line, col := p.cur.Line, p.cur.Col
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	t := &TableDecl{Name: name.Text, Malleable: malleable, Line: line, Col: col}
	for !p.isPunct("}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key.Text {
		case "reads":
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			for !p.isPunct("}") {
				target, err := p.parseArg()
				if err != nil {
					return err
				}
				if target.Kind == ArgConst {
					return diag.Errorf(diag.SyntaxError, target.Line, target.Col, "table %s: read key cannot be a constant", t.Name)
				}
				rk := ReadKey{Target: target, Line: target.Line, Col: target.Col}
				if p.cur.Kind == lex.Ident && p.cur.Text == "mask" {
					if err := p.next(); err != nil {
						return err
					}
					m, err := p.expectNumber()
					if err != nil {
						return err
					}
					rk.Mask, rk.HasMask = m, true
				}
				if err := p.expectPunct(":"); err != nil {
					return err
				}
				mt, err := p.expectIdent()
				if err != nil {
					return err
				}
				if !matchTypes[mt.Text] {
					return diag.Errorf(diag.UnknownConstruct, mt.Line, mt.Col, "table %s: unknown match type %q", t.Name, mt.Text)
				}
				if err := p.expectPunct(";"); err != nil {
					return err
				}
				rk.MatchType = mt.Text
				t.Reads = append(t.Reads, rk)
			}
			if err := p.next(); err != nil {
				return err
			}
		case "actions":
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			for !p.isPunct("}") {
				an, err := p.expectIdent()
				if err != nil {
					return err
				}
				if err := p.expectPunct(";"); err != nil {
					return err
				}
				t.Actions = append(t.Actions, an.Text)
			}
			if err := p.next(); err != nil {
				return err
			}
		case "default_action":
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			an, err := p.expectIdent()
			if err != nil {
				return err
			}
			d := &DefaultCall{Action: an.Text}
			if ok, err := p.acceptPunct("("); err != nil {
				return err
			} else if ok {
				for !p.isPunct(")") {
					v, err := p.expectNumber()
					if err != nil {
						return err
					}
					d.Args = append(d.Args, v)
					if _, err := p.acceptPunct(","); err != nil {
						return err
					}
				}
				if err := p.next(); err != nil {
					return err
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			t.Default = d
		case "size":
			v, err := p.keyNumber()
			if err != nil {
				return err
			}
			t.Size, t.SizeLine, t.SizeCol = int(v), key.Line, key.Col
		default:
			return diag.Errorf(diag.UnknownConstruct, key.Line, key.Col, "unknown table attribute %q", key.Text)
		}
	}
	if err := p.next(); err != nil {
		return err
	}
	p.f.Tables = append(p.f.Tables, t)
	return nil
}

func (p *Parser) parseMalleable() error {
	if err := p.next(); err != nil {
		return err
	}
	kind, err := p.expectIdent()
	if err != nil {
		return err
	}
	switch kind.Text {
	case "value":
		return p.parseMblValue()
	case "field":
		return p.parseMblField()
	case "table":
		return p.parseTable(true)
	default:
		return diag.Errorf(diag.BadMalleable, kind.Line, kind.Col, "malleable %q: expected value, field, or table", kind.Text)
	}
}

func (p *Parser) parseMblValue() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	line, col := name.Line, name.Col
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	m := &MblValue{Name: name.Text, Line: line, Col: col}
	for !p.isPunct("}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		v, err := p.keyNumber()
		if err != nil {
			return err
		}
		switch key.Text {
		case "width":
			m.Width = int(v)
		case "init":
			m.Init = v
		default:
			return diag.Errorf(diag.UnknownConstruct, key.Line, key.Col, "unknown malleable value attribute %q", key.Text)
		}
	}
	if err := p.next(); err != nil {
		return err
	}
	if m.Width == 0 {
		return diag.Errorf(diag.MissingAttr, line, col, "malleable value %s missing width", m.Name)
	}
	p.f.MblValues = append(p.f.MblValues, m)
	return nil
}

func (p *Parser) parseMblField() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	line, col := name.Line, name.Col
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	m := &MblField{Name: name.Text, Line: line, Col: col}
	for !p.isPunct("}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key.Text {
		case "width":
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			v, err := p.expectNumber()
			if err != nil {
				return err
			}
			m.Width = int(v)
			if err := p.expectPunct(";"); err != nil {
				return err
			}
		case "init":
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			f, err := p.expectIdent()
			if err != nil {
				return err
			}
			m.Init = f.Text
			if err := p.expectPunct(";"); err != nil {
				return err
			}
		case "alts":
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			for !p.isPunct("}") {
				f, err := p.expectIdent()
				if err != nil {
					return err
				}
				m.Alts = append(m.Alts, f.Text)
				if _, err := p.acceptPunct(","); err != nil {
					return err
				}
			}
			if err := p.next(); err != nil {
				return err
			}
			// optional trailing ;
			if _, err := p.acceptPunct(";"); err != nil {
				return err
			}
		default:
			return diag.Errorf(diag.UnknownConstruct, key.Line, key.Col, "unknown malleable field attribute %q", key.Text)
		}
	}
	if err := p.next(); err != nil {
		return err
	}
	if m.Width == 0 {
		return diag.Errorf(diag.MissingAttr, line, col, "malleable field %s missing width", m.Name)
	}
	if len(m.Alts) == 0 {
		return diag.Errorf(diag.MissingAttr, line, col, "malleable field %s has no alts", m.Name)
	}
	if m.Init == "" {
		m.Init = m.Alts[0]
	}
	if m.InitAltIndex() < 0 {
		return diag.Errorf(diag.BadMalleable, line, col, "malleable field %s: init %q not in alts", m.Name, m.Init)
	}
	p.f.MblFields = append(p.f.MblFields, m)
	return nil
}

func (p *Parser) parseReaction() error {
	line, col := p.cur.Line, p.cur.Col
	if err := p.next(); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	r := &Reaction{Name: name.Text, Line: line, Col: col}
	for !p.isPunct(")") {
		param, err := p.parseReactionParam()
		if err != nil {
			return err
		}
		r.Params = append(r.Params, param)
		if _, err := p.acceptPunct(","); err != nil {
			return err
		}
	}
	if err := p.next(); err != nil { // consume )
		return err
	}
	if !p.isPunct("{") {
		return p.errf("expected reaction body, got %s", p.cur)
	}
	// The lexer has just returned the body's '{': the reaction language
	// reads on from there to the matching brace, and hands the lexer back
	// just past it.
	start := p.lx.Offset()
	stmts, err := rcl.ParseBlock(p.lx)
	if d, ok := err.(*diag.Diagnostic); ok {
		d.Msg = fmt.Sprintf("reaction %s: %s", r.Name, d.Msg)
	}
	if err != nil {
		return err
	}
	r.Body, r.Stmts = p.src[start:p.lx.Offset()-1], stmts
	if err := p.next(); err != nil {
		return err
	}
	p.f.Reactions = append(p.f.Reactions, r)
	return nil
}

func (p *Parser) parseReactionParam() (ReactionParam, error) {
	kindTok, err := p.expectIdent()
	if err != nil {
		return ReactionParam{}, err
	}
	rp := ReactionParam{Line: kindTok.Line, Col: kindTok.Col}
	switch kindTok.Text {
	case "ing":
		rp.Kind = ParamIng
	case "egr":
		rp.Kind = ParamEgr
	case "reg":
		rp.Kind = ParamReg
	default:
		return ReactionParam{}, diag.Errorf(diag.BadReactionParam, kindTok.Line, kindTok.Col, "reaction parameter must start with ing, egr, or reg (got %q)", kindTok.Text)
	}
	if rp.Kind == ParamReg {
		name, err := p.expectIdent()
		if err != nil {
			return ReactionParam{}, err
		}
		rp.Target = name.Text
		if ok, err := p.acceptPunct("["); err != nil {
			return ReactionParam{}, err
		} else if ok {
			lo, err := p.expectNumber()
			if err != nil {
				return ReactionParam{}, err
			}
			if err := p.expectPunct(":"); err != nil {
				return ReactionParam{}, err
			}
			hi, err := p.expectNumber()
			if err != nil {
				return ReactionParam{}, err
			}
			if err := p.expectPunct("]"); err != nil {
				return ReactionParam{}, err
			}
			// Compared as written: as an int, a bound of 2^64-1 would read
			// as -1, the whole-register sentinel below.
			for _, b := range [2]uint64{lo, hi} {
				if b > MaxCount {
					return ReactionParam{}, diag.Errorf(diag.BadReactionParam, rp.Line, rp.Col, "register slice bound %d exceeds %d, the largest instance_count", b, MaxCount)
				}
			}
			if hi < lo {
				return ReactionParam{}, diag.Errorf(diag.BadReactionParam, rp.Line, rp.Col, "register slice [%d:%d] inverted", lo, hi)
			}
			rp.Lo, rp.Hi = int(lo), int(hi)
		} else {
			rp.Lo, rp.Hi = 0, -1 // full array, resolved at compile time
		}
		return rp, nil
	}
	arg, err := p.parseArg()
	if err != nil {
		return ReactionParam{}, err
	}
	switch arg.Kind {
	case ArgIdent:
		rp.Target = arg.Ident
	case ArgMblRef:
		rp.Target = arg.Mbl
		rp.IsMbl = true
	default:
		return ReactionParam{}, diag.Errorf(diag.BadReactionParam, arg.Line, arg.Col, "reaction parameter cannot be a constant")
	}
	return rp, nil
}

func (p *Parser) parseControl() error {
	if err := p.next(); err != nil {
		return err
	}
	which, err := p.expectIdent()
	if err != nil {
		return err
	}
	if which.Text != "ingress" && which.Text != "egress" {
		return p.errf("control must be ingress or egress, got %q", which.Text)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	stmts, err := p.parseStmts()
	if err != nil {
		return err
	}
	if which.Text == "ingress" {
		p.f.Ingress = append(p.f.Ingress, stmts...)
	} else {
		p.f.Egress = append(p.f.Egress, stmts...)
	}
	return nil
}

// parseStmts parses statements until the closing '}' (consumed).
func (p *Parser) parseStmts() ([]Stmt, error) {
	var out []Stmt
	for !p.isPunct("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, p.next()
}

func (p *Parser) parseStmt() (Stmt, error) {
	kw, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch kw.Text {
	case "apply":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return ApplyStmt{Table: name.Text, Line: name.Line, Col: name.Col}, nil
	case "if":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		left, err := p.parseArg()
		if err != nil {
			return nil, err
		}
		if p.cur.Kind != lex.Punct {
			return nil, p.errf("expected comparison operator, got %s", p.cur)
		}
		op := p.cur.Text
		switch op {
		case "==", "!=", "<", "<=", ">", ">=":
		default:
			return nil, p.errf("unknown comparison operator %q", op)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseArg()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		then, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		st := IfStmt{Cond: CondExpr{Left: left, Op: op, Right: right}, Then: then}
		if p.cur.Kind == lex.Ident && p.cur.Text == "else" {
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			els, err := p.parseStmts()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	default:
		return nil, p.errf("unknown statement %q", kw.Text)
	}
}
