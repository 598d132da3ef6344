// Package p4r implements the P4R language frontend: a lexer and
// recursive-descent parser for the P4-14 v1.0.5 subset extended with the
// Mantis constructs of the paper's Figure 3 — `malleable value`,
// `malleable field`, `malleable table`, `${...}` malleable references,
// and `reaction` declarations with embedded C-like bodies.
//
// The original Mantis frontend is written in Flex/Bison; this package is
// a hand-written equivalent producing the same surface AST, which the
// Mantis compiler (internal/compiler) lowers to a malleable p4.Program
// plus a reaction plan.
package p4r

import (
	"fmt"
	"strconv"
	"unicode"

	"repro/internal/p4r/diag"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokPunct  // single or multi-char punctuation: { } ( ) ; : , [ ] < > = etc.
	TokMblRef // ${name}
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Num  uint64
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokMblRef:
		return fmt.Sprintf("${%s}", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Lexer tokenizes P4R source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekByteAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekByteAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekByteAt(1) == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekByteAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return diag.Errorf(diag.BadLiteral, startLine, startCol, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '.' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token. Dotted names like hdr.foo lex as a single
// identifier, matching how P4-14 references header instance fields.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	c := lx.peekByte()

	// ${name}
	if c == '$' && lx.peekByteAt(1) == '{' {
		lx.advance()
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		name := lx.src[start:lx.pos]
		if name == "" {
			return Token{}, diag.Errorf(diag.BadLiteral, line, col, "empty malleable reference")
		}
		if lx.peekByte() != '}' {
			return Token{}, diag.Errorf(diag.BadLiteral, line, col, "malleable reference ${%s missing '}'", name)
		}
		lx.advance()
		return Token{Kind: TokMblRef, Text: name, Line: line, Col: col}, nil
	}

	if isIdentStart(c) {
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		return Token{Kind: TokIdent, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
	}

	if unicode.IsDigit(rune(c)) {
		start := lx.pos
		if c == '0' && (lx.peekByteAt(1) == 'x' || lx.peekByteAt(1) == 'X') {
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) && isHex(lx.peekByte()) {
				lx.advance()
			}
			text := lx.src[start:lx.pos]
			v, err := strconv.ParseUint(text, 0, 64)
			if err != nil {
				return Token{}, diag.Errorf(diag.BadLiteral, line, col, "bad hex literal %q", text)
			}
			return Token{Kind: TokNumber, Text: text, Num: v, Line: line, Col: col}, nil
		}
		for lx.pos < len(lx.src) && unicode.IsDigit(rune(lx.peekByte())) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return Token{}, diag.Errorf(diag.BadLiteral, line, col, "bad number literal %q", text)
		}
		return Token{Kind: TokNumber, Text: text, Num: v, Line: line, Col: col}, nil
	}

	// Multi-char punctuation used in conditions.
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||":
		lx.advance()
		lx.advance()
		return Token{Kind: TokPunct, Text: two, Line: line, Col: col}, nil
	}
	lx.advance()
	return Token{Kind: TokPunct, Text: string(c), Line: line, Col: col}, nil
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
