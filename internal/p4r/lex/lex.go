// Package lex is the one lexer of a P4R file. The P4-14 part and the
// C-like reaction bodies embedded in it share its tokens and literal
// rules, as the original Flex scanner's did; only the Dotted mode tells
// them apart. internal/p4r parses the P4 part from it and hands the same
// lexer to internal/rcl at each reaction body's '{'.
package lex

import (
	"strconv"
	"strings"
	"unicode"

	"repro/internal/p4r/diag"
)

// Kind classifies tokens.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Number
	String // a "..." literal; Text is its contents
	MblRef // ${name}; Text is the name
	Punct  // operators and punctuation
)

// Token is one lexical token with its source position: a 1-based line
// and byte column.
type Token struct {
	Kind Kind
	Text string
	Num  uint64 // a Number's value
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case MblRef:
		return "${" + t.Text + "}"
	}
	return strconv.Quote(t.Text)
}

// ops are the multi-character operators, longest first, and punct the
// single-character ones. Any other character outside a token is an
// error.
var ops = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
}

const punct = "+-*/%&|^~!<>=(){}[];,?:."

// Lexer streams the tokens of one source text.
type Lexer struct {
	// Dotted makes '.' an identifier character after the first, so
	// P4-14's hdr.field is one identifier. Off, as in a reaction body,
	// '.' is punctuation and t.addEntry is a member access.
	Dotted bool

	src       string
	off       int // the next unread byte
	line      int
	lineStart int // offset of the current line's first byte
}

// New returns a lexer at the start of src, Dotted off.
func New(src string) *Lexer { return &Lexer{src: src, line: 1} }

// Offset returns the byte offset just past the last token returned.
func (lx *Lexer) Offset() int { return lx.off }

// Pos returns the line and column of Offset.
func (lx *Lexer) Pos() (line, col int) { return lx.line, lx.off - lx.lineStart + 1 }

// Next returns the next token, or an S006 diagnostic at the start of a
// malformed one. At the end of the text it returns EOF tokens.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skip(); err != nil {
		return Token{}, err
	}
	src, start := lx.src, lx.off
	line, col := lx.Pos()
	tok := func(k Kind, text string, end int) (Token, error) {
		lx.off = end
		return Token{Kind: k, Text: text, Line: line, Col: col}, nil
	}
	bad := func(format string, args ...any) (Token, error) {
		return Token{}, diag.Errorf(diag.BadLiteral, line, col, format, args...)
	}
	if start == len(src) {
		return Token{Kind: EOF, Line: line, Col: col}, nil
	}
	c := src[start]
	switch {
	case strings.HasPrefix(src[start:], "${"):
		end := lx.ident(start+2, true)
		if end == start+2 || end == len(src) || src[end] != '}' {
			return bad("malformed malleable reference")
		}
		return tok(MblRef, src[start+2:end], end+1)
	case c == '"':
		end := start + 1
		for ; end < len(src) && src[end] != '"'; end++ {
			if src[end] == '\n' {
				return bad("newline in string literal")
			}
		}
		if end == len(src) {
			return bad("unterminated string literal")
		}
		return tok(String, src[start+1:end], end+1)
	case isLetter(c):
		end := lx.ident(start, lx.Dotted)
		return tok(Ident, src[start:end], end)
	case isDigit(c):
		// Decimal or 0x hex, as uint64. A leading zero is neither: C
		// would read 010 as octal 8 and P4 as 10.
		end, digit := start+1, isDigit
		if c == '0' && end < len(src) && (src[end] == 'x' || src[end] == 'X') {
			end, digit = end+1, isHex
		}
		for end < len(src) && digit(src[end]) {
			end++
		}
		text := src[start:end]
		if c == '0' && len(text) > 1 && isDigit(text[1]) {
			return bad("bad number %q: leading zero", text)
		}
		v, err := strconv.ParseUint(text, 0, 64)
		if err != nil {
			return bad("bad number %q", text)
		}
		lx.off = end
		return Token{Kind: Number, Text: text, Num: v, Line: line, Col: col}, nil
	}
	for _, op := range ops {
		if strings.HasPrefix(src[start:], op) {
			return tok(Punct, op, start+len(op))
		}
	}
	if strings.IndexByte(punct, c) >= 0 {
		return tok(Punct, src[start:start+1], start+1)
	}
	return bad("unexpected character %q", string(c))
}

// skip moves past white space and comments.
func (lx *Lexer) skip() error {
	src := lx.src
	for lx.off < len(src) {
		switch rest := src[lx.off:]; {
		case rest[0] == '\n':
			lx.off++
			lx.line, lx.lineStart = lx.line+1, lx.off
		case rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\r':
			lx.off++
		case strings.HasPrefix(rest, "//"):
			if n := strings.IndexByte(rest, '\n'); n >= 0 {
				lx.off += n
			} else {
				lx.off = len(src)
			}
		case strings.HasPrefix(rest, "/*"):
			n := strings.Index(rest[2:], "*/")
			if n < 0 {
				line, col := lx.Pos()
				return diag.Errorf(diag.BadLiteral, line, col, "unterminated comment")
			}
			for end := lx.off + n + 4; lx.off < end; lx.off++ {
				if src[lx.off] == '\n' {
					lx.line, lx.lineStart = lx.line+1, lx.off+1
				}
			}
		default:
			return nil
		}
	}
	return nil
}

// ident returns the end of the identifier characters from i on.
func (lx *Lexer) ident(i int, dotted bool) int {
	for i < len(lx.src) && (isLetter(lx.src[i]) || isDigit(lx.src[i]) || dotted && lx.src[i] == '.') {
		i++
	}
	return i
}

func isLetter(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isHex(c byte) bool    { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }
