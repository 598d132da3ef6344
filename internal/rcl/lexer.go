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
// Values are signed 64-bit integers with C-like operator semantics.
// Declared widths (uint16_t, ...) mask on assignment the way C integer
// conversion would.
package rcl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/p4r/diag"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString
	tMbl   // ${name}
	tPunct // operators and punctuation
)

type token struct {
	kind tokKind
	text string
	num  int64
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		if t.text != "" {
			return fmt.Sprintf("%q", t.text) // the brace that closes a block
		}
		return "end of input"
	case tMbl:
		return fmt.Sprintf("${%s}", t.text)
	case tString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Pos is a position in a source text: a byte offset and the 1-based
// line and byte column there, counted the way the P4R lexer counts them.
type Pos struct{ Off, Line, Col int }

// twoCharOps are multi-character operators, longest-match-first.
var threeCharOps = []string{"<<=", ">>="}
var twoCharOps = []string{
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
}

// lex tokenizes src from at. In block mode at sits just past a '{' and
// lexing stops at the '}' that closes it: the tEOF token stands at that
// brace, and the returned position is just past it. Otherwise lexing
// runs to the end of src. Token and error positions are src's.
func lex(src string, at Pos, block bool) ([]token, Pos, error) {
	var toks []token
	line, lineStart := at.Line, at.Off-(at.Col-1)
	depth := 0
	i := at.Off
	n := len(src)
	for i < n {
		c := src[i]
		col := i - lineStart + 1
		tok := func(k tokKind, text string) {
			toks = append(toks, token{kind: k, text: text, line: line, col: col})
		}
		switch {
		case c == '\n':
			line++
			i++
			lineStart = i
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			startLine := line
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
					lineStart = i + 1
				}
				i++
			}
			if i+1 >= n {
				return nil, Pos{}, diag.Errorf(diag.BadLiteral, startLine, col, "unterminated comment")
			}
			i += 2
		case c == '$' && i+1 < n && src[i+1] == '{':
			i += 2
			start := i
			for i < n && (src[i] == '_' || src[i] == '.' || unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i]))) {
				i++
			}
			if i >= n || src[i] != '}' || i == start {
				return nil, Pos{}, diag.Errorf(diag.BadLiteral, line, col, "malformed malleable reference")
			}
			tok(tMbl, src[start:i])
			i++
		case c == '"':
			i++
			start := i
			for i < n && src[i] != '"' {
				if src[i] == '\n' {
					return nil, Pos{}, diag.Errorf(diag.BadLiteral, line, col, "newline in string literal")
				}
				i++
			}
			if i >= n {
				return nil, Pos{}, diag.Errorf(diag.BadLiteral, line, col, "unterminated string literal")
			}
			tok(tString, src[start:i])
			i++
		case c == '_' || unicode.IsLetter(rune(c)):
			start := i
			for i < n && (src[i] == '_' || unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i]))) {
				i++
			}
			tok(tIdent, src[start:i])
		case unicode.IsDigit(rune(c)):
			start := i
			base := 10
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				base = 16
				i += 2
			}
			for i < n && (isHexDigit(src[i]) && base == 16 || unicode.IsDigit(rune(src[i])) && base == 10) {
				i++
			}
			text := src[start:i]
			v, err := strconv.ParseInt(text, 0, 64)
			if err != nil {
				// Allow the full uint64 range to wrap into int64.
				u, uerr := strconv.ParseUint(text, 0, 64)
				if uerr != nil {
					return nil, Pos{}, diag.Errorf(diag.BadLiteral, line, col, "bad number %q", text)
				}
				v = int64(u)
			}
			toks = append(toks, token{kind: tNumber, text: text, num: v, line: line, col: col})
		default:
			op := ""
			for _, o := range threeCharOps {
				if strings.HasPrefix(src[i:], o) {
					op = o
					break
				}
			}
			for _, o := range twoCharOps {
				if op == "" && strings.HasPrefix(src[i:], o) {
					op = o
					break
				}
			}
			if op == "" {
				switch c {
				case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '=',
					'(', ')', '{', '}', '[', ']', ';', ',', '?', ':', '.':
					op = src[i : i+1]
				default:
					return nil, Pos{}, diag.Errorf(diag.BadLiteral, line, col, "unexpected character %q", string(c))
				}
			}
			switch {
			case op == "{":
				depth++
			case op == "}" && block && depth == 0:
				tok(tEOF, op)
				return toks, Pos{Off: i + 1, Line: line, Col: col + 1}, nil
			case op == "}":
				depth--
			}
			tok(tPunct, op)
			i += len(op)
		}
	}
	if block {
		return nil, Pos{}, diag.Errorf(diag.BadLiteral, at.Line, at.Col, "unterminated block")
	}
	toks = append(toks, token{kind: tEOF, line: line, col: n - lineStart + 1})
	return toks, Pos{Off: n, Line: line, Col: n - lineStart + 1}, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
