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
//     (table.addEntry / modEntry / delEntry / setDefault),
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
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tMbl:
		return fmt.Sprintf("${%s}", t.text)
	case tString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// twoCharOps are multi-character operators, longest-match-first.
var threeCharOps = []string{"<<=", ">>="}
var twoCharOps = []string{
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return nil, diag.Errorf(diag.BadLiteral, line, 0, "unterminated comment")
			}
			i += 2
		case c == '$' && i+1 < n && src[i+1] == '{':
			i += 2
			start := i
			for i < n && (src[i] == '_' || src[i] == '.' || unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i]))) {
				i++
			}
			if i >= n || src[i] != '}' || i == start {
				return nil, diag.Errorf(diag.BadLiteral, line, 0, "malformed malleable reference")
			}
			toks = append(toks, token{kind: tMbl, text: src[start:i], line: line})
			i++
		case c == '"':
			i++
			start := i
			for i < n && src[i] != '"' {
				if src[i] == '\n' {
					return nil, diag.Errorf(diag.BadLiteral, line, 0, "newline in string literal")
				}
				i++
			}
			if i >= n {
				return nil, diag.Errorf(diag.BadLiteral, line, 0, "unterminated string literal")
			}
			toks = append(toks, token{kind: tString, text: src[start:i], line: line})
			i++
		case c == '_' || unicode.IsLetter(rune(c)):
			start := i
			for i < n && (src[i] == '_' || unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i]))) {
				i++
			}
			toks = append(toks, token{kind: tIdent, text: src[start:i], line: line})
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
					return nil, diag.Errorf(diag.BadLiteral, line, 0, "bad number %q", text)
				}
				v = int64(u)
			}
			toks = append(toks, token{kind: tNumber, text: text, num: v, line: line})
		default:
			matched := false
			for _, op := range threeCharOps {
				if i+3 <= n && src[i:i+3] == op {
					toks = append(toks, token{kind: tPunct, text: op, line: line})
					i += 3
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			for _, op := range twoCharOps {
				if i+2 <= n && src[i:i+2] == op {
					toks = append(toks, token{kind: tPunct, text: op, line: line})
					i += 2
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '=',
				'(', ')', '{', '}', '[', ']', ';', ',', '?', ':', '.':
				toks = append(toks, token{kind: tPunct, text: string(c), line: line})
				i++
			default:
				return nil, diag.Errorf(diag.BadLiteral, line, 0, "unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
