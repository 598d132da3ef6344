// Package diag defines the structured diagnostic type shared by the P4R
// frontend (lexer, parser), the semantic analyzer
// (internal/p4r/analysis), and the Mantis compiler (internal/compiler).
//
// A Diagnostic carries a stable machine-readable code, a severity, a
// source position, a human message, and an optional hint. A List
// collects many diagnostics (the analyzer reports everything it finds
// instead of dying on the first problem) and implements error, so
// existing `(*File, error)` / `(*Plan, error)` signatures keep working
// unchanged while callers that care can errors.As their way back to the
// structured form.
//
// Code families:
//
//	S0xx — syntax errors from the lexer/parser (always fail-first)
//	M0xx — semantic analysis findings (collect-all, pre-lowering)
//	L0xx — constructs the compiler cannot lower, found by the analyzer
//	       (collect-all, pre-lowering), and the backend's self-check
//	P0xx — placement/fit findings from the RMT resource-allocation
//	       pass (internal/compiler/place, collect-all, post-lowering)
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity int

// Severities. Error blocks compilation; Warning does not unless the
// caller promotes warnings (mantisc -Werror).
const (
	Error Severity = iota
	Warning
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Syntax codes (lexer + parser).
const (
	SyntaxError      = "S001" // unexpected token / malformed construct
	UnknownConstruct = "S002" // unknown declaration, attribute, or keyword
	MissingAttr      = "S003" // required attribute absent (width, alts, ...)
	BadMalleable     = "S004" // malformed malleable declaration
	BadReactionParam = "S005" // malformed reaction parameter
	BadLiteral       = "S006" // unterminated/invalid token at the lexical level
)

// Semantic codes (internal/p4r/analysis passes).
const (
	UndeclaredMbl   = "M001" // ${x} reference to an undeclared malleable
	UnusedMbl       = "M002" // malleable declared but never referenced (warning)
	WriteNonMbl     = "M003" // reaction assigns to a polled parameter
	ReadBeforePoll  = "M004" // reaction reads a register it does not poll
	WidthMismatch   = "M005" // width/type mismatch in a reaction expression
	InitCapacity    = "M006" // malleable exceeds init-action capacity
	RegSliceRange   = "M007" // register slice out of range or inverted
	DefaultArity    = "M008" // default_action argument count mismatch
	DuplicateAction = "M009" // action listed twice in a table
	IsolationHazard = "M010" // unpolled read of a data-plane-written register
	UnreachableDecl = "M011" // declared action/register reachable from no table or reaction (warning)
	TableExpansion  = "M012" // generated entries exceed platform table capacity
	DuplicateDecl   = "M013" // duplicate top-level declaration, or a field redefined at another width
	UnknownSymbol   = "M014" // reference to an undeclared field, action, or table
)

// Lowering codes. The analyzer reports L002 and L003 before lowering
// runs, so lowering itself cannot fail; L004 is the backend's check of
// its own output. L001 (an unknown name met during lowering) is
// retired: the analyzer reports every unknown name as M001 or M014.
const (
	LowerInvalid  = "L002" // construct cannot be lowered as written
	LowerCapacity = "L003" // width or count outside its range
	LowerInternal = "L004" // generated program failed validation
)

// Placement codes (internal/compiler/place). The placement pass runs
// after every lowering and charges the generated program against a
// switch profile's per-stage budgets; like the semantic analyzer it
// collects every violation instead of dying on the first. P001–P006
// fire only under a bounded profile; P008 fires under every profile.
const (
	PlaceStages    = "P001" // dependency chain needs more stages than the profile has
	PlaceSRAM      = "P002" // no stage has enough SRAM left for a table
	PlaceTCAM      = "P003" // no stage has enough TCAM left for a table
	PlaceRegFile   = "P004" // per-stage register-file budget exceeded
	PlaceOversized = "P005" // one table exceeds an empty stage's budget outright
	PlaceSlots     = "P006" // no stage has a free logical table slot
	PlaceProfile   = "P007" // unknown -target profile or malformed profile file
	PlaceRegStages = "P008" // a register is reached from tables in more than one stage
)

// Diagnostic is one analyzer or compiler finding. Line and Col are
// 1-based; zero means unknown.
type Diagnostic struct {
	Code     string
	Severity Severity
	Line     int
	Col      int
	Msg      string
	Hint     string
}

// Error renders the diagnostic in the canonical single-line form used by
// golden tests and the CLIs: "line L:C: severity[CODE]: msg (hint)".
func (d *Diagnostic) Error() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "line %d:", d.Line)
		if d.Col > 0 {
			fmt.Fprintf(&b, "%d:", d.Col)
		}
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "%s[%s]: %s", d.Severity, d.Code, d.Msg)
	if d.Hint != "" {
		fmt.Fprintf(&b, " (%s)", d.Hint)
	}
	return b.String()
}

// WithHint returns a copy of d carrying the given hint.
func (d *Diagnostic) WithHint(format string, args ...any) *Diagnostic {
	c := *d
	c.Hint = fmt.Sprintf(format, args...)
	return &c
}

// Errorf builds an Error-severity diagnostic at line:col.
func Errorf(code string, line, col int, format string, args ...any) *Diagnostic {
	return &Diagnostic{Code: code, Severity: Error, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Warnf builds a Warning-severity diagnostic at line:col.
func Warnf(code string, line, col int, format string, args ...any) *Diagnostic {
	return &Diagnostic{Code: code, Severity: Warning, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// List is an ordered collection of diagnostics. The zero value is ready
// to use. A *List implements error (rendering every entry, one per
// line), so it can flow through existing error returns.
type List struct {
	Diags []*Diagnostic
}

// Add appends diagnostics to the list, dropping nils.
func (l *List) Add(ds ...*Diagnostic) {
	for _, d := range ds {
		if d != nil {
			l.Diags = append(l.Diags, d)
		}
	}
}

// Merge appends every diagnostic of other (which may be nil).
func (l *List) Merge(other *List) {
	if other != nil {
		l.Add(other.Diags...)
	}
}

// Len returns the number of collected diagnostics.
func (l *List) Len() int { return len(l.Diags) }

// HasErrors reports whether any diagnostic has Error severity.
func (l *List) HasErrors() bool {
	for _, d := range l.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Warnings returns the Warning-severity subset, in order.
func (l *List) Warnings() []*Diagnostic {
	var out []*Diagnostic
	for _, d := range l.Diags {
		if d.Severity == Warning {
			out = append(out, d)
		}
	}
	return out
}

// Promote upgrades every warning to an error (mantisc -Werror).
func (l *List) Promote() {
	for _, d := range l.Diags {
		if d.Severity == Warning {
			d.Severity = Error
		}
	}
}

// Sort orders diagnostics by position, then code, preserving the
// relative order of diagnostics at the same position and code.
func (l *List) Sort() {
	sort.SliceStable(l.Diags, func(i, j int) bool {
		a, b := l.Diags[i], l.Diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
}

// Error renders every diagnostic, one per line.
func (l *List) Error() string {
	lines := make([]string, len(l.Diags))
	for i, d := range l.Diags {
		lines[i] = d.Error()
	}
	return strings.Join(lines, "\n")
}
