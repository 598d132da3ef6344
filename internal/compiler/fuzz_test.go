package compiler_test

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/compiler"
	"repro/internal/p4r"
	"repro/internal/p4r/analysis"
	"repro/internal/p4r/diag"
	"repro/internal/rcl"
)

// FuzzCompileSource: no source text panics the compiler. Every input
// ends in a plan or an error, placement included. Compiled a second
// time with DefaultOptions (the unbounded profile), every plan carries
// a placement and no budget finding (P001–P006), since an unbounded
// profile never rejects on budget, and a program the analyzer accepts
// always has a plan: lowering cannot fail. Seeded with the example
// programs, the benchmark's programs, internal/check's programs and
// the analyzer's corpus (broken programs, and reaction bodies with a
// brace inside a comment or a string).
//
// Reaction bodies are parsed once, with the file, so the fuzzer also
// holds the file parser and the reaction language to one reading of a
// body: a body rcl accepts (the input itself, taken as one), embedded in
// a reaction, yields the same statements, and so does every parsed
// reaction's body text on its own. Positions aside: embedded, they are
// the file's.
func FuzzCompileSource(f *testing.F) {
	for _, prog := range compileSeeds(f) {
		f.Add(prog.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if stmts, err := rcl.ParseBody(src); err == nil {
			file, err := p4r.Parse("reaction r() {" + src + "\n}\n")
			if err != nil {
				t.Fatalf("a body rcl accepts does not parse in a reaction: %v", err)
			}
			if got, want := shape(file.Reactions[0].Stmts), shape(stmts); got != want {
				t.Fatalf("embedded body parses to\n%s\nalone to\n%s", got, want)
			}
		}
		if file, err := p4r.Parse(src); err == nil {
			for _, r := range file.Reactions {
				stmts, err := rcl.ParseBody(r.Body)
				if err != nil {
					t.Fatalf("reaction %s: its body alone does not parse: %v", r.Name, err)
				}
				if got, want := shape(r.Stmts), shape(stmts); got != want {
					t.Fatalf("reaction %s parses to\n%s\nits body alone to\n%s", r.Name, got, want)
				}
			}
		}
		opts := compiler.DefaultOptions()
		opts.Target = "generic-16stage"
		if plan, err := compiler.CompileSource(src, opts); plan == nil && err == nil {
			t.Fatal("no plan and no error")
		}
		plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
		if plan == nil {
			if err == nil {
				t.Fatal("no plan and no error")
			}
			if file, perr := p4r.Parse(src); perr == nil && !analysis.Analyze(file, analysis.Limits{}).HasErrors() {
				t.Fatalf("the analyzer accepts a program that does not compile: %v", err)
			}
			return
		}
		if plan.Placement == nil {
			t.Fatal("plan without a placement")
		}
		for _, d := range plan.Diags.Diags {
			switch d.Code {
			case diag.PlaceStages, diag.PlaceSRAM, diag.PlaceTCAM, diag.PlaceRegFile, diag.PlaceOversized, diag.PlaceSlots:
				t.Fatalf("unbounded placement reported a budget finding: %v", d)
			}
		}
	})
}

var linePos = regexp.MustCompile(`Line:\d+`)

// shape renders statements with their positions blanked.
func shape(stmts []rcl.Stmt) string {
	return linePos.ReplaceAllString(fmt.Sprintf("%#v", stmts), "Line:_")
}
