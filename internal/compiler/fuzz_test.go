package compiler

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/p4r/diag"
)

// FuzzCompileSource: no source text panics the compiler. Every input
// ends in a plan or an error, placement included. Compiled a second
// time with DefaultOptions (the unbounded profile), every plan carries
// a placement and no budget finding (P001–P006), since an unbounded
// profile never rejects on budget. Seeded with the example
// programs, the benchmark's programs, internal/check's programs and
// the analyzer's corpus (broken programs, and reaction bodies with a
// brace inside a comment or a string).
func FuzzCompileSource(f *testing.F) {
	f.Add(check.TwoTableSrc)
	f.Add(check.FaultSweepSrc)
	var paths []string
	for _, glob := range []string{
		"../../examples/p4r/*.p4r",
		"../../bench/programs/*.p4r",
		"../p4r/analysis/testdata/*.p4r",
	} {
		matches, err := filepath.Glob(glob)
		if err != nil || len(matches) == 0 {
			f.Fatalf("%s: %v", glob, err)
		}
		paths = append(paths, matches...)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		opts := DefaultOptions()
		opts.Target = "generic-16stage"
		if plan, err := CompileSource(src, opts); plan == nil && err == nil {
			t.Fatal("no plan and no error")
		}
		plan, err := CompileSource(src, DefaultOptions())
		if plan == nil {
			if err == nil {
				t.Fatal("no plan and no error")
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
