package compiler

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
)

// FuzzCompileSource: no source text panics the compiler. Every input
// ends in a plan or an error, placement included. Seeded with the
// example programs, internal/check's programs and the analyzer's
// corpus of broken programs.
func FuzzCompileSource(f *testing.F) {
	f.Add(check.TwoTableSrc)
	f.Add(check.FaultSweepSrc)
	paths, err := filepath.Glob("../../examples/p4r/*.p4r")
	if err != nil {
		f.Fatal(err)
	}
	corpus, err := filepath.Glob("../p4r/analysis/testdata/*.p4r")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(paths, corpus...) {
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
	})
}
