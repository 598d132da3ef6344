package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestWrapcheck(t *testing.T) {
	linttest.Run(t, lint.WrapcheckAnalyzer, filepath.Join("testdata", "wrapcheck"), "repro/internal/driver")
}

func TestSimclock(t *testing.T) {
	linttest.Run(t, lint.SimclockAnalyzer, filepath.Join("testdata", "simclock"), "repro/internal/sim")
}

func TestJournalIntent(t *testing.T) {
	linttest.Run(t, lint.JournalIntentAnalyzer, filepath.Join("testdata", "journalintent"), "repro/internal/core")
}

func TestDiagcode(t *testing.T) {
	linttest.Run(t, lint.DiagcodeAnalyzer, filepath.Join("testdata", "diagcode"), "repro/internal/compiler/place")
}

// TestMatchScoping pins that analyzers stay out of packages they were
// not written for — running e.g. simclock on cmd/experiments would flag
// legitimate wall-clock use.
func TestMatchScoping(t *testing.T) {
	cases := []struct {
		path string
		want []string
	}{
		{"repro/internal/driver", []string{"wrapcheck"}},
		{"repro/internal/ctlplane", []string{"wrapcheck", "journalintent"}},
		{"repro/internal/faults", []string{"wrapcheck"}},
		{"repro/internal/sim", []string{"simclock"}},
		{"repro/internal/rmt", []string{"simclock"}},
		{"repro/internal/core", []string{"simclock", "journalintent"}},
		{"repro/internal/fabric", []string{"simclock"}},
		{"repro/internal/ctlchan", []string{"journalintent"}},
		{"repro/internal/compiler", []string{"diagcode"}},
		{"repro/internal/compiler/place", []string{"diagcode"}},
		{"repro/cmd/experiments", nil},
		{"repro/internal/corelike", nil},
	}
	for _, tc := range cases {
		var got []string
		for _, a := range lint.All() {
			if a.Match(tc.path) {
				got = append(got, a.Name)
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: matched %v, want %v", tc.path, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: matched %v, want %v", tc.path, got, tc.want)
			}
		}
	}
}

// TestRepoClean runs every analyzer over the real repository packages —
// the same sweep CI performs via `go vet -vettool` — and requires zero
// findings. A regression here means new code broke one of the linted
// invariants (or an analyzer grew a false positive; fix whichever is
// wrong).
func TestRepoClean(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs := map[string]bool{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if info.IsDir() {
			base := filepath.Base(path)
			if base == "testdata" || base == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) == ".go" {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		importPath := "repro"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}

		fset := token.NewFileSet()
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, path := range matches {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			files = append(files, f)
		}
		diags, err := lint.RunAll(fset, files, importPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("repo not lint-clean: %s", d)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("walked only %d package dirs; repo layout changed?", checked)
	}
}
