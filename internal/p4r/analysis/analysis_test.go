package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/p4r"
	"repro/internal/p4r/analysis"
	"repro/internal/p4r/diag"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// corpusLimits shrinks platform limits for the capacity-oriented corpus
// files so the overflow cases stay small and readable.
var corpusLimits = map[string]analysis.Limits{
	"init_capacity.p4r":   {MaxInitActionBits: 16, MeasSlotBits: 8},
	"table_expansion.p4r": {MaxTableEntries: 100},
}

// placementTargets routes the placement-failure corpus files through
// the full compile pipeline against a named switch profile, so the
// goldens pin the positioned P diagnostics rather than analyzer output.
var placementTargets = map[string]string{
	"place_stage_chain.p4r":     "mini",
	"place_tcam_budget.p4r":     "mini",
	"place_regfile.p4r":         "mini",
	"place_table_expansion.p4r": "mini",
}

// run parses and analyzes one corpus file, rendering the diagnostics in
// the canonical one-per-line form. A parse failure renders the parser's
// single fail-first diagnostic. Files listed in placementTargets run the
// full compile (lowering + placement) instead of the analyzer alone.
func run(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if target, ok := placementTargets[filepath.Base(path)]; ok {
		return runPlacement(t, string(src), target)
	}
	f, err := p4r.Parse(string(src))
	if err != nil {
		return err.Error() + "\n"
	}
	list := analysis.Analyze(f, corpusLimits[filepath.Base(path)])
	var b strings.Builder
	for _, d := range list.Diags {
		b.WriteString(d.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

// runPlacement compiles a corpus program against a switch profile and
// renders the merged diagnostic list (analysis + placement).
func runPlacement(t *testing.T, src, target string) string {
	t.Helper()
	opts := compiler.DefaultOptions()
	opts.Target = target
	plan, err := compiler.CompileSource(src, opts)
	list := &diag.List{}
	if plan != nil && plan.Diags != nil {
		list = plan.Diags
	} else if err != nil {
		if !asList(err, &list) {
			t.Fatalf("placement corpus: non-diagnostic error: %v", err)
		}
	}
	var b strings.Builder
	for _, d := range list.Diags {
		b.WriteString(d.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGolden checks every corpus program against its golden diagnostic
// output. Run with -update to regenerate goldens after intentional
// analyzer changes.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.p4r")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			got := run(t, path)
			golden := strings.TrimSuffix(path, ".p4r") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCorpusCoverage asserts the corpus exercises the diagnostic space:
// at least 8 distinct codes, each appearing in some golden file, and
// every golden line carries a source position.
func TestCorpusCoverage(t *testing.T) {
	goldens, err := filepath.Glob("testdata/*.golden")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	codes := map[string]bool{}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, "line ") {
				t.Errorf("%s: diagnostic without position: %q", path, line)
			}
			start := strings.IndexByte(line, '[')
			end := strings.IndexByte(line, ']')
			if start < 0 || end < start {
				t.Errorf("%s: diagnostic without code: %q", path, line)
				continue
			}
			codes[line[start+1:end]] = true
		}
	}
	if len(codes) < 8 {
		t.Errorf("corpus exercises %d distinct diagnostic codes, want >= 8: %v", len(codes), keys(codes))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestExamplesClean compiles every .p4r under examples/ with the full
// pipeline (analyzer included) and requires zero diagnostics — errors or
// warnings — so the shipped examples stay lint-clean.
func TestExamplesClean(t *testing.T) {
	root := filepath.Join("..", "..", "..", "examples")
	var found int
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(path) != ".p4r" {
			return err
		}
		found++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		opts := compiler.DefaultOptions()
		opts.Werror = true
		plan, err := compiler.CompileSource(string(src), opts)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if plan.Diags != nil && plan.Diags.Len() > 0 {
			return fmt.Errorf("%s: unexpected diagnostics:\n%s", path, plan.Diags.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no .p4r examples found")
	}
}

// TestWerrorPromotes pins the -Werror contract: a warning-only program
// compiles by default and fails under Werror.
func TestWerrorPromotes(t *testing.T) {
	src := `
header_type h_t { fields { f1 : 16; } }
header h_t hdr;
malleable value unused { width : 8; init : 0; }
action fwd() { modify_field(hdr.f1, 1); }
table t { reads { hdr.f1 : exact; } actions { fwd; } size : 4; }
control ingress { apply(t); }
`
	plan, err := compiler.CompileSource(src, compiler.Options{})
	if err != nil {
		t.Fatalf("default compile should succeed: %v", err)
	}
	if got := len(plan.Diags.Warnings()); got != 1 {
		t.Fatalf("want 1 warning, got %d: %v", got, plan.Diags)
	}
	_, err = compiler.CompileSource(src, compiler.Options{Werror: true})
	if err == nil {
		t.Fatal("Werror compile should fail")
	}
	var list *diag.List
	if !asList(err, &list) || !list.HasErrors() {
		t.Fatalf("want promoted diagnostic list, got %T: %v", err, err)
	}
	if list.Diags[0].Code != diag.UnusedMbl {
		t.Fatalf("want %s, got %s", diag.UnusedMbl, list.Diags[0].Code)
	}
}

func asList(err error, out **diag.List) bool {
	l, ok := err.(*diag.List)
	if ok {
		*out = l
	}
	return ok
}
