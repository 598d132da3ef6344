package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const fig1Path = "../../examples/p4r/fig1.p4r"

// runCLI invokes run() in-process and captures both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// writeProgram drops P4R source into a temp file.
func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.p4r")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var summaryRE = regexp.MustCompile(`(?m)^\S+\.p4r: (\d+) errors, (\d+) warnings$`)

// lastSummary extracts the trailing "N errors, M warnings" line.
func lastSummary(t *testing.T, stderr string) string {
	t.Helper()
	m := summaryRE.FindAllString(stderr, -1)
	if len(m) == 0 {
		t.Fatalf("no summary line in stderr:\n%s", stderr)
	}
	return m[len(m)-1]
}

func TestCheckCleanProgram(t *testing.T) {
	code, _, stderr := runCLI(t, "-check", "-Werror", fig1Path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if s := lastSummary(t, stderr); !strings.HasSuffix(s, "0 errors, 0 warnings") {
		t.Fatalf("summary = %q", s)
	}
}

func TestFullCompileWritesProgram(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.p4")
	code, _, stderr := runCLI(t, "-o", out, fig1Path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	gen, err := os.ReadFile(out)
	if err != nil || len(gen) == 0 {
		t.Fatalf("no generated program: %v", err)
	}
	if !strings.Contains(stderr, "placement: profile generic-16stage, 2+0 stages, ") || strings.Contains(stderr, "resources:") {
		t.Errorf("plan summary should be one placement line:\n%s", stderr)
	}
}

func TestMiniTargetRejectsFig1(t *testing.T) {
	code, _, stderr := runCLI(t, "-check", "-target", "mini", fig1Path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	// The acceptance criterion: a positioned P-family code with a hint.
	if !regexp.MustCompile(`line \d+:\d+: error\[P\d+\]: .*\(.*\)`).MatchString(stderr) {
		t.Fatalf("no positioned placement diagnostic with hint:\n%s", stderr)
	}
	if s := lastSummary(t, stderr); strings.HasSuffix(s, "0 errors, 0 warnings") {
		t.Fatalf("summary reports no errors: %q", s)
	}
}

func TestReportShowsStageMap(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-check", "-report", fig1Path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"placement: profile generic-16stage", "FITS", "ingress", "%"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
}

func TestReportPrintedEvenWhenPlacementFails(t *testing.T) {
	code, stdout, _ := runCLI(t, "-check", "-report", "-target", "mini", fig1Path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "DOES NOT FIT") {
		t.Fatalf("failing placement should still print the stage map:\n%s", stdout)
	}
}

func TestUnknownTarget(t *testing.T) {
	code, _, stderr := runCLI(t, "-check", "-target", "warp-drive", fig1Path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "[P007]") {
		t.Fatalf("want P007 diagnostic:\n%s", stderr)
	}
}

func TestSummaryConsistentAcrossCheckAndCompile(t *testing.T) {
	// A program with a semantic error: reaction writes a polled param.
	bad := writeProgram(t, `
header_type h_t { fields { f : 32; } }
header h_t h;
register r { width : 32; instance_count : 4; }
reaction rx(reg r) {
  r[0] = 1;
}
control ingress { }
`)
	codeCheck, _, errCheck := runCLI(t, "-check", bad)
	codeFull, _, errFull := runCLI(t, bad)
	if codeCheck != 1 || codeFull != 1 {
		t.Fatalf("exits %d/%d, want 1/1\ncheck:\n%s\nfull:\n%s", codeCheck, codeFull, errCheck, errFull)
	}
	sc, sf := lastSummary(t, errCheck), lastSummary(t, errFull)
	if sc != sf {
		t.Fatalf("summaries differ: check %q vs compile %q", sc, sf)
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	// A capacity of zero or less is a usage error, not the default or a
	// capacity every malleable overflows.
	for _, bits := range []string{"0", "-1"} {
		code, _, stderr := runCLI(t, "-max-init-bits", bits, fig1Path)
		if code != 2 || !strings.Contains(stderr, "-max-init-bits "+bits+": must be positive") {
			t.Errorf("-max-init-bits %s: exit %d, want 2; stderr:\n%s", bits, code, stderr)
		}
	}
}

// TestReportWithoutBudgets: -target none still places, so -report
// prints the stage map of the unbounded profile.
func TestReportWithoutBudgets(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-check", "-report", "-target", "none", fig1Path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"placement: profile none (unbounded", "FITS", "ingress", "Kb"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
}

// TestRegisterInTwoStagesFailsWithoutTarget: single-stage register
// access is checked on every compile, not only under a -target.
func TestRegisterInTwoStagesFailsWithoutTarget(t *testing.T) {
	code, _, stderr := runCLI(t, "-check", "-target", "none", "../../internal/p4r/analysis/testdata/place_reg_multistage.p4r")
	if code != 1 || strings.Count(stderr, "error[P008]") != 1 {
		t.Fatalf("exit %d, want 1 with one P008:\n%s", code, stderr)
	}
}
