package main

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// fig1 is the program every single-switch case runs.
const fig1 = "../../examples/p4r/fig1.p4r"

// readCases reads testdata/cases.txt: per line a golden name, then the
// flags of one mantisd run.
func readCases(t *testing.T) [][]string {
	t.Helper()
	f, err := os.Open("testdata/cases.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cases [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
			cases = append(cases, fields)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestReportMatchesGolden runs every case of testdata/cases.txt
// in-process and compares its report with testdata/<name>.golden byte
// for byte. -update rewrites the goldens from this build.
func TestReportMatchesGolden(t *testing.T) {
	cases := readCases(t)
	if len(cases) == 0 {
		t.Fatal("testdata/cases.txt lists no case")
	}
	for _, c := range cases {
		name, args := c[0], append([]string{"-duration", "3ms"}, c[1:]...)
		if !slices.Contains(args, "-topology") {
			args = append(args, fig1)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("%s: mantisd %s exited %d: %s", name, strings.Join(args, " "), code, stderr.String())
			continue
		}
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: report differs from %s; regenerate with go test ./cmd/mantisd -update", name, path)
		}
	}
}

// TestFaultProfileNames: -faults takes every name faults.Profiles has,
// and the report's faults table is headed by it; any other name is a
// usage error that lists the valid names.
func TestFaultProfileNames(t *testing.T) {
	var names []string
	for _, p := range faults.Profiles() {
		names = append(names, p.Name)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-duration", "1ms", "-faults", p.Name, fig1}, &stdout, &stderr); code != 0 {
			t.Errorf("-faults %s exited %d: %s", p.Name, code, stderr.String())
		}
		_, table, ok := strings.Cut(stdout.String(), "faults (faults.Stats)\n")
		header, _, _ := strings.Cut(table, "\n")
		if f := strings.Fields(header); !ok || len(f) != 2 || f[1] != p.Name {
			t.Errorf("-faults %s: no faults table headed by the profile:\n%s", p.Name, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-faults", "partial", fig1}, &stdout, &stderr); code != 2 {
		t.Errorf("-faults partial exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-faults partial printed a report:\n%s", stdout.String())
	}
	if want := strings.Join(names, "|"); !strings.Contains(stderr.String(), want) {
		t.Errorf("-faults partial: message %q does not list %s", stderr.String(), want)
	}
}

// TestExitCodes: a bad invocation exits 2 and a run that fails exits 1,
// both with a message and no report.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-no-such-flag", fig1}, 2},
		{[]string{}, 2},
		{[]string{fig1, fig1}, 2},
		{[]string{"-duration", "0s", fig1}, 2},
		{[]string{"-sched", "lifo", fig1}, 2},
		{[]string{"-faults", "crash-commit", "-ctl-loss", "0.1", fig1}, 2},
		{[]string{"-fail-spine", "1", fig1}, 2},
		{[]string{"-topology", "ring:3"}, 2},
		{[]string{"-topology", "leafspine:4,2", "-fail-spine", "2"}, 2},
		{[]string{"-topology", "leafspine:4,2", "-gray-trunk", "4,0"}, 2},
		{[]string{"testdata/no-such-program.p4r"}, 1},
		{[]string{"-target", "no-such-profile", fig1}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("mantisd %q exited %d, want %d: %s", c.args, code, c.code, stderr.String())
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("mantisd %q: stdout %q, stderr %q; want only a message", c.args, stdout.String(), stderr.String())
		}
	}
}
