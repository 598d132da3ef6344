package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

var update = flag.Bool("update", false,
	"rewrite the checked-in BENCH_*.json, testdata/all.golden and EXPERIMENTS.md's generated blocks from this build")

// root is the repository root, where the BENCH_*.json files and
// EXPERIMENTS.md are checked in.
const root = "../.."

const golden = "testdata/all.golden"

// TestUnknownExperimentIsAnError: a -run name that is not an experiment
// exits 2, names the offender and lists the valid names, and runs
// nothing — not even the valid names beside it.
func TestUnknownExperimentIsAnError(t *testing.T) {
	for _, arg := range []string{"nosuch", "table1,nosuch", "fig-ctlchan, fig_reroute"} {
		var stdout, stderr bytes.Buffer
		if code, _ := run([]string{"-run", arg}, &stdout, &stderr); code != 2 {
			t.Errorf("-run %q exited %d, want 2", arg, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %q ran something before failing:\n%s", arg, stdout.String())
		}
		msg := stderr.String()
		for _, want := range []string{"unknown experiment", "all", "fig10a", "table1", "fig-reroute", "fig-place"} {
			if !strings.Contains(msg, want) {
				t.Errorf("-run %q: error does not mention %q:\n%s", arg, want, msg)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code, _ := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("an unknown flag exited %d, want 2", code)
	}
}

// TestOutOfRangeFlagIsAnError: a -trials or -parallel below 1 or a
// -scale outside (0,1] exits 2 with a message naming the flag, before
// any experiment runs — not after -run all has printed the experiments
// ahead of the one that reads it. (-parallel used to run serially.)
func TestOutOfRangeFlagIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "-1"}, {"-trials", "0"}, {"-scale", "0"}, {"-scale", "2"},
		{"-parallel", "0", "-run", "fig-place"}, {"-parallel", "-3", "-run", "fig-place"},
	} {
		var stdout, stderr bytes.Buffer
		if code, _ := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q ran something before failing:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("%q: error does not name the flag: %q", args, stderr.String())
		}
	}
}

// TestKnownExperimentRuns: a valid name still runs and exits 0.
func TestKnownExperimentRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code, _ := run([]string{"-run", "fig-place", "-json", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("-run fig-place exited %d: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("fig-place printed no report")
	}
}

// TestEveryExperimentIsCheckedInAndDocumented: every registered
// experiment has a checked-in BENCH_<name>.json and exactly one
// generated block in EXPERIMENTS.md, and every block names a registered
// experiment.
func TestEveryExperimentIsCheckedInAndDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := generatedBlocks(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, b := range blocks {
		count[b.name]++
	}
	for _, e := range registry {
		if _, err := os.Stat(filepath.Join(root, "BENCH_"+e.jsonName+".json")); err != nil {
			t.Errorf("%s: %v", e.name, err)
		}
		if count[e.name] != 1 {
			t.Errorf("EXPERIMENTS.md has %d generated blocks for %s, want 1", count[e.name], e.name)
		}
		delete(count, e.name)
	}
	for name := range count {
		t.Errorf("EXPERIMENTS.md has a generated block for %q, which is not an experiment", name)
	}
}

// TestRunAllMatchesCheckedIn runs every experiment at the default flags
// and checks its three renderings: each file it writes (every
// BENCH_<name>.json and PLACEMENT_fabric_leaf.txt) against the checked-in
// copy, the text report against testdata/all.golden, and each of
// EXPERIMENTS.md's generated blocks against the markdown of that
// experiment's tables. -update rewrites all three from this build.
func TestRunAllMatchesCheckedIn(t *testing.T) {
	if raceEnabled {
		t.Skip("-run all takes about 30 s under -race, and its output does not depend on the race detector")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code, results := run([]string{"-run", "all", "-json", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-run all exited %d: %s", code, stderr.String())
	}

	files := []string{placementReport}
	for _, e := range registry {
		files = append(files, "BENCH_"+e.jsonName+".json")
	}
	for _, name := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		compare(t, filepath.Join(root, name), got)
	}
	compare(t, golden, stdout.Bytes())

	path := filepath.Join(root, "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := generatedBlocks(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	at := 0
	for _, b := range blocks {
		res, ok := results[b.name]
		if !ok {
			t.Fatalf("EXPERIMENTS.md has a generated block for %q, which is not an experiment", b.name)
		}
		md := "\n" + report.Markdown(res.Tables()) + "\n"
		if !*update && string(doc[b.lo:b.hi]) != md {
			t.Errorf("EXPERIMENTS.md's %s block differs from its tables; regenerate with go test ./cmd/experiments -update", b.name)
		}
		want.WriteString(string(doc[at:b.lo]) + md)
		at = b.hi
	}
	want.WriteString(string(doc[at:]))
	if *update {
		if err := os.WriteFile(path, []byte(want.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compare checks got against the file at path, or with -update writes
// it there.
func compare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this build's output; regenerate with go test ./cmd/experiments -update", path)
	}
}

// A generated block of EXPERIMENTS.md is the text between a
// "<!-- generated: <name> -->" line and the next "<!-- end generated -->".
const (
	blockStart = "<!-- generated: "
	blockEnd   = "<!-- end generated -->"
)

// block is one generated block: the experiment it renders and the byte
// span of its content in the document.
type block struct {
	name   string
	lo, hi int
}

func generatedBlocks(doc string) ([]block, error) {
	var blocks []block
	for at := 0; ; {
		i := strings.Index(doc[at:], blockStart)
		if i < 0 {
			return blocks, nil
		}
		i += at
		line, _, found := strings.Cut(doc[i:], "\n")
		name, ok := strings.CutSuffix(strings.TrimPrefix(line, blockStart), " -->")
		if !found || !ok {
			return nil, fmt.Errorf("malformed block marker %q", line)
		}
		lo := i + len(line) + 1
		n := strings.Index(doc[lo:], blockEnd)
		if n < 0 || strings.Contains(doc[lo:lo+n], blockStart) {
			return nil, fmt.Errorf("generated block %q has no end marker before the next block", name)
		}
		blocks = append(blocks, block{name, lo, lo + n})
		at = lo + n + len(blockEnd)
	}
}
