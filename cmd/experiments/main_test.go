package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAnError: a -run name that is not an experiment
// exits 2, names the offender and lists the valid names, and runs
// nothing — not even the valid names beside it.
func TestUnknownExperimentIsAnError(t *testing.T) {
	for _, arg := range []string{"nosuch", "table1,nosuch", "fig-ctlchan, fig_reroute"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", arg}, &stdout, &stderr); code != 2 {
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
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("an unknown flag exited %d, want 2", code)
	}
}

// TestKnownExperimentRuns: a valid name still runs and exits 0.
func TestKnownExperimentRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig-place", "-json", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("-run fig-place exited %d: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("fig-place printed no report")
	}
}
