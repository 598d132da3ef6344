package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCtlLinkProfile(t *testing.T) {
	for _, c := range []struct {
		loss      float64
		partition string
		ok        bool
	}{
		{0, "", true},
		{0.02, "", true},
		{0.999, "700us/300us", true},
		{1, "", false},    // every frame lost after the prologue
		{1.5, "", false},  // not a probability
		{-0.5, "", false}, // used to select the in-process path silently
		{math.NaN(), "", false},
		{0, "700us", false},
		{0, "700us/0s", false},
		{0, "soon/300us", false},
	} {
		prof, err := ctlLinkProfile(c.loss, c.partition)
		if (err == nil) != c.ok {
			t.Errorf("ctlLinkProfile(%g, %q): err = %v, want ok=%v", c.loss, c.partition, err, c.ok)
		}
		if err == nil && (prof.Loss != c.loss || (c.partition != "") != (prof.PartitionEvery > 0)) {
			t.Errorf("ctlLinkProfile(%g, %q) = %+v", c.loss, c.partition, prof)
		}
	}
}

func TestTrafficInterval(t *testing.T) {
	for _, c := range []struct {
		duration time.Duration
		pps      float64
		want     time.Duration
		ok       bool
	}{
		{10 * time.Millisecond, 100000, 10 * time.Microsecond, true},
		{time.Millisecond, 1e9, time.Nanosecond, true},
		{time.Millisecond, 0, 0, true},   // no traffic
		{time.Millisecond, -5, 0, false}, // used to mean no traffic
		{time.Millisecond, math.NaN(), 0, false},
		{time.Millisecond, 2e9, 0, false}, // used to panic: ticker period 0
		{time.Millisecond, math.Inf(1), 0, false},
		{0, 100000, 0, false},
		{-time.Millisecond, 100000, 0, false},
	} {
		got, err := trafficInterval(c.duration, c.pps)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("trafficInterval(%v, %g) = %v, %v; want %v, ok=%v", c.duration, c.pps, got, err, c.want, c.ok)
		}
	}
}

func TestParseGrayTrunk(t *testing.T) {
	for _, c := range []struct {
		spec        string
		leaf, spine int
		rate        float64
		ok          bool
	}{
		{"0,1", 0, 1, 0.3, true},
		{"2,0:0.5", 2, 0, 0.5, true},
		{"1,1:1", 1, 1, 1, true},
		{"0,1:NaN", 0, 0, 0, false}, // used to be accepted: SetGray(NaN) left the trunk healthy
		{"0,1:0.3x", 0, 0, 0, false},
		{"0,1,7", 0, 0, 0, false},
		{"0,1:0.5:9", 0, 0, 0, false},
		{"0,1:0", 0, 0, 0, false},
		{"0,1:1.5", 0, 0, 0, false},
		{"0,1:Inf", 0, 0, 0, false},
		{"0", 0, 0, 0, false},
		{"a,1", 0, 0, 0, false},
		{"", 0, 0, 0, false},
	} {
		leaf, spine, rate, err := parseGrayTrunk(c.spec)
		if (err == nil) != c.ok || leaf != c.leaf || spine != c.spine || rate != c.rate {
			t.Errorf("parseGrayTrunk(%q) = %d, %d, %g, %v; want %d, %d, %g, ok=%v",
				c.spec, leaf, spine, rate, err, c.leaf, c.spine, c.rate, c.ok)
		}
	}
}

// TestOutOfRangeFlagIsAnError: each of these used to run silently — a
// negative or NaN -pps with no traffic, a negative -pacing as a busy
// loop, a negative -ctl-delay over in-process calls, a negative
// -legacy-clients with none, a -fail-spine below -1 with no failure. Each
// now exits 2 with a message naming the flag, before anything runs.
func TestOutOfRangeFlagIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-pps", "-5", fig1},
		{"-pps", "NaN", fig1},
		{"-pacing", "-1us", fig1},
		{"-ctl-delay", "-1us", fig1},
		{"-legacy-clients", "-1", fig1},
		{"-fail-spine", "-2", "-topology", "leafspine:2,2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-duration", "1ms"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("%q exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q ran before failing:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("%q: error does not name the flag: %q", args, stderr.String())
		}
	}
}
