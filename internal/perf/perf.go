// Package perf is the performance-regression harness for the hot paths
// of the reproduction: it defines the microbenchmark suite run by
// cmd/perfbench, the JSON baseline format checked in as BENCH_rmt.json,
// and the comparator that turns "slower than the baseline" into a
// non-zero exit for CI.
package perf

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/report"
)

// Metric is one benchmark's measured cost.
type Metric struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Baseline is a set of metrics captured on some reference machine. Note
// records where the numbers came from; comparisons are tolerant of
// machine-to-machine variance via Options.
type Baseline struct {
	Note    string   `json:"note,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric, or nil.
func (b *Baseline) Metric(name string) *Metric {
	for i := range b.Metrics {
		if b.Metrics[i].Name == name {
			return &b.Metrics[i]
		}
	}
	return nil
}

// Load reads a baseline file.
func Load(path string) (*Baseline, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: read baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("perf: parse baseline %s: %w", path, err)
	}
	return &b, nil
}

// Save writes a baseline file with stable formatting (sorted by name),
// so regenerated baselines diff cleanly.
func (b *Baseline) Save(path string) error {
	sort.Slice(b.Metrics, func(i, j int) bool { return b.Metrics[i].Name < b.Metrics[j].Name })
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal baseline: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("perf: write baseline: %w", err)
	}
	return nil
}

// Options sets the comparison tolerances.
type Options struct {
	// NsTolerance is the allowed relative time growth: a current ns/op
	// above base*(1+NsTolerance) is a regression. Generous by default —
	// wall-clock benchmarks on shared CI machines are noisy; the harness
	// is after order-of-magnitude breakage (a lookup going linear, a hot
	// path growing an allocation), not single-digit percent drift.
	NsTolerance float64
	// AllocTolerance is the allowed absolute allocs/op growth. Zero by
	// default: allocation counts are deterministic, so any new
	// allocation on a zero-alloc path is a real regression.
	AllocTolerance int64
}

// DefaultOptions returns the tolerances used by cmd/perfbench and CI.
func DefaultOptions() Options { return Options{NsTolerance: 1.0, AllocTolerance: 0} }

// Regression is one metric that got worse than the baseline allows.
type Regression struct {
	Name string
	// Kind is "time", "allocs", or "missing" (metric present in the
	// baseline but absent from the current run — a renamed or dropped
	// benchmark hides regressions, so it fails the comparison).
	Kind string
}

// Compare checks cur against base and returns every regression. Metrics
// new in cur (absent from base) pass: adding benchmarks is not a
// regression.
func Compare(base, cur *Baseline, opt Options) []Regression {
	var regs []Regression
	for _, bm := range base.Metrics {
		cm := cur.Metric(bm.Name)
		if cm == nil {
			regs = append(regs, Regression{Name: bm.Name, Kind: "missing"})
			continue
		}
		if bm.NsPerOp > 0 && cm.NsPerOp > bm.NsPerOp*(1+opt.NsTolerance) {
			regs = append(regs, Regression{Name: bm.Name, Kind: "time"})
		}
		if cm.AllocsPerOp > bm.AllocsPerOp+opt.AllocTolerance {
			regs = append(regs, Regression{Name: bm.Name, Kind: "allocs"})
		}
	}
	return regs
}

// Table is the measured suite as one table: a row per benchmark with
// its cost and, when base is not nil, the baseline's ns/op and allocs/op
// beside it and a verdict from regs: "ok", "new", or the regressed kinds
// ("time", "allocs", "missing" for a baseline metric the run lacks).
func Table(cur, base *Baseline, regs []Regression) report.Table {
	t := report.Table{Title: "perfbench", Columns: []string{"benchmark", "ns/op", "allocs/op", "B/op"}}
	for _, m := range cur.Metrics {
		t.Rows = append(t.Rows, report.Row(m.Name, fmt.Sprintf("%.1f", m.NsPerOp), m.AllocsPerOp, m.BytesPerOp))
	}
	if base == nil {
		return t
	}
	t.Columns = append(t.Columns, "base ns/op", "base allocs/op", "verdict")
	t.Notes = []string{fmt.Sprintf("%d regression(s) against the baseline", len(regs))}
	verdict := map[string][]string{}
	for _, r := range regs {
		verdict[r.Name] = append(verdict[r.Name], r.Kind)
		if r.Kind == "missing" {
			t.Rows = append(t.Rows, []string{r.Name, "-", "-", "-"})
		}
	}
	for i, row := range t.Rows {
		if b := base.Metric(row[0]); b == nil {
			t.Rows[i] = append(row, "-", "-", "new")
		} else {
			t.Rows[i] = append(row, fmt.Sprintf("%.1f", b.NsPerOp), fmt.Sprint(b.AllocsPerOp), cmp.Or(strings.Join(verdict[b.Name], ", "), "ok"))
		}
	}
	return t
}
