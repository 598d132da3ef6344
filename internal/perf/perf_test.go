package perf

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func baselineFixture() *Baseline {
	return &Baseline{
		Note: "test",
		Metrics: []Metric{
			{Name: "exact_lookup_1k", NsPerOp: 50, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "pipeline_packet", NsPerOp: 2000, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "dialogue_iteration", NsPerOp: 30000, AllocsPerOp: 120, BytesPerOp: 9000},
		},
	}
}

// TestCompareSyntheticRegression is the harness's own regression test:
// an inflated current run must be flagged, each regression named in the
// verdict column of the report, while a clean run must not.
func TestCompareSyntheticRegression(t *testing.T) {
	base := baselineFixture()
	opt := Options{NsTolerance: 0.5, AllocTolerance: 0}

	clean := baselineFixture()
	clean.Metrics[0].NsPerOp = 70 // +40%, inside the 50% tolerance
	if regs := Compare(base, clean, opt); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}

	bad := baselineFixture()
	bad.Metrics[0].NsPerOp = 500   // 10x: time regression
	bad.Metrics[1].AllocsPerOp = 3 // new allocations on a zero-alloc path
	regs := Compare(base, bad, opt)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want time + allocs", regs)
	}
	if regs[0].Kind != "time" || regs[0].Name != "exact_lookup_1k" {
		t.Fatalf("first regression = %+v", regs[0])
	}
	if regs[1].Kind != "allocs" || regs[1].Name != "pipeline_packet" {
		t.Fatalf("second regression = %+v", regs[1])
	}
	tab := Table(bad, base, regs)
	verdict := map[string]string{}
	for _, r := range tab.Rows {
		verdict[r[0]] = r[len(r)-1]
	}
	if verdict["exact_lookup_1k"] != "time" || verdict["pipeline_packet"] != "allocs" || verdict["dialogue_iteration"] != "ok" {
		t.Fatalf("verdicts = %v", verdict)
	}
	if len(tab.Notes) != 1 || !strings.HasPrefix(tab.Notes[0], "2 regression(s)") {
		t.Fatalf("notes = %q", tab.Notes)
	}
}

// TestCompareMissingMetric: dropping a benchmark from the suite must
// fail the comparison rather than silently hiding its regression.
func TestCompareMissingMetric(t *testing.T) {
	base := baselineFixture()
	cur := baselineFixture()
	cur.Metrics = cur.Metrics[1:]
	regs := Compare(base, cur, DefaultOptions())
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Name != "exact_lookup_1k" {
		t.Fatalf("regressions = %v", regs)
	}
	if rows := Table(cur, base, regs).Rows; rows[len(rows)-1][0] != "exact_lookup_1k" || rows[len(rows)-1][6] != "missing" {
		t.Fatalf("report rows = %q, want a missing row for exact_lookup_1k", rows)
	}
	// The reverse — a brand-new benchmark — is not a regression.
	grown := baselineFixture()
	grown.Metrics = append(grown.Metrics, Metric{Name: "new_bench", NsPerOp: 1})
	if regs := Compare(base, grown, DefaultOptions()); len(regs) != 0 {
		t.Fatalf("new metric flagged: %v", regs)
	}
	if rows := Table(grown, base, nil).Rows; rows[len(rows)-1][6] != "new" {
		t.Fatalf("report rows = %q, want new_bench marked new", rows)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_rmt.json")
	b := baselineFixture()
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != b.Note || len(got.Metrics) != len(b.Metrics) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Save sorts by name for stable diffs.
	for i := 1; i < len(got.Metrics); i++ {
		if got.Metrics[i-1].Name > got.Metrics[i].Name {
			t.Fatalf("metrics not sorted: %v", got.Metrics)
		}
	}
	if regs := Compare(b, got, Options{}); len(regs) != 0 {
		t.Fatalf("round trip not comparison-clean: %v", regs)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing baseline succeeded")
	}
}

// TestHotPathSuite runs the real suite once (the same entry point
// cmd/perfbench uses) and checks the invariants the checked-in baseline
// encodes: every metric measured, and the lookup and per-packet paths
// allocation-free.
func TestHotPathSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite is slow")
	}
	ms := Run()
	if len(ms) != len(HotPathBenchmarks()) {
		t.Fatalf("measured %d of %d benchmarks", len(ms), len(HotPathBenchmarks()))
	}
	byName := map[string]Metric{}
	for _, m := range ms {
		if m.NsPerOp <= 0 {
			t.Fatalf("%s: ns/op = %v", m.Name, m.NsPerOp)
		}
		byName[m.Name] = m
	}
	for _, name := range []string{"exact_lookup_1k", "ternary_lookup_bucketed_1k", "pipeline_packet"} {
		if m := byName[name]; m.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op, want 0", name, m.AllocsPerOp)
		}
	}
	// The point of the bucket index: beating the linear scan by a wide
	// margin on a 1k-entry table. The acceptance floor is 10x; use 5x
	// here to keep the test robust to a noisy machine.
	lin, buck := byName["ternary_lookup_linear_1k"], byName["ternary_lookup_bucketed_1k"]
	if buck.NsPerOp*5 > lin.NsPerOp {
		t.Errorf("bucketed TCAM %.1f ns/op not ≥5x faster than linear %.1f ns/op", buck.NsPerOp, lin.NsPerOp)
	}
}

// TestZeroAllocSteadyState pins the fast-path invariants: one dialogue
// iteration — and each of its decomposed hot stages — and one pooled
// packet's trip over a trunk or through a TCP exchange heap allocate
// nothing at steady state. Prologue and warmup costs amortize
// to zero across testing.Benchmark's iteration count; any per-iteration
// allocation survives the division and fails here. Skipped under the
// race detector, whose instrumentation allocates.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("benchmark suite is slow")
	}
	targets := map[string]bool{
		"dialogue_iteration": true,
		"poll_batch":         true,
		"reaction_dispatch":  true,
		"proc_sleep":         true,
		"proc_handoff":       true,
		"trunk_hop":          true,
		"tcp_segment":        true,
	}
	for _, nb := range HotPathBenchmarks() {
		if !targets[nb.Name] {
			continue
		}
		r := testing.Benchmark(nb.Bench)
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op (%d B/op), want 0", nb.Name, a, r.AllocedBytesPerOp())
		}
	}
}

// stackedAllocs reports the allocations of one steady-state iteration
// of d, after checking that the measured iterations all committed.
func stackedAllocs(t *testing.T, d *stackedDialogue) float64 {
	t.Helper()
	for i := 0; i < stackedWarmup; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	before := d.agent.Stats()
	got := testing.AllocsPerRun(500, func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	})
	after := d.agent.Stats()
	if n := after.Commits - before.Commits; n != 501 || after.Abandoned != 0 {
		t.Fatalf("measured %d commits (%d abandoned), want 501 clean iterations", n, after.Abandoned)
	}
	return got
}

// TestUpdateBodyAllocFree is TestUpdateCommitAllocFree with the update
// written as an rcl body instead of a native reaction: eight modEntry
// calls per iteration, whose action data the host builds in its own
// scratch, so a table call from a body allocates nothing either.
func TestUpdateBodyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const body = `reaction bump() {
  static int v = 0;
  v = v + 1;
  for (int h = 1; h <= 4; h++) {
    t1.modEntry(h, "set1", v);
    t2.modEntry(h, "set2", v);
  }
}`
	src := strings.Replace(updateSrc, "reaction bump() { }", body, 1)
	var h1, h2 [updateKeys]core.UserHandle
	d, err := newStackedDialogue(src, updatePrologue(&h1, &h2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := stackedAllocs(t, d); got != 0 {
		t.Fatalf("a steady-state body update through the deployed stack allocates %.2f times, want 0", got)
	}
	for k := range h1 {
		if h1[k] != core.UserHandle(k+1) || h2[k] != core.UserHandle(k+1) {
			t.Fatalf("entry %d has handles %d/%d; the body rewrites handles 1..%d", k, h1[k], h2[k], updateKeys)
		}
	}
	if st := d.agent.Stats(); st.ReactionErrors != 0 {
		t.Fatalf("%d reaction errors", st.ReactionErrors)
	}
}

// TestStackedIterationAllocBudget drives poll → react → commit through
// Client → Link → Server → Session → Driver with a MemStore
// journal and holds the iteration to its budget — zero, since the journal
// records are encoded into store-owned buffers — so a per-call allocation
// creeping back into any layer of the stack fails here with the count.
// Skipped under the race detector, whose instrumentation allocates.
func TestStackedIterationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d, err := newStackedDialogue(dialogueSrc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := stackedAllocs(t, d); got != 0 {
		t.Fatalf("a steady-state iteration through the deployed stack allocates %.2f times, budget 0", got)
	}
}

// TestUpdateCommitAllocFree is the same gate on the write path: eight
// entries of two tables modified per iteration — staged in the log,
// prepared, journaled as a CommitStaged intent, flipped, mirrored and
// checkpointed — without a single allocation.
func TestUpdateCommitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d, err := newStackedUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if got := stackedAllocs(t, d); got != 0 {
		t.Fatalf("a steady-state table update through the deployed stack allocates %.2f times, want 0", got)
	}
}
