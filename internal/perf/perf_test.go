package perf

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// gateOps is how many warmed operations an allocation check counts.
const gateOps = 1000

// gateWindows is how many runs of gateOps operations allocs counts at
// most.
const gateWindows = 3

// allocs returns the fewest heap allocations run makes in gateOps
// operations, counted exactly over up to gateWindows consecutive runs
// (testing.AllocsPerRun runs each once more first, uncounted); it stops
// at a clean one. Go's runtime allocates on its own now and then — a
// type assertion fills its call site's cache after a random one in 1024
// misses, a GC worker takes a sudog — so a one-time allocation can land
// in any window, while an allocation the path makes every gateOps
// operations or more often lands in all of them.
func allocs(run func(n int)) float64 {
	least := math.Inf(1)
	for i := 0; i < gateWindows && least > 0; i++ {
		least = min(least, testing.AllocsPerRun(1, func() { run(gateOps) }))
	}
	return least
}

// TestHotPathsAllocateNothing is the allocation gate of the suite
// perfbench times: every path, set up and warmed as perfbench runs it,
// makes no heap allocation in gateOps more operations. The count is
// exact, not a quotient, so one allocation in gateOps fails. Skipped
// under the race detector, whose instrumentation allocates.
func TestHotPathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, nb := range HotPathBenchmarks() {
		t.Run(nb.Name, func(t *testing.T) {
			if got := allocs(nb.Setup(t)); got != 0 {
				t.Errorf("%s allocates %.0f times in %d warmed operations, want 0", nb.Name, got, gateOps)
			}
		})
	}
}

// TestBucketedLookupBeatsLinear: the point of the bucket index is to
// beat the linear scan by a wide margin on a 1k-entry table. The
// acceptance floor is 10x; 5x keeps the test robust on a noisy machine,
// and each side's best of five runs keeps a preempted run out of it.
func TestBucketedLookupBeatsLinear(t *testing.T) {
	const probes = 4 * lookupEntries
	best := func(setup func(testing.TB) func(int)) time.Duration {
		run, fastest := setup(t), time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			run(probes)
			fastest = min(fastest, time.Since(start))
		}
		return fastest
	}
	if lin, buck := best(ternaryLinear), best(ternaryBucketed); buck*5 > lin {
		t.Errorf("bucketed TCAM %v per %d probes not ≥5x faster than linear %v", buck, probes, lin)
	}
}

// TestUpdateBodyAllocFree is update_commit@ctlchan with the update
// written as an rcl body instead of a native reaction: eight modEntry
// calls per iteration, whose action data the host builds in its own
// scratch, so a table call from a body allocates nothing either.
// Skipped under the race detector, whose instrumentation allocates.
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
	if got := allocs(stackedDialogue(t, src, updatePrologue(&h1, &h2), nil)); got != 0 {
		t.Fatalf("a steady-state body update through the deployed stack allocates %.0f times in %d iterations, want 0", got, gateOps)
	}
	for k := range h1 {
		if h1[k] != core.UserHandle(k+1) || h2[k] != core.UserHandle(k+1) {
			t.Fatalf("entry %d has handles %d/%d; the body rewrites handles 1..%d", k, h1[k], h2[k], updateKeys)
		}
	}
}
