package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// smokeSeconds scales every workload to about 1/200 of a 10-second run.
const smokeSeconds = 0.05

// virtualSide is everything a pass reports that must not depend on the
// host: op counts and the virtual-clock metrics.
type virtualSide struct {
	Units, Ops        uint64
	Attempted, Failed uint64
	P50, Tail, Pct    float64
	Goodput           float64
}

func virtualOf(t *testing.T, sp *spec, seed int64, pr *probe) virtualSide {
	t.Helper()
	hr, err := sp.pass(seed, sp.unitsFor(smokeSeconds), pr)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.name, seed, err)
	}
	p50, tl, pct, err := virtMetrics(hr.res)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.name, seed, err)
	}
	return virtualSide{uint64(hr.units), hr.ops, hr.res.attempted, hr.res.failed, p50, tl, pct, hr.res.goodput}
}

// TestVirtualSideRepeats pins the benchmark's central claim: op counts,
// every virtual metric and the fail share are functions of (code, seed,
// seconds) only — not of the run, the scheduler, or whether recorders
// are interposed.
func TestVirtualSideRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sp := range specs {
		base := virtualOf(t, sp, 1, nil)
		if again := virtualOf(t, sp, 1, nil); again != base {
			t.Errorf("%s: same seed, two runs: %+v then %+v", sp.name, base, again)
		}
		runtime.GOMAXPROCS(2)
		if wide := virtualOf(t, sp, 1, nil); wide != base {
			t.Errorf("%s: GOMAXPROCS 2 gave %+v, GOMAXPROCS 1 gave %+v", sp.name, wide, base)
		}
		runtime.GOMAXPROCS(1)
		if traced := virtualOf(t, sp, 1, newProbe()); traced != base {
			t.Errorf("%s: traced gave %+v, untraced gave %+v", sp.name, traced, base)
		}
		if base.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed; the workloads are chosen so none does", sp.name, base.Failed, base.Attempted)
		}
	}
}

// TestSeedReachesTheWorkload checks the seed is not decorative: another
// seed draws another loss pattern, so dialogue_lossy's tail moves.
func TestSeedReachesTheWorkload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := findSpec("dialogue_lossy")
	a, b := virtualOf(t, sp, 1, nil), virtualOf(t, sp, 2, nil)
	if a.Tail == b.Tail {
		t.Errorf("seeds 1 and 2 both gave a tail of %v virtual µs", a.Tail)
	}
	if a.Ops != b.Ops {
		t.Errorf("op count depends on the seed: %d vs %d", a.Ops, b.Ops)
	}
}

// TestNamesMatchBenchmarkJSON runs one workload both ways and compares
// what it emits with what BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bj struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, specs[i].name)
		}
	}

	sp := findSpec("dialogue_lossy")
	units := sp.unitsFor(smokeSeconds)
	check := func(kind string, rep *report, want []decl) {
		t.Helper()
		declared := make(map[string]string, len(want))
		for _, d := range want {
			declared[d.Name] = d.Unit
		}
		var emitted []string
		for name, mv := range rep.Metrics {
			emitted = append(emitted, name)
			if unit, ok := declared[name]; !ok {
				t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", kind, name)
			} else if unit != mv.Unit {
				t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", kind, name, mv.Unit, unit)
			}
		}
		sort.Strings(emitted)
		for _, d := range want {
			if _, ok := rep.Metrics[d.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json declares %q, emitted are %v", kind, d.Name, emitted)
			}
		}
	}
	plain, err := runUntraced(sp, 1, units)
	if err != nil {
		t.Fatal(err)
	}
	check("--trace 0", plain, bj.EndToEnd)
	for _, d := range bj.EndToEnd {
		if v := plain.Metrics[d.Name].Value; v == 0 {
			t.Errorf("end-to-end metric %q is 0", d.Name)
		}
	}
	traced, err := runTraced(sp, 1, units, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	check("--trace 1", traced, bj.PerLayer)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the method the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
