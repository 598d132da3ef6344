package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/usecases"
)

// column returns the cells of tab under the column headed name.
func column(t *testing.T, tab report.Table, name string) []string {
	t.Helper()
	c := slices.Index(tab.Columns, name)
	if c < 0 {
		t.Fatalf("%q has no column %q: %q", tab.Title, name, tab.Columns)
	}
	var cells []string
	for _, r := range tab.Rows {
		cells = append(cells, r[c])
	}
	return cells
}

func TestFig10aShapes(t *testing.T) {
	rows, err := RunFig10a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both series increase with size; field args grow faster (per-register
	// request overhead); register args gain only 10s of ns per extra byte.
	first, last := rows[0], rows[len(rows)-1]
	if last.FieldLatency <= first.FieldLatency || last.RegLatency <= first.RegLatency {
		t.Fatalf("series not increasing: %+v .. %+v", first, last)
	}
	fieldSlope := float64(last.FieldLatency-first.FieldLatency) / float64(last.Bytes-first.Bytes)
	regSlope := float64(last.RegLatency-first.RegLatency) / float64(last.Bytes-first.Bytes)
	if fieldSlope <= regSlope {
		t.Fatalf("field slope %.1f <= register slope %.1f ns/B", fieldSlope, regSlope)
	}
	if regSlope < 10 || regSlope > 100 {
		t.Fatalf("register marginal cost %.1f ns/B, want 10s of ns", regSlope)
	}
}

func TestFig10bShapes(t *testing.T) {
	rows, err := RunFig10b()
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	// Scalar malleables: constant regardless of count (single init write).
	if first.ScalarLatency != last.ScalarLatency {
		t.Fatalf("scalar latency not constant: %v vs %v", first.ScalarLatency, last.ScalarLatency)
	}
	// Table mods: linear in count.
	ratio := float64(last.TableLatency) / float64(first.TableLatency)
	wantRatio := float64(last.Updates) / float64(first.Updates)
	if ratio < wantRatio*0.9 || ratio > wantRatio*1.1 {
		t.Fatalf("table latency ratio %.1f, want ~%.0f (linear)", ratio, wantRatio)
	}
}

func TestFig11Tradeoff(t *testing.T) {
	rows, err := RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	// Busy loop: ~100% utilization. Heavier pacing: lower utilization,
	// unchanged per-iteration latency.
	if rows[0].Pacing != 0 || rows[0].Utilization < 0.9 {
		t.Fatalf("busy-loop row: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.Utilization > 0.1 {
		t.Fatalf("500µs pacing utilization %.2f, want < 0.1", last.Utilization)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Utilization > rows[i-1].Utilization+0.01 {
			t.Fatalf("utilization not monotone: %+v", rows)
		}
	}
	// The paper's claim: ~20% utilization still reacts in 10s of µs.
	for _, r := range rows {
		if r.Utilization < 0.25 && r.Utilization > 0.1 && r.ReactionPeriod > 100*time.Microsecond {
			t.Fatalf("at %.0f%% utilization the reaction period is %v", r.Utilization*100, r.ReactionPeriod)
		}
	}
}

func TestFig12Contention(t *testing.T) {
	res, err := RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	if res.Without.Count == 0 || res.With.Count == 0 {
		t.Fatal("no samples")
	}
	// Contention slows the legacy app somewhat, but the median overhead
	// stays moderate (paper: 4.64% median, 6.45% p99; our single queue
	// makes it a bit larger, but it must stay well under 2x).
	if res.MedianOverheadPct < 0 {
		t.Fatalf("negative overhead: %+v", res)
	}
	if res.MedianOverheadPct > 100 {
		t.Fatalf("median overhead %.1f%%, want moderate", res.MedianOverheadPct)
	}
	// Bimodal: the maximum (blocked behind a Mantis op) clearly exceeds
	// the minimum (uncontended).
	if res.With.Max <= res.With.Min {
		t.Fatal("no bimodality under contention")
	}
}

func TestFig13Shapes(t *testing.T) {
	res, err := RunFig13()
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.A, res.B
	// 13a at occupancy 1024: write grows ~linearly in A; read grows
	// super-linearly (quadratic term from A extra ternary columns).
	var w2, w8, r2, r8 int
	for _, r := range a {
		if r.Occupancy != 1024 {
			continue
		}
		switch r.Alts {
		case 2:
			w2, r2 = r.WriteTCAMBits, r.ReadTCAMBits
		case 8:
			w8, r8 = r.WriteTCAMBits, r.ReadTCAMBits
		}
	}
	wGrowth := float64(w8) / float64(w2)
	rGrowth := float64(r8) / float64(r2)
	if wGrowth < 3.5 || wGrowth > 4.5 {
		t.Fatalf("write growth A=2..8 is %.2f, want ~4 (linear)", wGrowth)
	}
	if rGrowth <= wGrowth*1.5 {
		t.Fatalf("read growth %.2f not clearly super-linear vs write %.2f", rGrowth, wGrowth)
	}
	// 13b: write constant in K; read grows with K.
	if b[0].WriteTCAMBits != b[len(b)-1].WriteTCAMBits {
		t.Fatalf("write TCAM varies with width: %+v", b)
	}
	if b[len(b)-1].ReadTCAMBits <= b[0].ReadTCAMBits {
		t.Fatalf("read TCAM not increasing with width: %+v", b)
	}
}

func TestFig14SmallScale(t *testing.T) {
	res, err := RunFig14(0.01, 1) // 1% of a CAIDA block: ~89K packets
	if err != nil {
		t.Fatal(err)
	}
	if res.TracePackets < 50000 {
		t.Fatalf("trace too small: %d", res.TracePackets)
	}
	if len(res.Results) != 6 {
		t.Fatalf("results = %d", len(res.Results))
	}
	estimators := column(t, res.Tables()[0], "estimator")
	if !slices.Contains(estimators, "mantis") || !slices.Contains(estimators, "count-min/16K") {
		t.Fatalf("estimator column incomplete: %q", estimators)
	}
}

func TestTable1Report(t *testing.T) {
	rows, err := usecases.Table1()
	if err != nil {
		t.Fatal(err)
	}
	tab := Table1Rows(rows).Tables()[0]
	if names := column(t, tab, "use case"); !slices.Contains(names, "Hash polarization mitigation") {
		t.Fatalf("use cases incomplete: %q", names)
	}
	if got := column(t, tab, "P4R LoC")[2]; got != fmt.Sprint(rows[2].P4RLoC) {
		t.Fatalf("P4R LoC cell %q, want %d", got, rows[2].P4RLoC)
	}
}

func TestAblations(t *testing.T) {
	res, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	// Three-phase delta cost ≪ two-phase full reinstall.
	if res.ThreePhaseOps*5 > res.TwoPhaseOps {
		t.Fatalf("three-phase %d ops vs two-phase %d; expected >=5x gap",
			res.ThreePhaseOps, res.TwoPhaseOps)
	}
	// Driver optimizations individually help; both together are fastest.
	if res.IterOptimized >= res.IterNoMemo || res.IterOptimized >= res.IterNoBatch {
		t.Fatalf("optimized %v not faster than ablations (%v, %v)",
			res.IterOptimized, res.IterNoMemo, res.IterNoBatch)
	}
	if res.IterNeither <= res.IterNoMemo || res.IterNeither <= res.IterNoBatch {
		t.Fatalf("neither %v should be slowest (%v, %v)",
			res.IterNeither, res.IterNoMemo, res.IterNoBatch)
	}
}

func TestFig16Sweep(t *testing.T) {
	if _, err := RunFig16(0, 1); err == nil {
		t.Error("a sweep of 0 trials per point succeeded")
	}
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	s, err := RunFig16(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reaction time grows with the measurement period (Fig. 16a).
	first, last := s.ByTd[0], s.ByTd[len(s.ByTd)-1]
	if last.Median <= first.Median {
		t.Fatalf("reaction time not increasing with T_d: %v .. %v", first.Median, last.Median)
	}
	// At small T_d the paper lands in 100-200µs; accept the same decade.
	if first.Median > 500*time.Microsecond {
		t.Fatalf("small-T_d reaction time %v", first.Median)
	}
	// Eta's impact is minor at fixed T_d (Fig. 16b): max/min medians
	// within ~4x.
	minM, maxM := s.ByEta[0].Median, s.ByEta[0].Median
	for _, st := range s.ByEta {
		if st.Median < minM {
			minM = st.Median
		}
		if st.Median > maxM {
			maxM = st.Median
		}
	}
	if float64(maxM) > 4*float64(minM) {
		t.Fatalf("eta impact too large: %v .. %v", minM, maxM)
	}
}

// TestFig16ParallelDeterminism: the worker-pool fan-out must be
// indistinguishable from the serial sweep — byte-identical JSON, the
// same bytes the experiments CLI writes to BENCH_fig16.json.
func TestFig16ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	serial, err := RunFig16(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFig16(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.MarshalIndent(serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(par, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel sweep diverged from serial:\nserial: %s\nparallel: %s", a, b)
	}
}

// TestForEach covers the pool helper itself: full coverage of the index
// space at any worker count, and lowest-index error selection.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		var hits [37]int32
		err := forEach(len(hits), workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
	wantErr := errors.New("boom")
	err := forEach(16, 4, func(i int) error {
		if i == 11 || i == 5 {
			return fmt.Errorf("job %d: %w", i, wantErr)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 5") {
		t.Fatalf("err = %v, want lowest-index job 5", err)
	}
	if err := forEach(0, 4, func(int) error { return wantErr }); err != nil {
		t.Fatalf("n=0 ran jobs: %v", err)
	}
}

func TestFig15Report(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario is slow")
	}
	r, err := RunFig15(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.BlockedAt == 0 {
		t.Fatal("the flood was never blocked")
	}
	timeline := r.Tables()[0]
	if got := column(t, timeline, "mitigation install")[0]; got != r.BlockedAt.String() {
		t.Fatalf("mitigation install cell %q, want %v", got, r.BlockedAt)
	}
}

// TestRecirculationThroughput: §2's claim — per-packet recirculation
// divides usable throughput sharply (~1/(N+1)).
func TestRecirculationThroughput(t *testing.T) {
	rows, err := RunRecirculation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].UsableThroughput < 0.95 {
		t.Fatalf("baseline throughput %.2f", rows[0].UsableThroughput)
	}
	// Two recirculations: ~1/3 (the paper measures 38% on hardware).
	if r := rows[2].UsableThroughput; r < 0.25 || r > 0.45 {
		t.Fatalf("2-recirc throughput %.2f, want ~1/3", r)
	}
	// Three: ~1/4 (paper: 16%).
	if r := rows[3].UsableThroughput; r < 0.18 || r > 0.35 {
		t.Fatalf("3-recirc throughput %.2f, want ~1/4", r)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].UsableThroughput >= rows[i-1].UsableThroughput {
			t.Fatalf("throughput not decreasing: %+v", rows)
		}
	}
}

// TestMeasurementFreshness: §4.2 R3 — polled data is as fresh as the
// dialogue period, while an overloaded digest stream is head-of-line
// blocked into ms-scale staleness.
func TestMeasurementFreshness(t *testing.T) {
	r, err := RunFreshness()
	if err != nil {
		t.Fatal(err)
	}
	if r.PollStaleness.Max > 15*time.Microsecond {
		t.Fatalf("poll staleness %v, want bounded by the dialogue period", r.PollStaleness.Max)
	}
	if r.DigestStaleness.P99 < 100*r.PollStaleness.Max {
		t.Fatalf("digest staleness %v not orders beyond poll staleness %v",
			r.DigestStaleness.P99, r.PollStaleness.Max)
	}
}
