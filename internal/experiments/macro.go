package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/usecases"
	"repro/internal/workload"
)

// Fig14Result is the flow-size-estimation accuracy comparison.
type Fig14Result struct {
	TraceFlows   int
	TracePackets int
	Results      []baseline.EvalResult
}

// RunFig14 replays a CAIDA-shaped trace through every estimator. scale
// in (0,1] shrinks the trace from the paper's ~8.9M-packet block (1.0)
// for faster runs.
func RunFig14(scale float64, seed int64) (*Fig14Result, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("scale %v out of (0,1]", scale)
	}
	cfg := workload.TraceConfig{
		Flows:        int(370000 * scale),
		TotalPackets: int(8900000 * scale),
		Duration:     20 * time.Second,
		ZipfS:        1.1,
		MinPktSize:   64,
		MaxPktSize:   1500,
		Sources:      4096,
		Seed:         seed,
	}
	tr := workload.Generate(cfg)
	// The paper's Mantis sustains ~10µs sampling = ~1 in 5 packets on
	// its trace; scale the poll interval to keep the same 1-in-5 ratio.
	pktInterval := cfg.Duration / time.Duration(len(tr.Packets))
	mantisPoll := 5 * pktInterval

	// Scale the data-plane structures with the trace so the paper's
	// flows-per-counter pressure (370K flows : 8,192 counters) holds at
	// any -scale; at scale=1.0 these are exactly the paper's sizes.
	w8k := int(8192 * scale)
	if w8k < 64 {
		w8k = 64
	}
	ests := []baseline.Estimator{
		baseline.NewMantisSampler(mantisPoll),
		baseline.NewSFlow(30000, seed),
		baseline.NewCountMin(2, w8k, seed),
		baseline.NewCountMin(2, 2*w8k, seed),
		baseline.NewHashTable(w8k, seed),
		baseline.NewHashTable(2*w8k, seed),
	}
	res := &Fig14Result{TraceFlows: len(tr.Flows), TracePackets: len(tr.Packets)}
	for _, est := range ests {
		res.Results = append(res.Results, baseline.RunEstimator(tr, est))
	}
	return res, nil
}

// Tables is the per-bucket mean relative error of every estimator.
func (r *Fig14Result) Tables() []report.Table {
	t := report.Table{Title: fmt.Sprintf("Fig 14 — mean relative estimation error (%d flows, %d packets)", r.TraceFlows, r.TracePackets),
		Columns: append([]string{"estimator"}, r.Results[0].Buckets...)}
	// Repeated estimators are told apart by size.
	sized := map[int]string{2: "count-min/8K", 3: "count-min/16K", 4: "hashtable/8K", 5: "hashtable/16K"}
	for i, res := range r.Results {
		name, ok := sized[i]
		if !ok {
			name = res.Name
		}
		cells := []string{name}
		for _, e := range res.MeanErr {
			cells = append(cells, fmt.Sprintf("%.4f", e))
		}
		t.Rows = append(t.Rows, cells)
	}
	return []report.Table{t}
}

// Fig15Result is the DoS timeline of usecases.RunFig15; its JSON is that
// type's.
type Fig15Result usecases.Fig15Result

// RunFig15 runs the use case at its default configuration.
func RunFig15(seed int64) (*Fig15Result, error) {
	r, err := usecases.RunFig15(usecases.DefaultFig15Config(), seed)
	return (*Fig15Result)(r), err
}

// fig15Bucket is the width of the goodput timeline's buckets.
const fig15Bucket = 300 * time.Microsecond

// Tables is the mitigation timeline and the benign goodput per bucket.
func (r *Fig15Result) Tables() []report.Table {
	head := report.Table{Title: "Fig 15 — DoS mitigation timeline",
		Columns: []string{"flood start", "mitigation install", "detection latency",
			"pre (Gbps)", "during flood (Gbps)", "recovered (Gbps)"},
		Rows: [][]string{report.Row(r.FloodStart, r.BlockedAt, r.DetectionLatency,
			fmt.Sprintf("%.2f", r.PreGbps), fmt.Sprintf("%.2f", r.FloodGbps), fmt.Sprintf("%.2f", r.PostGbps))},
	}
	series := report.Table{Title: fmt.Sprintf("Fig 15 — benign goodput per %v bucket", fig15Bucket),
		Columns: []string{"bucket start", "goodput (Gbps)"}}
	starts, sums := r.Goodput.Bucketize(fig15Bucket)
	for i := range starts {
		series.Rows = append(series.Rows, report.Row(starts[i], fmt.Sprintf("%.2f", sums[i]*8/fig15Bucket.Seconds()/1e9)))
	}
	return []report.Table{head, series}
}

// Fig16Sweep holds the reaction-time sweeps of Figs. 16a and 16b.
type Fig16Sweep struct {
	// ByTd maps measurement period -> reaction-time stats over trials.
	TdValues []time.Duration
	ByTd     []stats.DurationStats
	// ByEta maps eta -> reaction-time stats at fixed Td.
	EtaValues []float64
	ByEta     []stats.DurationStats
}

// fig16Point is one parameter point of the Fig. 16 sweeps.
type fig16Point struct {
	td  time.Duration
	eta float64
	// byEta marks the point as part of the eta sweep (Fig. 16b) rather
	// than the T_d sweep (Fig. 16a).
	byEta bool
}

func fig16Points() []fig16Point {
	var pts []fig16Point
	for _, td := range []time.Duration{20 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond} {
		pts = append(pts, fig16Point{td: td, eta: 0.5})
	}
	for _, eta := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		pts = append(pts, fig16Point{td: 50 * time.Microsecond, eta: eta, byEta: true})
	}
	return pts
}

// RunFig16 sweeps the measurement period T_d (Fig. 16a) and the
// delivery expectation eta (Fig. 16b), with trials failure phases per
// point to capture the variance from failure position in the window.
// Up to workers trials are in flight at once. Every (parameter point,
// trial) pair is an independent deterministic simulation seeded by its
// trial number, and reaction times land in slices indexed by (point,
// trial), so the result is bit-identical to the serial run (workers <=
// 1) for any worker count.
func RunFig16(trials, workers int) (*Fig16Sweep, error) {
	if trials < 1 {
		return nil, fmt.Errorf("trials %d, want at least 1", trials)
	}
	pts := fig16Points()
	durs := make([][]time.Duration, len(pts))
	for i := range durs {
		durs[i] = make([]time.Duration, trials)
	}
	err := forEach(len(pts)*trials, workers, func(j int) error {
		pi, trial := j/trials, j%trials
		p := pts[pi]
		failAt := 300*time.Microsecond + time.Duration(trial)*p.td/time.Duration(trials)
		res, err := usecases.RunFig16(int64(trial+1), 3, failAt, p.td, p.eta)
		if err != nil {
			return err
		}
		if !res.Detected {
			return fmt.Errorf("td=%v eta=%v trial %d: not detected", p.td, p.eta, trial)
		}
		durs[pi][trial] = res.ReactionTime
		return nil
	})
	if err != nil {
		return nil, err
	}
	sweep := &Fig16Sweep{}
	for i, p := range pts {
		st := stats.SummarizeDurations(durs[i])
		if p.byEta {
			sweep.EtaValues = append(sweep.EtaValues, p.eta)
			sweep.ByEta = append(sweep.ByEta, st)
		} else {
			sweep.TdValues = append(sweep.TdValues, p.td)
			sweep.ByTd = append(sweep.ByTd, st)
		}
	}
	return sweep, nil
}

// Tables is one table per sweep.
func (s *Fig16Sweep) Tables() []report.Table {
	td := report.Table{Title: "Fig 16a — failure reaction time vs measurement period T_d (eta=0.5)",
		Columns: []string{"T_d", "median", "min", "max"}}
	for i, v := range s.TdValues {
		td.Rows = append(td.Rows, report.Row(v, s.ByTd[i].Median, s.ByTd[i].Min, s.ByTd[i].Max))
	}
	eta := report.Table{Title: "Fig 16b — failure reaction time vs eta (T_d=50µs)",
		Columns: []string{"eta", "median", "min", "max"}}
	for i, v := range s.EtaValues {
		eta.Rows = append(eta.Rows, report.Row(fmt.Sprintf("%.1f", v), s.ByEta[i].Median, s.ByEta[i].Min, s.ByEta[i].Max))
	}
	return []report.Table{td, eta}
}

// Table1Rows is the use-case inventory of usecases.Table1.
type Table1Rows []usecases.Table1Row

// Tables is the inventory as the paper's Table 1 lays it out.
func (rows Table1Rows) Tables() []report.Table {
	t := report.Table{Title: "Table 1 — use-case inventory (marginal cost over a basic router)",
		Columns: []string{"use case", "mbl values", "mbl fields", "mbl tables", "P4R LoC", "P4 LoC",
			"stages", "tables", "registers", "SRAM (KB)", "TCAM (KB)", "metadata (b)"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, report.Row(r.Name, r.MblValues, r.MblFields, r.MblTables, r.P4RLoC, r.P4LoC,
			r.Stages, r.Tables, r.Registers, fmt.Sprintf("%.1f", r.SRAMKB), fmt.Sprintf("%.1f", r.TCAMKB), r.MetadataBits))
	}
	return []report.Table{t}
}
