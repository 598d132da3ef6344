// Package experiments regenerates every table and figure of the
// paper's evaluation (§8) against the simulated substrate. Each RunX
// function returns a result that is the experiment's JSON record and
// yields its tables (Tables); cmd/experiments renders them as text, and
// EXPERIMENTS.md holds their markdown rendering beside the paper's
// claims.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/report"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// microProgram builds a program with nSlots 64-bit measurement-style
// registers (2 instances each), one big register array, and a table for
// update benchmarks.
func microProgram(nSlots, arrayLen, tableSize int) *p4.Program {
	prog := p4.NewProgram("micro")
	prog.DefineStandardMetadata()
	k := prog.Schema.Define("h.k", 32)
	for i := 0; i < nSlots; i++ {
		prog.AddRegister(&p4.Register{Name: fmt.Sprintf("slot%d", i), Width: 64, Instances: 2})
	}
	prog.AddRegister(&p4.Register{Name: "bigarray", Width: 32, Instances: arrayLen})
	prog.AddAction(&p4.Action{
		Name:   "act",
		Params: []p4.Param{{Name: "v", Width: 32}},
		Body: []p4.Primitive{p4.ModifyField{
			Dst: prog.Schema.MustID(p4.FieldEgressSpec), DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "v"),
		}},
	})
	prog.AddTable(&p4.Table{
		Name:        "tbl",
		Keys:        []p4.MatchKey{{FieldName: "h.k", Field: k, Width: 32, Kind: p4.MatchExact}},
		ActionNames: []string{"act"},
		Size:        tableSize,
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "tbl"}}
	return prog
}

// Fig10aRow is one point of the measurement-latency microbenchmark.
type Fig10aRow struct {
	Bytes        int
	FieldLatency time.Duration // packed 32/64-bit field-arg registers
	RegLatency   time.Duration // one register-array range
}

// Fig10aRows is the Fig. 10a series.
type Fig10aRows []Fig10aRow

// RunFig10a measures raw measurement latency versus total state size,
// for field arguments (one packed register per 64-bit slot) and
// register-array arguments (a single DMA range).
func RunFig10a() (Fig10aRows, error) {
	var rows Fig10aRows
	for _, bytes := range []int{8, 16, 32, 64, 128, 256, 512} {
		slots := bytes / 8
		prog := microProgram(slots, 1024, 16)
		s := sim.New(1)
		sw, err := rmt.New(s, prog, rmt.DefaultConfig())
		if err != nil {
			return nil, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		row := Fig10aRow{Bytes: bytes}
		s.Spawn("cp", func(p *sim.Proc) {
			// Field arguments: one request per packed register.
			reqs := make([]driver.ReadReq, slots)
			for i := range reqs {
				reqs[i] = driver.ReadReq{Reg: fmt.Sprintf("slot%d", i), Lo: 0, Hi: 1}
			}
			t0 := p.Now()
			if _, err := drv.BatchRead(p, reqs); err != nil {
				panic(err)
			}
			row.FieldLatency = p.Now().Sub(t0)

			// Register arguments: one contiguous range of the same size.
			t0 = p.Now()
			if _, err := drv.BatchRead(p, []driver.ReadReq{{Reg: "bigarray", Lo: 0, Hi: uint64(bytes / 4)}}); err != nil {
				panic(err)
			}
			row.RegLatency = p.Now().Sub(t0)
		})
		s.Run()
		rows = append(rows, row)
	}
	return rows, nil
}

// Tables is the series plus the marginal cost per byte of each argument
// kind between the smallest and the largest size.
func (rows Fig10aRows) Tables() []report.Table {
	t := report.Table{Title: "Fig 10a — measurement latency vs state size",
		Columns: []string{"bytes", "field args", "register args"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, report.Row(r.Bytes, r.FieldLatency, r.RegLatency))
	}
	first, last := rows[0], rows[len(rows)-1]
	span := float64(last.Bytes - first.Bytes)
	t.Notes = []string{fmt.Sprintf("marginal cost %d→%d B: field args %.1f ns/B, register args %.1f ns/B",
		first.Bytes, last.Bytes, float64(last.FieldLatency-first.FieldLatency)/span,
		float64(last.RegLatency-first.RegLatency)/span)}
	return []report.Table{t}
}

// Fig10bRow is one point of the update-latency microbenchmark.
type Fig10bRow struct {
	Updates       int
	ScalarLatency time.Duration // malleable values/fields (one init write)
	TableLatency  time.Duration // table entry modifications
}

// Fig10bRows is the Fig. 10b series.
type Fig10bRows []Fig10bRow

// RunFig10b measures raw update latency versus update count: scalar
// malleables collapse into a single init-table write; table entry
// modifications scale linearly.
func RunFig10b() (Fig10bRows, error) {
	var rows Fig10bRows
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		prog := microProgram(1, 16, 128)
		s := sim.New(1)
		sw, err := rmt.New(s, prog, rmt.DefaultConfig())
		if err != nil {
			return nil, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		row := Fig10bRow{Updates: n}
		s.Spawn("cp", func(p *sim.Proc) {
			// Table mods: install n entries, memoize, then time n updates.
			handles := make([]rmt.EntryHandle, n)
			for i := 0; i < n; i++ {
				h, err := drv.AddEntry(p, "tbl", rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}, Action: "act", Data: []uint64{1},
				})
				if err != nil {
					panic(err)
				}
				handles[i] = h
				drv.Memoize("tbl", h)
			}
			t0 := p.Now()
			for _, h := range handles {
				drv.ModifyEntry(p, "tbl", h, "act", []uint64{2})
			}
			row.TableLatency = p.Now().Sub(t0)

			// Scalar malleables: n values all live in the master init
			// action — one default-action write regardless of n.
			drv.Memoize("tbl", 0)
			t0 = p.Now()
			drv.SetDefaultAction(p, "tbl", &p4.ActionCall{Action: "act", Data: []uint64{3}})
			row.ScalarLatency = p.Now().Sub(t0)
		})
		s.Run()
		rows = append(rows, row)
	}
	return rows, nil
}

// Tables is the series.
func (rows Fig10bRows) Tables() []report.Table {
	t := report.Table{Title: "Fig 10b — update latency vs number of updates",
		Columns: []string{"updates", "scalar malleable", "table entries"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, report.Row(r.Updates, r.ScalarLatency, r.TableLatency))
	}
	return []report.Table{t}
}

// fig11Src is a minimal reactive program: one malleable field updated
// per iteration (the workload of Fig. 11).
const fig11Src = `
header_type h_t { fields { a : 16; b : 16; } }
header h_t hdr;
malleable field fv { width : 16; init : hdr.a; alts { hdr.a, hdr.b } }
action use(port) {
  modify_field(standard_metadata.egress_spec, port);
  modify_field(hdr.a, ${fv});
}
malleable table t {
  actions { use; }
  size : 2;
}
action legacy_act(v) {
  modify_field(hdr.b, v);
}
table legacy {
  reads { hdr.a : exact; }
  actions { legacy_act; }
  size : 64;
}
reaction flip() {
  static int i = 0;
  i = i + 1;
  ${fv} = i & 1;
}
control ingress { apply(t); apply(legacy); }
`

// Fig11Row is one duty-cycle point.
type Fig11Row struct {
	Pacing        time.Duration
	Utilization   float64
	MeanIteration time.Duration
	// ReactionPeriod is the achieved loop granularity (pacing + work).
	ReactionPeriod time.Duration
}

// Fig11Rows is the Fig. 11 pacing sweep.
type Fig11Rows []Fig11Row

// RunFig11 sweeps nanosleep pacing and reports the CPU-utilization /
// reaction-time tradeoff.
func RunFig11() (Fig11Rows, error) {
	pacings := []time.Duration{0, 5 * time.Microsecond, 10 * time.Microsecond,
		20 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond}
	var rows Fig11Rows
	for _, pacing := range pacings {
		plan, err := compiler.CompileSource(fig11Src, compiler.DefaultOptions())
		if err != nil {
			return nil, err
		}
		s := sim.New(1)
		sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
		if err != nil {
			return nil, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		agent := core.NewAgent(s, drv, plan, core.Options{Pacing: pacing, MaxIterations: 500})
		agent.Start()
		s.Run()
		if err := agent.Err(); err != nil {
			return nil, err
		}
		st := agent.Stats()
		elapsed := s.Now().Duration()
		xs := make([]float64, len(st.Latencies))
		for i, d := range st.Latencies {
			xs[i] = float64(d)
		}
		mean := time.Duration(stats.Mean(xs))
		rows = append(rows, Fig11Row{
			Pacing:         pacing,
			Utilization:    float64(st.Busy) / float64(elapsed),
			MeanIteration:  mean,
			ReactionPeriod: time.Duration(float64(elapsed) / float64(st.Iterations)),
		})
	}
	return rows, nil
}

// Tables is the utilization/latency tradeoff.
func (rows Fig11Rows) Tables() []report.Table {
	t := report.Table{Title: "Fig 11 — CPU utilization vs reaction time (nanosleep pacing)",
		Columns: []string{"pacing", "utilization", "mean iter", "reaction period"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, report.Row(r.Pacing, fmt.Sprintf("%.1f%%", r.Utilization*100), r.MeanIteration, r.ReactionPeriod))
	}
	return []report.Table{t}
}

// Fig12Result compares concurrent legacy-operation latency with and
// without the Mantis busy loop.
type Fig12Result struct {
	Without stats.DurationStats
	With    stats.DurationStats
	// MedianOverheadPct and P99OverheadPct are the relative increases
	// (paper: 4.64% and 6.45%).
	MedianOverheadPct float64
	P99OverheadPct    float64
}

// RunFig12 measures the latency of a continuous stream of legacy table
// updates issued from a second control-plane process, with and without
// Mantis's dialogue loop contending for the driver. Both parties go
// through the control-plane service — the agent on a primary session,
// the legacy updater on a bulk session — which is the production wiring
// (RunFig12x sweeps the same setup across client counts and policies).
func RunFig12() (*Fig12Result, error) {
	run := func(withMantis bool) ([]time.Duration, error) {
		plan, err := compiler.CompileSource(fig11Src, compiler.DefaultOptions())
		if err != nil {
			return nil, err
		}
		s := sim.New(1)
		sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
		if err != nil {
			return nil, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		svc := ctlplane.New(s, drv, ctlplane.Options{})
		if withMantis {
			agent, _, err := core.NewSessionAgent(s, svc, 1, plan, core.Options{})
			if err != nil {
				return nil, err
			}
			agent.Start()
		}
		sess, err := svc.Open(ctlplane.SessionOptions{Name: "legacy-cp", Role: ctlplane.RoleLegacy})
		if err != nil {
			return nil, err
		}
		var lats []time.Duration
		s.Spawn("legacy-cp", func(p *sim.Proc) {
			h, err := sess.AddEntry(p, "legacy", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "legacy_act", Data: []uint64{1},
			})
			if err != nil {
				panic(err)
			}
			rng := s.Rand()
			for i := 0; i < 2000; i++ {
				// A continuous but jittered stream: arrivals land at random
				// phases of Mantis's dialogue, producing the bimodal
				// blocked/unblocked split of Fig. 12.
				p.Sleep(time.Duration(rng.Intn(5000)) * time.Nanosecond)
				t0 := p.Now()
				if err := sess.ModifyEntry(p, "legacy", h, "legacy_act", []uint64{uint64(i)}); err != nil {
					panic(err)
				}
				lats = append(lats, p.Now().Sub(t0))
			}
		})
		s.RunFor(50 * time.Millisecond)
		return lats, nil
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	with, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{
		Without: stats.SummarizeDurations(without),
		With:    stats.SummarizeDurations(with),
	}
	res.MedianOverheadPct = 100 * (float64(res.With.Median)/float64(res.Without.Median) - 1)
	res.P99OverheadPct = 100 * (float64(res.With.P99)/float64(res.Without.P99) - 1)
	return res, nil
}

// Tables is the legacy-contention comparison.
func (r *Fig12Result) Tables() []report.Table {
	return []report.Table{{
		Title:   "Fig 12 — legacy table-update latency with/without Mantis",
		Columns: append([]string{"legacy updater"}, report.DurColumns...),
		Rows:    [][]string{report.DurRow("without Mantis", r.Without), report.DurRow("with Mantis", r.With)},
		Notes:   []string{fmt.Sprintf("overhead: median %+.2f%%, p99 %+.2f%%", r.MedianOverheadPct, r.P99OverheadPct)},
	}}
}
