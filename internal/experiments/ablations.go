package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/report"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// AblationResult summarizes the design-choice ablations DESIGN.md
// calls out.
type AblationResult struct {
	// Three-phase vs two-phase: driver ops + latency to change one entry
	// in an N-entry configuration.
	ConfigSize     int
	ThreePhaseOps  uint64
	ThreePhaseTime time.Duration
	TwoPhaseOps    uint64
	TwoPhaseTime   time.Duration

	// Memoization/batching: mean dialogue iteration latency.
	IterOptimized time.Duration
	IterNoMemo    time.Duration
	IterNoBatch   time.Duration
	IterNeither   time.Duration
}

const ablationSrc = `
header_type h_t { fields { k : 16; v : 16; } }
header h_t hdr;
register r1 { width : 32; instance_count : 8; }
register r2 { width : 32; instance_count : 8; }
action touch() {
  register_increment(r1, 0, 1);
  register_increment(r2, 1, 1);
}
action setv(x) { modify_field(hdr.v, x); }
table toucher { actions { touch; } default_action : touch; size : 1; }
malleable table cfg {
  reads { hdr.k : exact; }
  actions { setv; }
  size : 64;
}
reaction watch(reg r1, reg r2, ing hdr.k, ing hdr.v) {
}
control ingress { apply(toucher); apply(cfg); }
`

// RunAblations measures the update-protocol and driver-optimization
// ablations.
func RunAblations() (*AblationResult, error) {
	res := &AblationResult{ConfigSize: 50}

	// ---- Three-phase (Mantis) one-entry change in a 50-entry config.
	{
		plan, err := compiler.CompileSource(ablationSrc, compiler.DefaultOptions())
		if err != nil {
			return nil, err
		}
		s := sim.New(1)
		sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
		if err != nil {
			return nil, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		var handles []core.UserHandle
		var changed, captured bool
		var opsBefore uint64
		var agent *core.Agent
		agent = core.NewAgent(s, drv, plan, core.Options{
			AfterIteration: func(p *sim.Proc, a *core.Agent) {
				if changed && !captured {
					captured = true
					res.ThreePhaseOps = drv.Stats().TableOps - opsBefore
					res.ThreePhaseTime = a.Stats().LastIteration
					a.Stop()
				}
			},
			Prologue: func(p *sim.Proc, a *core.Agent) error {
				tbl, err := a.Table("cfg")
				if err != nil {
					return err
				}
				for i := 0; i < res.ConfigSize; i++ {
					h, err := tbl.AddEntry(p, core.UserEntry{
						Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}, Action: "setv", Data: []uint64{1},
					})
					if err != nil {
						return err
					}
					handles = append(handles, h)
				}
				return nil
			},
		})
		if err := agent.RegisterNativeReaction("watch", func(ctx *core.Ctx) error {
			if changed {
				return nil
			}
			changed = true
			opsBefore = drv.Stats().TableOps
			tbl, _ := ctx.Table("cfg")
			return tbl.ModifyEntry(handles[0], "setv", []uint64{9})
		}); err != nil {
			return nil, err
		}
		agent.Start()
		s.RunFor(2 * time.Millisecond)
		agent.Stop()
		s.Run()
		if err := agent.Err(); err != nil {
			return nil, err
		}
	}

	// ---- Two-phase (full reinstall) one-entry change, same config size.
	{
		prog := p4.NewProgram("twophase-abl")
		prog.DefineStandardMetadata()
		k := prog.Schema.Define("h.k", 16)
		ver := prog.Schema.Define("m.ver", 32)
		prog.AddAction(&p4.Action{
			Name:   "set_ver",
			Params: []p4.Param{{Name: "v", Width: 32}},
			Body:   []p4.Primitive{p4.ModifyField{Dst: ver, DstName: "m.ver", Src: p4.ParamOp(0, "v")}},
		})
		prog.AddAction(&p4.Action{
			Name:   "setv",
			Params: []p4.Param{{Name: "x", Width: 16}},
			Body:   []p4.Primitive{p4.ModifyField{Dst: k, DstName: "h.k", Src: p4.ParamOp(0, "x")}},
		})
		prog.AddTable(&p4.Table{
			Name: "ver_tbl", ActionNames: []string{"set_ver"},
			DefaultAction: &p4.ActionCall{Action: "set_ver", Data: []uint64{0}}, Size: 1,
		})
		prog.AddTable(&p4.Table{
			Name: "cfg",
			Keys: []p4.MatchKey{
				{FieldName: "h.k", Field: k, Width: 16, Kind: p4.MatchExact},
				{FieldName: "m.ver", Field: ver, Width: 32, Kind: p4.MatchExact},
			},
			ActionNames: []string{"setv"},
		})
		prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "ver_tbl"}, p4.Apply{Table: "cfg"}}
		s := sim.New(1)
		sw, err := rmt.New(s, prog, rmt.DefaultConfig())
		if err != nil {
			return nil, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		tp := baseline.NewTwoPhase(drv, "cfg", "ver_tbl", "set_ver")
		rules := make([]baseline.Rule, res.ConfigSize)
		for i := range rules {
			rules[i] = baseline.Rule{Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}, Action: "setv", Data: []uint64{1}}
		}
		s.Spawn("cp", func(p *sim.Proc) {
			if err := tp.Install(p, rules); err != nil {
				panic(err)
			}
			before := tp.Ops
			t0 := p.Now()
			rules[0].Data = []uint64{9}
			if err := tp.Install(p, rules); err != nil {
				panic(err)
			}
			res.TwoPhaseOps = tp.Ops - before
			res.TwoPhaseTime = p.Now().Sub(t0)
		})
		s.Run()
	}

	// ---- Memoization / batching ablation on the dialogue loop.
	iter := func(memo, batch bool) (time.Duration, error) {
		plan, err := compiler.CompileSource(ablationSrc, compiler.DefaultOptions())
		if err != nil {
			return 0, err
		}
		s := sim.New(1)
		sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
		if err != nil {
			return 0, err
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		drv.SetMemoization(memo)
		drv.SetBatching(batch)
		agent := core.NewAgent(s, drv, plan, core.Options{MaxIterations: 200})
		agent.Start()
		s.Run()
		if err := agent.Err(); err != nil {
			return 0, err
		}
		return agent.Stats().LastIteration, nil
	}
	var err error
	if res.IterOptimized, err = iter(true, true); err != nil {
		return nil, err
	}
	if res.IterNoMemo, err = iter(false, true); err != nil {
		return nil, err
	}
	if res.IterNoBatch, err = iter(true, false); err != nil {
		return nil, err
	}
	if res.IterNeither, err = iter(false, false); err != nil {
		return nil, err
	}
	return res, nil
}

// Tables is the update-protocol comparison and the driver-optimization
// ablation.
func (r *AblationResult) Tables() []report.Table {
	proto := report.Table{Title: fmt.Sprintf("Ablations — one-entry change in a %d-entry configuration", r.ConfigSize),
		Columns: []string{"update protocol", "driver ops", "latency"},
		Rows: [][]string{
			report.Row("Mantis three-phase (iteration)", r.ThreePhaseOps, r.ThreePhaseTime),
			report.Row("two-phase full reinstall", r.TwoPhaseOps, r.TwoPhaseTime),
		},
		Notes: []string{fmt.Sprintf("three-phase issues %.1fx fewer driver ops", float64(r.TwoPhaseOps)/float64(r.ThreePhaseOps))},
	}
	drv := report.Table{Title: "Ablations — dialogue iteration latency vs driver optimizations",
		Columns: []string{"driver", "iteration"},
		Rows: [][]string{
			report.Row("memoization + batching", r.IterOptimized),
			report.Row("no memoization", r.IterNoMemo),
			report.Row("no batching", r.IterNoBatch),
			report.Row("neither", r.IterNeither),
		},
		Notes: []string{fmt.Sprintf("both optimizations together: %.2fx faster than neither", float64(r.IterNeither)/float64(r.IterOptimized))},
	}
	return []report.Table{proto, drv}
}
