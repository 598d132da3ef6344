package perf

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// opRun returns the run of call, issued on the raw driver or, when top,
// through every op-handling layer there is: faults.Injector on the
// deployed stack.
func opRun(t *testing.T, top bool, call func(p *sim.Proc, ch driver.Channel) error) func(n int) {
	prog := p4.NewProgram("op-stack")
	prog.DefineStandardMetadata()
	dst := prog.Schema.Define("ipv4.dstAddr", 32)
	prog.AddRegister(&p4.Register{Name: "ctr", Width: 32, Instances: 64})
	prog.AddHash(&p4.HashCalc{Name: "ecmp", Fields: []packet.FieldID{dst}, Width: 16})
	prog.AddAction(&p4.Action{Name: "nop", Params: []p4.Param{{Name: "x", Width: 16}}})
	prog.AddTable(&p4.Table{
		Name:        "fw",
		Keys:        []p4.MatchKey{{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: p4.MatchExact}},
		ActionNames: []string{"nop"},
		Size:        128,
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "fw"}}
	l := &loop{s: sim.New(1)}
	cli, raw := deploy(t, l.s, prog)
	var ch driver.Channel = raw
	if top {
		ch = faults.Wrap(l.s, cli, faults.None(), 1)
	}
	l.s.Spawn("caller", func(p *sim.Proc) {
		for l.err == nil {
			l.err = call(p, ch)
			l.tick()
		}
	})
	return l.start(t, nil)
}

// TestStackedOpsAllocateNothing: every write kind and the range read,
// carried through all five layers as one Op per layer, costs exactly the
// allocations the same call costs on the raw driver — the adapters, the
// injector, client, link, server and session add none. (Only
// AddEntry costs any: the switch keeps a copy of the entry.) Skipped
// under the race detector, whose instrumentation allocates.
func TestStackedOpsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var (
		h     rmt.EntryHandle
		key   uint64
		keys  = make([]rmt.KeySpec, 1)
		data  = []uint64{7}
		call  = p4.ActionCall{Action: "nop", Data: data}
		reqs  = []driver.ReadReq{{Reg: "ctr", Lo: 0, Hi: 16}, {Reg: "ctr", Lo: 32, Hi: 40}}
		rows  = make([][]uint64, len(reqs))
		calls = []struct {
			name string
			fn   func(p *sim.Proc, ch driver.Channel) error
		}{
			{"AddEntry+DeleteEntry", func(p *sim.Proc, ch driver.Channel) (err error) {
				key++
				keys[0] = rmt.ExactKey(key)
				if h, err = ch.AddEntry(p, "fw", rmt.Entry{Keys: keys, Action: "nop", Data: data}); err != nil {
					return err
				}
				if err = ch.ModifyEntry(p, "fw", h, "nop", data); err != nil {
					return err
				}
				return ch.DeleteEntry(p, "fw", h)
			}},
			{"SetDefaultAction", func(p *sim.Proc, ch driver.Channel) error { return ch.SetDefaultAction(p, "fw", &call) }},
			{"SetHashSeed", func(p *sim.Proc, ch driver.Channel) error { return ch.SetHashSeed(p, "ecmp", key) }},
			{"RegWrite", func(p *sim.Proc, ch driver.Channel) error { return ch.RegWrite(p, "ctr", 3, key) }},
			{"BatchReadInto", func(p *sim.Proc, ch driver.Channel) error {
				return ch.(driver.RangeReader).BatchReadInto(p, reqs, rows)
			}},
		}
	)
	for _, c := range calls {
		raw := allocs(opRun(t, false, c.fn))
		if got := allocs(opRun(t, true, c.fn)); got != raw {
			t.Errorf("%s: %.0f allocs through the stack, %.0f on the raw driver, in %d calls", c.name, got, raw, gateOps)
		} else if raw != 0 && c.name != "AddEntry+DeleteEntry" {
			t.Errorf("%s: %.0f allocs on the raw driver in %d calls, want 0", c.name, raw, gateOps)
		}
	}
}
