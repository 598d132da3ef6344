package perf

import (
	"testing"
	"time"

	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// opStack is one channel call at a time through every op-handling layer
// there is: faults.Injector → ctlchan.Client → netsim.Link →
// ctlchan.Server → ctlplane.Session → driver.Driver.
type opStack struct {
	sim *sim.Simulator
	top driver.Channel
	raw *driver.Driver
	// call is the operation the driving process issues next, on top or on
	// raw; err is what it last returned.
	call func(p *sim.Proc, ch driver.Channel) error
	on   driver.Channel
	err  error
}

func newOpStack(t *testing.T) *opStack {
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
	s := sim.New(1)
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := &opStack{sim: s, raw: driver.New(s, sw, driver.DefaultCostModel())}
	svc := ctlplane.New(s, st.raw, ctlplane.Options{})
	sess, err := svc.Open(ctlplane.SessionOptions{Name: "agent", Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(s, time.Microsecond, faults.LinkNone(), 1)
	ctlchan.NewServer(s).Attach(link, netsim.LinkSideB, 1, 1, sess)
	cli := ctlchan.NewClient(s, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: st.raw})
	st.top = faults.Wrap(s, cli, faults.None(), 1)
	s.Spawn("caller", func(p *sim.Proc) {
		for {
			st.err = st.call(p, st.on)
			s.Stop()
			p.Yield()
		}
	})
	return st
}

// allocs reports the allocations of one call on ch, once warm.
func (st *opStack) allocs(t *testing.T, ch driver.Channel, call func(p *sim.Proc, ch driver.Channel) error) float64 {
	st.call, st.on = call, ch
	step := func() {
		st.sim.Run()
		if st.err != nil {
			t.Fatal(st.err)
		}
	}
	for i := 0; i < stackedWarmup; i++ {
		step()
	}
	return testing.AllocsPerRun(200, step)
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
	st := newOpStack(t)
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
		raw := st.allocs(t, st.raw, c.fn)
		if got := st.allocs(t, st.top, c.fn); got != raw {
			t.Errorf("%s: %.2f allocs through the stack, %.2f on the raw driver", c.name, got, raw)
		} else if raw != 0 && c.name != "AddEntry+DeleteEntry" {
			t.Errorf("%s: %.2f allocs on the raw driver, want 0", c.name, raw)
		}
	}
}
