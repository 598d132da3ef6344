package check_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// tapSrc has a versioned malleable table t, an unversioned table u, a
// polled register qd and a polled field, and two malleable values that
// do not fit one init action at tapInitBits, so a second init table
// holds one of them.
const tapSrc = `
header_type h_t { fields { k : 8; o : 32; port : 8; } }
header h_t hdr;
register qd { width : 32; instance_count : 6; }
malleable value a { width : 32; init : 0; }
malleable value b { width : 32; init : 0; }
action meas() { register_write(qd, hdr.port, standard_metadata.packet_length); }
action set(v) { modify_field(hdr.o, v); }
table m { actions { meas; } default_action : meas; size : 1; }
malleable table t { reads { hdr.k : exact; } actions { set; } size : 4; }
table u { reads { hdr.k : exact; } actions { set; } size : 4; }
reaction react(ing hdr.k, reg qd) { ${a} = 1; ${b} = 2; }
control ingress { apply(m); apply(t); apply(u); }
`

const tapInitBits = 40

// tapEnv is tapSrc on a raw driver behind a tap carrying the rules,
// with helpers that issue ops as the agent would.
type tapEnv struct {
	t     *testing.T
	plan  *compiler.Plan
	tap   *check.Tap
	rules *check.Rules
	p     *sim.Proc
}

// runTap runs script in a process against a fresh tapEnv and returns
// its rules.
func runTap(t *testing.T, script func(e *tapEnv)) *check.Rules {
	t.Helper()
	opts := compiler.DefaultOptions()
	opts.MaxInitActionBits = tapInitBits
	plan, err := compiler.CompileSource(tapSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.InitTables) != 2 {
		t.Fatalf("%d init tables, want 2", len(plan.InitTables))
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &tapEnv{t: t, plan: plan, tap: check.NewTap(driver.New(s, sw, driver.DefaultCostModel()))}
	e.rules = e.tap.Check(plan)
	s.Spawn("script", func(p *sim.Proc) {
		e.p = p
		script(e)
	})
	s.Run()
	return e.rules
}

func (e *tapEnv) must(err error) {
	if err != nil {
		e.t.Fatal(err)
	}
}

// add installs t's entry for key k in copy v.
func (e *tapEnv) add(k, v uint64) rmt.EntryHandle {
	keys := make([]rmt.KeySpec, e.plan.MblTables["t"].VVCol+1)
	keys[0], keys[len(keys)-1] = rmt.ExactKey(k), rmt.ExactKey(v)
	h, err := e.tap.AddEntry(e.p, "t", rmt.Entry{Keys: keys, Action: "set", Data: []uint64{k}})
	e.must(err)
	return h
}

// initEntry installs the second init table's entry for copy v.
func (e *tapEnv) initEntry(v uint64) rmt.EntryHandle {
	it := e.plan.InitTables[1]
	h, err := e.tap.AddEntry(e.p, it.Table, rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(v)}, Action: it.Action, Data: make([]uint64, len(it.Params))})
	e.must(err)
	return h
}

// flip sets the master's version bits to vv and mv.
func (e *tapEnv) flip(vv, mv uint64) {
	master := e.plan.InitTables[0]
	data := make([]uint64, len(master.Params))
	for i, ip := range master.Params {
		switch ip.Kind {
		case compiler.InitVV:
			data[i] = vv
		case compiler.InitMV:
			data[i] = mv
		}
	}
	e.must(e.tap.SetDefaultAction(e.p, master.Table, &p4.ActionCall{Action: master.Action, Data: data}))
}

// poll reads copy c of every measurement register, as the agent's poll
// of copy c does.
func (e *tapEnv) poll(c uint64) {
	rx := e.plan.Reactions[0]
	rp := rx.RegParams[0]
	base := c * uint64(rp.PaddedN)
	_, err := e.tap.BatchRead(e.p, []driver.ReadReq{
		{Reg: rx.IngSlots[0].Register, Lo: c, Hi: c + 1},
		{Reg: rp.Dup, Lo: base + uint64(rp.Lo), Hi: base + uint64(rp.Hi) + 1},
		{Reg: rp.Ts, Lo: base + uint64(rp.Lo), Hi: base + uint64(rp.Hi) + 1},
	})
	e.must(err)
}

// prologue installs both copies of t's entry for key 1 and of the
// second init table, as the agent's prologue does, and arms the rules.
func (e *tapEnv) prologue() (h0, h1, i0, i1 rmt.EntryHandle) {
	h0, h1 = e.add(1, 0), e.add(1, 1)
	i0, i1 = e.initEntry(0), e.initEntry(1)
	e.rules.Arm()
	return h0, h1, i0, i1
}

// TestRulesHoldOnLegalSequences issues what the agent issues and no
// rule fires: the prologue installing both copies, a settle before the
// arm, polls of the frozen copy, prepares, a flip and the mirrors after
// it, and writes to an unversioned table.
func TestRulesHoldOnLegalSequences(t *testing.T) {
	rules := runTap(t, func(e *tapEnv) {
		// A settle: the shadow copy, then the live one, before the arm.
		e.add(2, 1)
		e.add(2, 0)
		// Handles by copy: t's entry for key 1, the init entry, and the
		// entry for the previous iteration's key.
		var tk, ik, prev [2]rmt.EntryHandle
		tk[0], tk[1], ik[0], ik[1] = e.prologue()
		it := e.plan.InitTables[1]
		vv, mv := uint64(0), uint64(0)
		// stage writes, in the shadow copy, what one iteration changes.
		stage := func(k uint64) {
			s := vv ^ 1
			e.must(e.tap.ModifyEntry(e.p, "t", tk[s], "set", []uint64{k}))
			e.must(e.tap.ModifyEntry(e.p, it.Table, ik[s], it.Action, []uint64{k}))
			if prev[s] != 0 {
				e.must(e.tap.DeleteEntry(e.p, "t", prev[s]))
			}
			prev[s] = e.add(10+k, s)
		}
		for k := uint64(0); k < 4; k++ {
			// The mv flip, then a poll of the copy it froze.
			mv ^= 1
			e.flip(vv, mv)
			e.poll(mv ^ 1)
			// Prepares, the vv flip, then the mirrors.
			stage(k)
			vv ^= 1
			e.flip(vv, mv)
			stage(k)
			// An unversioned table is written as packets see it.
			hu, err := e.tap.AddEntry(e.p, "u", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(k)}, Action: "set", Data: []uint64{k}})
			e.must(err)
			e.must(e.tap.ModifyEntry(e.p, "u", hu, "set", []uint64{k + 1}))
			e.must(e.tap.DeleteEntry(e.p, "u", hu))
		}
	})
	if err := rules.Err(); err != nil {
		t.Fatal(err)
	}
	if rules.Reads != 4 || rules.Writes == 0 {
		t.Fatalf("the rules checked %d reads and %d writes, want 4 and some", rules.Reads, rules.Writes)
	}
}

// TestRulesFire issues one op that breaks a snapshot rule after legal
// ones, and the rules name it: its number, kind, table, the handle or
// key, the copy it addresses and the live bits.
func TestRulesFire(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script func(e *tapEnv)
		want   string
	}{
		{"live-copy read", func(e *tapEnv) {
			e.prologue()
			e.flip(0, 1)
			e.poll(1)
		}, "at op 5 BatchRead: reads p4r_meas_react_ing0_ [1,2) in copy mv=1, the one packets write (live vv=0 mv=1)"},
		{"read across copies", func(e *tapEnv) {
			e.prologue()
			rp := e.plan.Reactions[0].RegParams[0]
			_, err := e.tap.BatchRead(e.p, []driver.ReadReq{{Reg: rp.Dup, Lo: 4, Hi: uint64(rp.PaddedN) + 4}})
			e.must(err)
		}, "at op 4 BatchRead: reads p4r_dup_qd_ [4,12) across both copies (live vv=0 mv=0)"},
		{"live-copy modify", func(e *tapEnv) {
			h0, _, _, _ := e.prologue()
			e.must(e.tap.ModifyEntry(e.p, "t", h0, "set", []uint64{9}))
		}, "at op 4 ModifyEntry t: handle 1 writes copy vv=0, the one packets read (live vv=0 mv=0)"},
		{"live-copy delete after a flip", func(e *tapEnv) {
			_, h1, _, _ := e.prologue()
			e.flip(1, 0)
			e.must(e.tap.DeleteEntry(e.p, "t", h1))
		}, "at op 5 DeleteEntry t: handle 2 writes copy vv=1, the one packets read (live vv=1 mv=0)"},
		{"live-copy add", func(e *tapEnv) {
			e.prologue()
			e.add(5, 0)
		}, "at op 4 AddEntry t: key [5 0] writes copy vv=0, the one packets read (live vv=0 mv=0)"},
		// The rules cannot tell a settle from a mirror issued before its
		// flip; a settle is legal because it runs before the arm.
		{"settle after the arm", func(e *tapEnv) {
			e.prologue()
			e.add(5, 1)
			e.add(5, 0)
		}, "at op 5 AddEntry t: key [5 0] writes copy vv=0"},
		{"live init-table modify", func(e *tapEnv) {
			_, _, i0, _ := e.prologue()
			it := e.plan.InitTables[1]
			e.must(e.tap.ModifyEntry(e.p, it.Table, i0, it.Action, []uint64{7}))
		}, "at op 4 ModifyEntry p4r_init2_: handle 1 writes copy vv=0, the one packets read (live vv=0 mv=0)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runTap(t, tc.script).Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rules say %v, want %q", err, tc.want)
			}
		})
	}
}

// rttChan is a driver with the optional RTT and Faults of a message
// channel.
type rttChan struct {
	*driver.Driver
	faults uint64
}

func (c *rttChan) RTT() time.Duration { return 3 * time.Microsecond }
func (c *rttChan) Faults() uint64     { return c.faults }

// TestTapNumbersHooksAndForwards: every op that reaches the tap gets the
// next number; Before fails an op without passing it down, After sees
// each op that went down and may replace its error; RTT and Faults are
// the channel below's, Faults plus ExtraFaults.
func TestTapNumbersHooksAndForwards(t *testing.T) {
	plan, err := compiler.CompileSource(tapSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	below := &rttChan{Driver: driver.New(s, sw, driver.DefaultCostModel()), faults: 4}
	tap := check.NewTap(below)
	refused, lost := errors.New("refused"), errors.New("ack lost")
	var before, after []string
	tap.Before = func(_ *sim.Proc, n int, op *driver.Op) error {
		before = append(before, fmt.Sprint(n, " ", op.Kind))
		if n == 1 {
			return refused
		}
		return nil
	}
	tap.After = func(_ *sim.Proc, n int, op *driver.Op, err error) error {
		after = append(after, fmt.Sprint(n, " ", op.Kind))
		if n == 2 {
			return lost
		}
		return err
	}
	var errs []error
	s.Spawn("ops", func(p *sim.Proc) {
		for k := uint64(0); k < 3; k++ {
			_, err := tap.AddEntry(p, "u", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(k)}, Action: "set", Data: []uint64{k}})
			errs = append(errs, err)
		}
		_, err := tap.RegRead(p, "qd", 0)
		errs = append(errs, err)
	})
	s.Run()
	if want := []error{nil, refused, lost, nil}; !slices.Equal(errs, want) {
		t.Errorf("errors %v, want %v", errs, want)
	}
	if want := []string{"0 AddEntry", "1 AddEntry", "2 AddEntry", "3 RegRead"}; !slices.Equal(before, want) {
		t.Errorf("Before saw %v, want %v", before, want)
	}
	if want := []string{"0 AddEntry", "2 AddEntry", "3 RegRead"}; !slices.Equal(after, want) {
		t.Errorf("After saw %v, want %v", after, want)
	}
	if es, _ := sw.Entries("u"); len(es) != 2 {
		t.Errorf("u holds %d entries, want 2: the refused add must not reach the switch", len(es))
	}
	tap.ExtraFaults++
	if tap.RTT() != below.RTT() || tap.Faults() != 5 {
		t.Errorf("tap RTT %v, Faults %d; want the channel's %v and 4+1", tap.RTT(), tap.Faults(), below.RTT())
	}
	if raw := check.NewTap(below.Driver); raw.RTT() != 0 || raw.Faults() != 0 {
		t.Errorf("over a raw driver: RTT %v, Faults %d, want 0 and 0", raw.RTT(), raw.Faults())
	}
}
