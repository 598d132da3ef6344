package compiler_test

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/p4r"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// The malleable lowering of §4 is checked by what it does. A program
// with malleables, compiled and run by an agent on a raw switch, must
// forward every packet as the plain program does that has the current
// assignment written in: each ${value} a literal, each ${field} the
// chosen alternative, each malleable table a plain table with the same
// user entries. Both run in one simulator; the check sends each drawn
// packet through both and compares its egress port, its drop, its wire
// fields and every declared register. It does so after the prologue,
// and around the vv flip of each of two commits a native reaction
// stages from the draw (values, alts, adds, modifies and deletes):
// before the flip packets must see the old assignment, after it, while
// the mirror has not yet run, the new one. Half the draws shrink the
// init action to the widest value, which splits the init tables.

// equivProg is one corpus program.
type equivProg struct{ name, src string }

// compileSeeds are FuzzCompileSource's seeds: check's lockstep
// programs, the examples, the benchmark's programs and the analyzer's
// corpus, broken programs included.
func compileSeeds(tb testing.TB) []equivProg {
	progs := []equivProg{{"check.TwoTableSrc", check.TwoTableSrc}, {"check.FaultSweepSrc", check.FaultSweepSrc}}
	for _, glob := range []string{"../../examples/p4r/*.p4r", "../../bench/programs/*.p4r", "../p4r/analysis/testdata/*.p4r"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			tb.Fatalf("%s: %v", glob, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				tb.Fatal(err)
			}
			progs = append(progs, equivProg{path, string(src)})
		}
	}
	return progs
}

// equivCorpus is every program of compileSeeds and of FuzzCompileSource's
// corpus that compiles, then the programs the placement sweep places and
// testdata/lowering.p4r, which has every lowering in one program.
func equivCorpus(tb testing.TB) []equivProg {
	progs := compileSeeds(tb)
	paths, _ := filepath.Glob("testdata/fuzz/FuzzCompileSource/*")
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\nstring("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, equivProg{path, src})
	}
	progs = slices.DeleteFunc(progs, func(p equivProg) bool {
		_, err := compiler.CompileSource(p.src, compiler.DefaultOptions())
		return err != nil
	})
	lowering, err := os.ReadFile("testdata/lowering.p4r")
	if err != nil {
		tb.Fatal(err)
	}
	return append(progs, equivProg{"usecases.DosP4R", usecases.DosP4R}, equivProg{"usecases.GrayP4R", usecases.GrayP4R},
		equivProg{"usecases.HashPolarP4R", usecases.HashPolarP4R}, equivProg{"usecases.RLECNP4R", usecases.RLECNP4R},
		equivProg{"usecases.BaseRouterP4R", usecases.BaseRouterP4R}, equivProg{"fabric.LeafP4R", fabric.LeafP4R},
		equivProg{"fabric.SpineP4R", fabric.SpineP4R}, equivProg{"testdata/lowering.p4r", string(lowering)})
}

// TestMalleableEquivalence runs every corpus program under eight draws.
func TestMalleableEquivalence(t *testing.T) {
	progs, packets := equivCorpus(t), 0
	for _, prog := range progs {
		for seed := int64(1); seed <= 8; seed++ {
			n, err := runEquiv(prog, rand.New(rand.NewSource(seed)), 16)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			packets += n
		}
	}
	t.Logf("%d programs, %d assignments, %d packets", len(progs), 8*3*len(progs), packets)
}

// FuzzMalleableEquivalence draws the program, its assignments and its
// packets from the input.
func FuzzMalleableEquivalence(f *testing.F) {
	progs := equivCorpus(f)
	f.Add(byte(len(progs)-1), []byte{0, 3, 1, 2, 0, 1, 3, 2, 1})
	f.Fuzz(func(t *testing.T, prog byte, draw []byte) {
		if _, err := runEquiv(progs[int(prog)%len(progs)], (*byteDraw)(&draw), 4); err != nil {
			t.Fatal(err)
		}
	})
}

// drawer is what the check draws from: a seeded source or fuzz input.
type drawer interface{ Intn(n int) int }

// byteDraw draws from a fuzzer's input, then zeros.
type byteDraw []byte

func (b *byteDraw) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// model is an assignment: every malleable's value or alt index, and every
// table's user entries in handle order.
type model struct {
	asg     map[string]uint64
	entries map[string][]uentry
}

type uentry struct {
	h core.UserHandle
	e core.UserEntry
}

// equiv is one run: the malleable side, the committed model and the one
// a reaction staged, and what each side transmitted.
type equiv struct {
	prog      equivProg
	f         *p4r.File
	plan      *compiler.Plan
	r         drawer
	cur, next model
	s         *sim.Simulator
	mbl       *rmt.Switch
	out       [2][]*packet.Packet
	packets   int
}

func runEquiv(prog equivProg, r drawer, packets int) (int, error) {
	f, err := p4r.Parse(prog.src)
	if err != nil {
		return 0, err
	}
	if len(f.Reactions) == 0 {
		f.Reactions = []*p4r.Reaction{{Name: "equiv"}}
	}
	opts, widest := compiler.DefaultOptions(), 2
	for _, mv := range f.MblValues {
		widest = max(widest, mv.Width)
	}
	if r.Intn(2) == 0 {
		opts.MaxInitActionBits = widest
	}
	e := &equiv{prog: prog, f: f, r: r, cur: model{map[string]uint64{}, map[string][]uentry{}}, s: sim.New(1)}
	if e.plan, err = compiler.Compile(f, opts); err != nil {
		return 0, err
	}
	for _, mv := range f.MblValues {
		e.cur.asg[mv.Name] = mv.Init
	}
	for _, mf := range f.MblFields {
		e.cur.asg[mf.Name] = uint64(mf.InitAltIndex())
	}
	e.mbl, _ = rmt.New(e.s, e.plan.Prog, rmt.DefaultConfig())
	e.mbl.Tx = func(_ int, pkt *packet.Packet) { e.out[0] = append(e.out[0], pkt) }
	var runErr error
	compare := func(p *sim.Proc) {
		if runErr == nil {
			runErr = e.compare(p, packets)
		}
	}
	// The first master update after a commit's reaction ran is its vv
	// flip (the mv flip comes before the reactions).
	master, staged, flipping := e.plan.InitTables[0].Table, false, false
	tap := check.NewTap(driver.New(e.s, e.mbl, driver.DefaultCostModel()))
	tap.Before = func(p *sim.Proc, _ int, op *driver.Op) error {
		if flipping = staged && op.Kind == driver.OpSetDefault && op.Table == master; flipping {
			compare(p)
		}
		return nil
	}
	tap.After = func(p *sim.Proc, _ int, _ *driver.Op, err error) error {
		if flipping {
			flipping, staged, e.cur = false, false, e.next
			compare(p)
		}
		return err
	}
	agent := core.NewAgent(e.s, tap, e.plan, core.Options{
		MaxIterations: 2,
		Recovery:      core.RecoveryOptions{MaxAttempts: 1}, // no watchdog: comparing takes virtual time
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			if runErr = e.install(p, a); runErr == nil {
				compare(p)
			}
			return nil
		},
		AfterIteration: func(p *sim.Proc, _ *core.Agent) {
			if staged { // the commit had nothing to flip
				staged, e.cur = false, e.next
			}
		},
	})
	for i, rx := range e.plan.Reactions {
		agent.RegisterNativeReaction(rx.Name, func(ctx *core.Ctx) error {
			if i > 0 || runErr != nil {
				return nil
			}
			staged = true
			return e.commit(ctx)
		})
	}
	agent.Start()
	e.s.Run()
	if runErr == nil {
		runErr = agent.Err()
	}
	if runErr != nil {
		return e.packets, fmt.Errorf("%s, init action %d bits\nassignment %v\nentries %v\n%w", prog.name, opts.MaxInitActionBits, e.cur.asg, e.cur.entries, runErr)
	}
	return e.packets, nil
}

// value draws a value of width w: mostly small, else all ones but the
// low bits.
func (e *equiv) value(w int) uint64 {
	v := uint64(e.r.Intn(4)) & packet.Mask(w)
	if e.r.Intn(4) == 0 {
		v = ^v & packet.Mask(w)
	}
	return v
}

// entry draws a user entry of table t, which holds have, and reports
// whether it may be added: t has room (four entries at most) and no
// entry with the keys drawn.
func (e *equiv) entry(t *p4r.TableDecl, have []uentry) (core.UserEntry, bool) {
	ue := core.UserEntry{Priority: e.r.Intn(4), Action: t.Actions[e.r.Intn(len(t.Actions))]}
	for _, rk := range t.Reads {
		name := rk.Target.Ident
		if rk.Target.Kind == p4r.ArgMblRef {
			name = e.plan.MblFields[rk.Target.Mbl].Alts[0]
		}
		w := e.plan.Prog.Schema.Width(e.plan.Prog.Schema.MustID(name))
		care := packet.Mask(w)
		if rk.HasMask {
			care &= rk.Mask
		}
		switch v := uint64(e.r.Intn(4)) & care; rk.MatchType {
		case "exact":
			ue.Keys = append(ue.Keys, rmt.ExactKey(v))
		case "ternary":
			ue.Keys = append(ue.Keys, rmt.TernaryKey(v, care>>e.r.Intn(w+1)))
		case "lpm":
			ue.Keys = append(ue.Keys, rmt.TernaryKey(v, care<<e.r.Intn(3)&care))
		case "range":
			ue.Keys = append(ue.Keys, rmt.RangeKey(v, v+uint64(e.r.Intn(4))))
		}
	}
	a := e.f.Actions[slices.IndexFunc(e.f.Actions, func(a *p4r.ActionDecl) bool { return a.Name == ue.Action })]
	for range a.Params {
		ue.Data = append(ue.Data, uint64(e.r.Intn(4)))
	}
	taken := slices.ContainsFunc(have, func(x uentry) bool { return slices.Equal(x.e.Keys, ue.Keys) })
	return ue, len(have) < 4 && (t.Size == 0 || len(have) < t.Size) && !taken
}

// install draws every table's first user entries and installs them on
// the malleable side: through the agent where the table has runtime
// info, straight into the switch where it is plain.
func (e *equiv) install(p *sim.Proc, a *core.Agent) error {
	for _, t := range e.f.Tables {
		for n := e.r.Intn(5); n > 0 && len(t.Actions) > 0; n-- {
			ue, ok := e.entry(t, e.cur.entries[t.Name])
			if !ok {
				continue
			}
			var h core.UserHandle
			var err error
			if th, terr := a.Table(t.Name); terr == nil {
				h, err = th.AddEntry(p, ue)
			} else {
				_, err = e.mbl.AddEntry(t.Name, rmt.Entry{Keys: ue.Keys, Priority: ue.Priority, Action: ue.Action, Data: ue.Data})
			}
			if err != nil {
				return err
			}
			e.cur.entries[t.Name] = append(e.cur.entries[t.Name], uentry{h, ue})
		}
	}
	return nil
}

// commit stages a drawn assignment into e.next: a new value or alt for
// every malleable, and on each malleable table deletes and modifies of
// the entries there were, then adds.
func (e *equiv) commit(ctx *core.Ctx) error {
	e.next = model{maps.Clone(e.cur.asg), map[string][]uentry{}}
	for name, ues := range e.cur.entries {
		e.next.entries[name] = slices.Clone(ues)
	}
	for _, mv := range e.f.MblValues {
		e.next.asg[mv.Name] = e.value(mv.Width)
	}
	for _, mf := range e.f.MblFields {
		e.next.asg[mf.Name] = uint64(e.r.Intn(len(mf.Alts)))
	}
	for name, v := range e.next.asg {
		if err := ctx.SetMbl(name, v); err != nil {
			return err
		}
	}
	for _, t := range e.f.Tables {
		if !t.Malleable {
			continue
		}
		rt, err := ctx.Table(t.Name)
		if err != nil {
			return err
		}
		ues := e.next.entries[t.Name]
		for i := 0; i < len(ues) && err == nil; i++ {
			switch mod, _ := e.entry(t, ues); e.r.Intn(3) {
			case 1:
				err = rt.DeleteEntry(ues[i].h)
				ues = slices.Delete(ues, i, i+1)
				i--
			case 2:
				err = rt.ModifyEntry(ues[i].h, mod.Action, mod.Data)
				ues[i].e.Action, ues[i].e.Data = mod.Action, mod.Data
			}
		}
		for n := e.r.Intn(3); n > 0 && err == nil; n-- {
			if ue, ok := e.entry(t, ues); ok {
				var h core.UserHandle
				h, err = rt.AddEntry(ue)
				ues = append(ues, uentry{h, ue})
			}
		}
		if err != nil {
			return err
		}
		e.next.entries[t.Name] = ues
	}
	return nil
}

// specialise compiles the plain program of the committed assignment.
func (e *equiv) specialise() (*compiler.Plan, error) {
	f, err := p4r.Parse(e.prog.src)
	if err != nil {
		return nil, err
	}
	alts := map[string][]string{}
	for _, mf := range f.MblFields {
		alts[mf.Name] = mf.Alts
	}
	sub := func(a *p4r.Arg) {
		switch {
		case a.Kind != p4r.ArgMblRef:
		case alts[a.Mbl] != nil:
			*a = p4r.Arg{Kind: p4r.ArgIdent, Ident: alts[a.Mbl][e.cur.asg[a.Mbl]]}
		default:
			*a = p4r.Arg{Kind: p4r.ArgConst, Value: e.cur.asg[a.Mbl]}
		}
	}
	for _, a := range f.Actions {
		for _, call := range a.Body {
			for i := range call.Args {
				sub(&call.Args[i])
			}
		}
	}
	for _, t := range f.Tables {
		t.Malleable = false
		for i, rk := range t.Reads {
			if rk.Target.Kind == p4r.ArgMblRef && alts[rk.Target.Mbl] == nil {
				return nil, fmt.Errorf("table %s matches malleable value ${%s}, which has no plain form", t.Name, rk.Target.Mbl)
			}
			sub(&t.Reads[i].Target)
		}
	}
	for _, fl := range f.FieldLists {
		for i := range fl.Entries {
			sub(&fl.Entries[i])
		}
	}
	var walk func([]p4r.Stmt)
	walk = func(stmts []p4r.Stmt) {
		for i, s := range stmts {
			if st, ok := s.(p4r.IfStmt); ok {
				sub(&st.Cond.Left)
				sub(&st.Cond.Right)
				walk(st.Then)
				walk(st.Else)
				stmts[i] = st
			}
		}
	}
	walk(f.Ingress)
	walk(f.Egress)
	f.MblValues, f.MblFields, f.Reactions = nil, nil, nil
	return compiler.Compile(f, compiler.DefaultOptions())
}

// compare builds the plain switch of the committed assignment, with its
// entries and the malleable side's registers, and sends drawn packets
// through both sides, one at a time.
func (e *equiv) compare(p *sim.Proc, packets int) error {
	plan, err := e.specialise()
	if err != nil {
		return fmt.Errorf("plain program: %w", err)
	}
	if err := netsim.WireCompatible(plan.Prog.Schema, e.plan.Prog.Schema); err != nil {
		return err
	}
	plain, err := rmt.New(e.s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return err
	}
	plain.Tx = func(_ int, pkt *packet.Packet) { e.out[1] = append(e.out[1], pkt) }
	for _, t := range e.f.Tables {
		for _, ue := range e.cur.entries[t.Name] {
			if _, err := plain.AddEntry(t.Name, rmt.Entry{Keys: ue.e.Keys, Priority: ue.e.Priority, Action: ue.e.Action, Data: ue.e.Data}); err != nil {
				return err
			}
		}
	}
	regs := func(sw *rmt.Switch, reg *p4r.RegisterDecl) []uint64 {
		vals, _ := sw.RegReadRangeInto(reg.Name, 0, uint64(reg.InstanceCount), nil)
		return vals
	}
	for _, reg := range e.f.Registers {
		for i, v := range regs(e.mbl, reg) {
			plain.RegWrite(reg.Name, uint64(i), v)
		}
	}
	wire := slices.DeleteFunc(plan.Prog.Schema.Names(), func(name string) bool {
		return strings.HasPrefix(name, p4.StdMetadataPrefix) || strings.HasPrefix(name, p4.MetadataPrefix)
	})
	for n := 0; n < packets; n++ {
		desc := e.send(p, plain)
		if len(e.out[0]) != len(e.out[1]) {
			return fmt.Errorf("%s: the malleable side transmits %d packets, the plain side %d", desc, len(e.out[0]), len(e.out[1]))
		}
		for i, got := range e.out[0] {
			want := e.out[1][i]
			if got.EgressPort != want.EgressPort {
				return fmt.Errorf("%s: egress port %d, plain %d", desc, got.EgressPort, want.EgressPort)
			}
			for _, name := range wire {
				if g, w := got.GetName(name), want.GetName(name); g != w {
					return fmt.Errorf("%s: %s = %d, plain %d", desc, name, g, w)
				}
			}
		}
		for _, reg := range e.f.Registers {
			if got, want := regs(e.mbl, reg), regs(plain, reg); !slices.Equal(got, want) {
				return fmt.Errorf("%s: register %s = %v, plain %v", desc, reg.Name, got, want)
			}
		}
	}
	return nil
}

// send injects one drawn packet into both sides, waits until each has
// transmitted or dropped it, and returns the packet's description.
func (e *equiv) send(p *sim.Proc, plain *rmt.Switch) string {
	sws := [2]*rmt.Switch{e.mbl, plain}
	pkts := [2]*packet.Packet{e.mbl.Program().Schema.New(), plain.Program().Schema.New()}
	port, size := e.r.Intn(rmt.DefaultConfig().NumPorts), 64+e.r.Intn(1400)
	desc := fmt.Sprintf("packet %d: ingress port %d, %d bytes", e.packets, port, size)
	for _, inst := range e.f.Instances {
		ht := e.f.HeaderTypes[slices.IndexFunc(e.f.HeaderTypes, func(h *p4r.HeaderType) bool { return h.Name == inst.TypeName })]
		for _, fd := range ht.Fields {
			if name, v := inst.Name+"."+fd.Name, e.value(fd.Width); !inst.Metadata {
				desc += fmt.Sprintf(", %s=%d", name, v)
				pkts[0].SetName(name, v)
				pkts[1].SetName(name, v)
			}
		}
	}
	e.packets++
	e.out = [2][]*packet.Packet{}
	for i, pkt := range pkts {
		pkt.Size = size
		sws[i].Inject(port, pkt)
	}
	p.Sleep(10 * time.Microsecond)
	return desc
}
