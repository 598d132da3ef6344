package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/packet"
	"repro/internal/rcl"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// Spec is the dialogue's sequential specification: §5's serializable
// isolation read as a refinement. After the k-th completed iteration the
// switch must hold what k runs of the reaction bodies, one after
// another, produce from the inputs those iterations ran on: no
// simulator, driver, fault or version bit, only user-level tables
// (entries by user handle), malleable values and each body's statics.
//
// The spec takes, per completed iteration, each reaction's polled fields
// and registers as the body saw them (a degraded poll's stale snapshot
// included) and the answers its builtins got, replays them through a
// fresh rcl.Program per reaction, and compares the fold with every
// malleable table's live copy on the switch, its shadow copy (unless a
// resync is pending) and the agent's own image; with every malleable's
// init-table slot; and with the events delivered since the previous
// completed iteration, which must end with the fold's. Deliveries before
// those, from abandoned runs, are counted in Dups (events are at least
// once), not failed. An abandoned iteration is compared unfolded: its
// rollback must leave everything as the last commit did.
//
// It follows neither a takeover, whose successor's statics restart at
// zero, nor a swapped body.
type Spec struct {
	a  *Agent
	sw *rmt.Switch

	rxns    []*runtimeReaction // the fold's bodies, paired with a.reactions
	tables  map[string]map[UserHandle]*UserEntry
	next    map[string]UserHandle
	mbl     map[string]uint64 // committed
	pending map[string]uint64

	tape      []builtinAnswer // this iteration's builtin answers
	pos       int
	delivered []Event // since the last completed iteration
	events    []Event // the fold's, this iteration

	started   bool
	abandoned bool // the iteration being compared was abandoned
	iters     uint64
	err       error
	// Checked counts the iterations compared, Dups the deliveries the
	// fold did not make.
	Checked, Dups int
}

type builtinAnswer struct {
	name string
	v    int64
	err  error
}

// AttachSpec wraps a's Prologue, AfterIteration and EventSink and sets
// its builtin tap, so the spec follows every iteration from the end of
// the prologue on. A divergence fails t at cleanup, as does a run that
// completed no iteration.
func AttachSpec(t testing.TB, a *Agent, sw *rmt.Switch) *Spec {
	t.Helper()
	s := &Spec{a: a, sw: sw, tables: make(map[string]map[UserHandle]*UserEntry), next: make(map[string]UserHandle), pending: make(map[string]uint64)}
	prologue, after, sink := a.opts.Prologue, a.opts.AfterIteration, a.opts.EventSink
	a.opts.Prologue = func(p *sim.Proc, a *Agent) error {
		if prologue != nil {
			if err := prologue(p, a); err != nil {
				return err
			}
		}
		s.start(p)
		return nil
	}
	a.opts.AfterIteration = func(p *sim.Proc, a *Agent) {
		s.after()
		if after != nil {
			after(p, a)
		}
	}
	a.opts.EventSink = func(ev Event) {
		s.delivered = append(s.delivered, Event{Kind: ev.Kind, Key: ev.Key, Val: ev.Val})
		if sink != nil {
			sink(ev)
		}
	}
	a.builtinTap = func(name string, v int64, err error) { s.tape = append(s.tape, builtinAnswer{name, v, err}) }
	t.Cleanup(func() {
		if s.err != nil {
			t.Error(s.err)
		} else if s.Checked == 0 {
			t.Error("spec: no iteration completed, so none was checked")
		}
	})
	return s
}

// AttachRules puts a check.Tap carrying §5's snapshot rules directly
// above a's channel and arms them with ArmRules. Call it before Start.
func AttachRules(t testing.TB, a *Agent) (*check.Tap, *check.Rules) {
	t.Helper()
	tap := check.NewTap(a.drv)
	a.drv = tap // a.retry's drvDo applies its ops to a.drv
	rules := tap.Check(a.plan)
	ArmRules(t, a, rules, "agent side")
	return tap, rules
}

// ArmRules arms rules, whatever tap they ride on, at the end of a's
// prologue, and fails t at cleanup, naming side, on a violation or if
// they checked no op.
func ArmRules(t testing.TB, a *Agent, rules *check.Rules, side string) {
	prologue := a.opts.Prologue
	a.opts.Prologue = func(p *sim.Proc, a *Agent) error {
		if prologue != nil {
			if err := prologue(p, a); err != nil {
				return err
			}
		}
		rules.Arm()
		return nil
	}
	t.Cleanup(func() {
		if err := rules.Err(); err != nil {
			t.Errorf("%s: %v", side, err)
		} else if rules.Reads+rules.Writes == 0 {
			t.Errorf("%s: the snapshot rules checked no op", side)
		}
	})
}

// start takes the starting image: the agent's tables and malleables as
// the prologue left them, and a fresh program per reaction body.
func (s *Spec) start(p *sim.Proc) {
	s.started, s.iters = true, s.a.stats.Iterations
	for name, tm := range s.a.tables {
		es := make(map[UserHandle]*UserEntry)
		for h, ue := range tm.entries {
			e := ue.spec
			e.Keys, e.Data = slices.Clone(e.Keys), slices.Clone(e.Data)
			es[h] = &e
		}
		s.tables[name], s.next[name] = es, tm.nextHandle
	}
	s.mbl = maps.Clone(s.a.mblCache)
	for _, rr := range s.a.reactions {
		prog, err := rcl.NewProgram(rr.info.Stmts)
		if rr.native != nil || err != nil {
			s.err = fmt.Errorf("spec: reaction %s: the spec folds rcl bodies only (%v)", rr.info.Name, err)
			return
		}
		sr := &runtimeReaction{info: rr.info, prog: prog}
		s.a.setupReactionRuntime(p, sr)
		s.rxns = append(s.rxns, sr)
	}
}

// after folds a completed iteration and compares. An abandoned one must
// leave everything as the last commit did: it is compared unfolded, and
// its builtin answers are dropped.
func (s *Spec) after() {
	defer func() { s.tape, s.abandoned = s.tape[:0], false }()
	if !s.started || s.err != nil {
		return
	}
	if s.abandoned = s.a.stats.Iterations == s.iters; s.abandoned {
		s.compare()
		return
	}
	s.iters = s.a.stats.Iterations
	s.pos, s.events = 0, s.events[:0]
	for i, sr := range s.rxns {
		rr := s.a.reactions[i]
		for _, b := range sr.fieldDst {
			*b.dst = int64(rr.fields[b.key])
		}
		for _, b := range sr.regDst {
			for j, x := range rr.regs[b.key] {
				b.dst[j] = int64(x)
			}
		}
		for _, b := range sr.mblDst {
			*b.dst = int64(s.mbl[b.key])
		}
		if err := sr.frame.Exec(s); err != nil {
			s.fail("reaction %s: %v", sr.info.Name, err)
			return
		}
	}
	if s.pos != len(s.tape) {
		s.fail("the agent's bodies called %d builtins, the fold %d", len(s.tape), s.pos)
		return
	}
	maps.Copy(s.mbl, s.pending)
	clear(s.pending)
	d, f := s.delivered, s.events
	if len(d) < len(f) || !slices.Equal(d[len(d)-len(f):], f) {
		s.fail("delivered events %v, the fold's %v", d, f)
		return
	}
	s.Dups += len(d) - len(f)
	s.delivered = s.delivered[:0]
	s.compare()
	s.Checked++
}

func (s *Spec) fail(format string, args ...any) {
	if s.err == nil {
		it := fmt.Sprint(s.iters)
		if s.abandoned {
			it = fmt.Sprintf("%d (abandoned)", s.iters+1)
		}
		s.err = fmt.Errorf("spec: iteration %s: %s", it, fmt.Sprintf(format, args...))
	}
}

// compare reads the switch under its live vv and fails on the first
// divergence from the fold, naming the table and the user handle.
func (s *Spec) compare() {
	plan, vv := s.a.plan, uint64(0)
	if len(plan.InitTables) > 0 {
		call, _ := s.sw.DefaultAction(plan.InitTables[0].Table)
		vv, _ = masterVersions(plan.InitTables[0], call, 0, 0)
	}
	copies := []uint64{vv, vv ^ 1}
	if s.a.resyncPending {
		copies = copies[:1]
	}
	for t, it := range plan.InitTables {
		for _, v := range copies {
			data := s.initData(t, v)
			if len(data) != len(it.Params) {
				s.fail("init table %s (copy vv=%d) holds %v", it.Table, v, data)
				return
			}
			for i, ip := range it.Params {
				if (ip.Kind == compiler.InitValue || ip.Kind == compiler.InitField) && data[i] != s.mbl[ip.Mbl] {
					s.fail("malleable %s is %d in init table %s (copy vv=%d), the fold's %d", ip.Mbl, data[i], it.Table, v, s.mbl[ip.Mbl])
					return
				}
			}
		}
	}
	for _, name := range s.a.tableNames {
		tm := s.a.tables[name]
		owner := make(map[rmt.EntryHandle]UserHandle) // switch handle → user handle
		for h, ue := range tm.entries {
			for _, rhs := range ue.concrete {
				for _, rh := range rhs {
					owner[rh] = h
				}
			}
		}
		es, _ := s.sw.Entries(tm.info.Table)
		for _, v := range copies {
			got, exp, img := make(map[UserHandle][]string), lines(tm, s.tables[name], v), lines(tm, image(tm), v)
			for _, e := range es {
				if tm.versioned() && e.Keys[tm.info.VVCol].Value != v {
					continue
				}
				h, ok := owner[e.Handle]
				if !ok {
					s.fail("table %s holds switch entry %d (copy vv=%d), which no user handle owns: %s", name, e.Handle, v, entryLine(e))
					return
				}
				got[h] = append(got[h], entryLine(e))
			}
			var hs []UserHandle
			seen := make(map[UserHandle]bool)
			for _, m := range []map[UserHandle][]string{got, exp, img} {
				for h := range m {
					if !seen[h] {
						seen[h] = true
						hs = append(hs, h)
					}
				}
			}
			slices.Sort(hs)
			for _, h := range hs {
				slices.Sort(got[h])
				if !slices.Equal(img[h], exp[h]) {
					s.fail("table %s, user handle %d: agent image %q, fold %q", name, h, img[h], exp[h])
					return
				}
				if !slices.Equal(got[h], exp[h]) {
					s.fail("table %s, user handle %d (copy vv=%d): switch %q, fold %q", name, h, v, got[h], exp[h])
					return
				}
			}
		}
	}
}

// lines renders each entry of es as table tm installs it in copy v,
// sorted.
func lines(tm *tableManager, es map[UserHandle]*UserEntry, v uint64) map[UserHandle][]string {
	out := make(map[UserHandle][]string, len(es))
	for h, e := range es {
		for ci := range tm.info.Combos {
			ce, _ := tm.concreteEntry(nil, e, ci, v)
			out[h] = append(out[h], entryLine(ce))
		}
		slices.Sort(out[h])
	}
	return out
}

// image is the agent's own user-level view of tm.
func image(tm *tableManager) map[UserHandle]*UserEntry {
	out := make(map[UserHandle]*UserEntry, len(tm.entries))
	for h, ue := range tm.entries {
		out[h] = &ue.spec
	}
	return out
}

// initData is the switch's action data of init table t for copy v: the
// master's default, or the other tables' entry of that version.
func (s *Spec) initData(t int, v uint64) []uint64 {
	it := s.a.plan.InitTables[t]
	if call, _ := s.sw.DefaultAction(it.Table); t == 0 && call != nil {
		return call.Data
	}
	es, _ := s.sw.Entries(it.Table)
	for _, e := range es {
		if t > 0 && e.Handle == s.a.initHandles[t][v] {
			return e.Data
		}
	}
	return nil
}

func entryLine(e rmt.Entry) string { return fmt.Sprintf("%s %s %v", entryFP(e), e.Action, e.Data) }

// ---- The fold's rcl.Host ----

func (s *Spec) ReadMbl(name string) (int64, error) {
	if v, ok := s.pending[name]; ok {
		return int64(v), nil
	}
	v, ok := s.mbl[name]
	if !ok {
		return 0, fmt.Errorf("unknown malleable ${%s}", name)
	}
	return int64(v), nil
}

func (s *Spec) WriteMbl(name string, v int64) error {
	if mv, ok := s.a.plan.MblValues[name]; ok {
		s.pending[name] = uint64(v) & packet.Mask(mv.Width)
	} else if mf, ok := s.a.plan.MblFields[name]; ok && uint64(v) < uint64(len(mf.Alts)) {
		s.pending[name] = uint64(v)
	} else {
		return fmt.Errorf("bad malleable write ${%s} = %d", name, v)
	}
	return nil
}

// TableOp applies a call the agent accepted, so its arguments are
// well formed.
func (s *Spec) TableOp(table, method string, args []rcl.Arg) (int64, error) {
	es, nkeys := s.tables[table], s.a.tables[table].userKeys()
	data := func(args []rcl.Arg) (d []uint64) {
		for _, x := range args {
			d = append(d, uint64(x.I))
		}
		return d
	}
	if method == "addEntry" {
		e := &UserEntry{Action: args[nkeys].S, Data: data(args[nkeys+1:])}
		for _, x := range data(args[:nkeys]) {
			e.Keys = append(e.Keys, rmt.ExactKey(x))
		}
		s.next[table]++
		es[s.next[table]] = e
		return int64(s.next[table]), nil
	}
	h := UserHandle(args[0].I)
	if es[h] == nil {
		return 0, fmt.Errorf("%s.%s: no user entry %d", table, method, h)
	}
	if method == "delEntry" {
		delete(es, h)
	} else {
		es[h].Action, es[h].Data = args[1].S, data(args[2:])
	}
	return 0, nil
}

// Call replays the answer the agent's body got from the same call.
func (s *Spec) Call(name string, args []rcl.Arg) (int64, error) {
	if s.pos == len(s.tape) || s.tape[s.pos].name != name {
		return 0, fmt.Errorf("builtin %s() #%d was not the agent's", name, s.pos)
	}
	b := s.tape[s.pos]
	s.pos++
	if name == "emit" && b.err == nil {
		s.events = append(s.events, Event{Kind: args[0].S, Key: uint64(args[1].I), Val: uint64(args[2].I)})
	}
	return b.v, b.err
}
