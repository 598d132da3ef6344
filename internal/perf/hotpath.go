package perf

import (
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rcl"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// NamedBench is one entry of the hot-path suite. Setup builds the path,
// warms it (warmOps) and returns run, which performs n more operations
// of it. perfbench times run(b.N) (Run, and
// BenchmarkHotPaths under `go test -bench`); TestHotPathsAllocateNothing
// counts the allocations of a fixed number.
type NamedBench struct {
	Name  string
	Setup func(tb testing.TB) (run func(n int))
}

// HotPathBenchmarks returns the microbenchmark suite behind
// BENCH_rmt.json. The names are the baseline's metric keys — renaming
// one is a baseline change, and the comparator flags the old name as
// missing until the baseline is regenerated.
func HotPathBenchmarks() []NamedBench {
	return []NamedBench{
		{"exact_lookup_1k", exactLookup},
		{"ternary_lookup_bucketed_1k", ternaryBucketed},
		{"ternary_lookup_linear_1k", ternaryLinear},
		{"pipeline_packet", pipelinePacket},
		{"trunk_hop", trunkHop},
		{"tcp_segment", tcpSegment},
		{"dialogue_iteration", dialogueIteration},
		{"dialogue_iteration@ctlchan", dialogueIterationCtlchan},
		{"update_commit@ctlchan", updateCommitCtlchan},
		{"poll_batch", pollBatch},
		{"reaction_dispatch", reactionDispatch},
		{"proc_sleep", procSleep},
		{"proc_handoff", procHandoff},
		{"event_run", eventRun},
	}
}

// bench times run(b.N) on nb's warmed path.
func (nb NamedBench) bench(b *testing.B) {
	run := nb.Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// warmOps is how many operations Setup performs before it returns. A
// path's own one-time growth (freelists, pools, the journal's buffers)
// ends within its first few dozen; what Go's runtime adds later, at
// random, is the allocation gate's business (allocs in perf_test.go).
const warmOps = 1024

// warm performs warmOps operations of run and returns it.
func warm(run func(n int)) func(n int) {
	run(warmOps)
	return run
}

// loop drives a simulation whose processes perform the measured
// operation forever and call tick after each one. tick stops the
// simulator at the target, so run(n) raises the target by n and resumes
// the processes where the last run left them.
type loop struct {
	s            *sim.Simulator
	done, target int
	// err is a process's failure; the process returns after setting it.
	err error
}

func (l *loop) tick() {
	l.done++
	if l.done == l.target {
		l.s.Stop()
	}
}

// start warms l and returns its run. check, if set, reports a failure
// no process could (an agent's error).
func (l *loop) start(tb testing.TB, check func() error) func(n int) {
	return warm(func(n int) {
		l.target += n
		l.s.Run()
		if l.err == nil && check != nil {
			l.err = check()
		}
		if l.err != nil {
			tb.Fatal(l.err)
		}
		if l.done != l.target {
			tb.Fatalf("%d of %d operations ran", l.done, l.target)
		}
	})
}

// newSwitch builds prog's switch on s.
func newSwitch(tb testing.TB, s *sim.Simulator, prog *p4.Program) *rmt.Switch {
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return sw
}

// compile compiles a P4R source.
func compile(tb testing.TB, src string) *compiler.Plan {
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

const lookupEntries = 1024

// lookup builds a switch with one 1k-entry table and returns the run of
// its raw lookup hook, cycling through the entries. kind selects the
// index under test: a single-column exact table ("exact"), a two-column
// table whose exact first column partitions the TCAM into buckets
// ("bucketed"), or a pure-ternary table that can only scan linearly
// ("linear").
func lookup(tb testing.TB, kind string) func(n int) {
	prog := p4.NewProgram("perf-" + kind)
	prog.DefineStandardMetadata()
	fsel := prog.Schema.Define("h.sel", 16)
	faddr := prog.Schema.Define("h.addr", 32)
	prog.AddAction(&p4.Action{Name: "hit", Body: []p4.Primitive{p4.NoOp{}}})
	keys := []p4.MatchKey{{FieldName: "h.sel", Field: fsel, Width: 16, Kind: p4.MatchExact}}
	if kind != "exact" {
		first := p4.MatchExact
		if kind == "linear" {
			first = p4.MatchTernary
		}
		keys = []p4.MatchKey{
			{FieldName: "h.sel", Field: fsel, Width: 16, Kind: first},
			{FieldName: "h.addr", Field: faddr, Width: 32, Kind: p4.MatchTernary},
		}
	}
	prog.AddTable(&p4.Table{Name: "t", Keys: keys, ActionNames: []string{"hit"}, Size: lookupEntries})
	sw := newSwitch(tb, sim.New(1), prog)
	for i := 0; i < lookupEntries; i++ {
		sel := rmt.ExactKey(uint64(i))
		if kind == "linear" {
			sel = rmt.TernaryKey(uint64(i), 0xFFFF)
		}
		e := rmt.Entry{Keys: []rmt.KeySpec{sel}, Action: "hit"}
		if kind != "exact" {
			e.Keys = append(e.Keys, rmt.TernaryKey(0, 0))
		}
		if _, err := sw.AddEntry("t", e); err != nil {
			tb.Fatal(err)
		}
	}
	probe, err := sw.LookupProbe("t")
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]uint64, len(keys))
	return warm(func(n int) {
		for i := 0; i < n; i++ {
			vals[0] = uint64(i % lookupEntries)
			if !probe(vals) {
				tb.Fatal("miss")
			}
		}
	})
}

func exactLookup(tb testing.TB) func(n int)     { return lookup(tb, "exact") }
func ternaryBucketed(tb testing.TB) func(n int) { return lookup(tb, "bucketed") }
func ternaryLinear(tb testing.TB) func(n int)   { return lookup(tb, "linear") }

// pipelinePacket is one full ingress-to-egress pass — admission,
// compiled ingress (ternary ACL + exact forward + register count),
// queueing, serialization, compiled egress — with a pooled packet.
func pipelinePacket(tb testing.TB) func(n int) {
	prog := p4.NewProgram("perf-pipeline")
	prog.DefineStandardMetadata()
	dst := prog.Schema.Define("ipv4.dstAddr", 32)
	proto := prog.Schema.Define("ipv4.protocol", 8)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	inp := prog.Schema.MustID(p4.FieldIngressPort)
	plen := prog.Schema.MustID(p4.FieldPacketLen)
	prog.AddRegister(&p4.Register{Name: "port_bytes", Width: 64, Instances: 32})
	prog.AddAction(&p4.Action{
		Name:   "set_egress",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}},
	})
	prog.AddAction(&p4.Action{Name: "allow", Body: []p4.Primitive{p4.NoOp{}}})
	prog.AddAction(&p4.Action{Name: "count_rx", Body: []p4.Primitive{
		p4.RegisterIncrement{Reg: "port_bytes", Index: p4.FieldOp(inp, p4.FieldIngressPort), By: p4.FieldOp(plen, p4.FieldPacketLen)},
	}})
	prog.AddTable(&p4.Table{
		Name:          "acl",
		Keys:          []p4.MatchKey{{FieldName: "ipv4.protocol", Field: proto, Width: 8, Kind: p4.MatchTernary}},
		ActionNames:   []string{"allow"},
		DefaultAction: &p4.ActionCall{Action: "allow"},
		Size:          16,
	})
	prog.AddTable(&p4.Table{
		Name:        "forward",
		Keys:        []p4.MatchKey{{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: p4.MatchExact}},
		ActionNames: []string{"set_egress"},
		Size:        256,
	})
	prog.AddTable(&p4.Table{
		Name:          "rx_counter",
		ActionNames:   []string{"count_rx"},
		DefaultAction: &p4.ActionCall{Action: "count_rx"},
		Size:          1,
	})
	prog.Ingress = []p4.ControlStmt{
		p4.Apply{Table: "acl"}, p4.Apply{Table: "forward"}, p4.Apply{Table: "rx_counter"},
	}
	s := sim.New(1)
	sw := newSwitch(tb, s, prog)
	if _, err := sw.AddEntry("forward", rmt.Entry{
		Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set_egress", Data: []uint64{2},
	}); err != nil {
		tb.Fatal(err)
	}
	pool := packet.NewPool(prog.Schema)
	tmpl := prog.Schema.New()
	tmpl.SetName("ipv4.dstAddr", 7)
	tmpl.Size = 256
	return warm(func(n int) {
		sent := sw.Stats().TxPackets
		for i := 0; i < n; i++ {
			p := pool.Get()
			tmpl.CloneInto(p)
			sw.Inject(0, p)
			s.Run()
			pool.Put(p)
		}
		if got := sw.Stats().TxPackets - sent; got != uint64(n) {
			tb.Fatalf("%d of %d packets transmitted", got, n)
		}
	})
}

// dialogueSrc is a representative Mantis program: a register-mirroring
// measurement, an interpreted reaction folding 16 cells, and a
// malleable-value update committed back through the serializable
// dialogue protocol.
const dialogueSrc = `
header_type h_t { fields { tag : 16; port : 8; } }
header h_t hdr;
register qdepths { width : 32; instance_count : 16; }
malleable value v { width : 16; init : 0; }
action observe() {
  register_write(qdepths, hdr.port, standard_metadata.packet_length);
  modify_field(hdr.tag, ${v});
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { observe; } default_action : observe; size : 1; }
reaction r(reg qdepths) {
  uint16_t m = 0;
  for (int i = 0; i < 16; ++i) { if (qdepths[i] > m) { m = qdepths[i]; } }
  ${v} = m;
}
control ingress { apply(t); }
`

// dialogue starts plan's agent on ch and returns the run of its
// iterations (poll → react → commit), each of which must commit.
// configure, if set, sees the agent before it starts.
func dialogue(tb testing.TB, s *sim.Simulator, ch driver.Channel, plan *compiler.Plan, opts core.Options, configure func(*core.Agent) error) func(n int) {
	l := &loop{s: s}
	opts.AfterIteration = func(*sim.Proc, *core.Agent) { l.tick() }
	a := core.NewAgent(s, ch, plan, opts)
	if configure != nil {
		if err := configure(a); err != nil {
			tb.Fatal(err)
		}
	}
	a.Start()
	tb.Cleanup(func() {
		if st := a.Stats(); st.Commits != uint64(l.done) {
			tb.Errorf("%d of %d iterations committed (%d abandoned)", st.Commits, l.done, st.Abandoned)
		}
	})
	return l.start(tb, a.Err)
}

// dialogueIteration is one virtual dialogue iteration on the raw driver:
// measurement reads, the interpreted reaction, and the serializable
// commit.
func dialogueIteration(tb testing.TB) func(n int) {
	plan := compile(tb, dialogueSrc)
	s := sim.New(1)
	drv := driver.New(s, newSwitch(tb, s, plan.Prog), driver.DefaultCostModel())
	return dialogue(tb, s, drv, plan, core.Options{}, nil)
}

// deploy puts prog's switch behind the control stack fabric.buildNode
// deploys for every node: ctlchan.Client → 1µs netsim.Link →
// ctlchan.Server → primary ctlplane.Session → driver.Driver. It returns
// both ends.
func deploy(tb testing.TB, s *sim.Simulator, prog *p4.Program) (*ctlchan.Client, *driver.Driver) {
	drv := driver.New(s, newSwitch(tb, s, prog), driver.DefaultCostModel())
	svc := ctlplane.New(s, drv, ctlplane.Options{})
	sess, err := svc.Open(ctlplane.SessionOptions{Name: "agent", Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		tb.Fatal(err)
	}
	link := netsim.NewLink(s, time.Microsecond, faults.LinkNone(), 1)
	ctlchan.NewServer(s).Attach(link, netsim.LinkSideB, 1, 1, sess)
	return ctlchan.NewClient(s, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: drv}), drv
}

// stackedDialogue is src's dialogue behind the deployed stack, journaling
// to a journal.MemStore with the channel-scaled recovery options: what
// the fabric runs, where dialogue_iteration measures the loop. prologue
// is the agent's.
func stackedDialogue(tb testing.TB, src string, prologue func(*sim.Proc, *core.Agent) error, configure func(*core.Agent) error) func(n int) {
	plan := compile(tb, src)
	s := sim.New(1)
	cli, _ := deploy(tb, s, plan.Prog)
	return dialogue(tb, s, cli, plan, core.Options{
		Journal:        &core.JournalConfig{Store: journal.NewMemStore()},
		LatencySamples: 1,
		Prologue:       prologue,
	}, configure)
}

// dialogueIterationCtlchan is one dialogue iteration through the
// deployed control stack, journal included: two intents and a
// checkpoint, encoded into the store's own buffers.
func dialogueIterationCtlchan(tb testing.TB) func(n int) {
	return stackedDialogue(tb, dialogueSrc, nil, nil)
}

// updateSrc is the write path: two malleable tables of four entries
// each, all eight rewritten every iteration by a native reaction.
const updateSrc = `
header_type h_t { fields { k : 8; o1 : 32; o2 : 32; } }
header h_t hdr;
action set1(v) { modify_field(hdr.o1, v); }
action set2(v) { modify_field(hdr.o2, v); modify_field(standard_metadata.egress_spec, 1); }
malleable table t1 { reads { hdr.k : exact; } actions { set1; } size : 8; }
malleable table t2 { reads { hdr.k : exact; } actions { set2; } size : 8; }
reaction bump() { }
control ingress { apply(t1); apply(t2); }
`

// updateKeys is the number of entries per table the write path rewrites.
const updateKeys = 4

// updatePrologue installs updateKeys entries in each of updateSrc's
// tables and records their user handles in h1 and h2.
func updatePrologue(h1, h2 *[updateKeys]core.UserHandle) func(*sim.Proc, *core.Agent) error {
	return func(p *sim.Proc, a *core.Agent) error {
		t1, err := a.Table("t1")
		if err != nil {
			return err
		}
		t2, err := a.Table("t2")
		if err != nil {
			return err
		}
		for k := range h1 {
			key := []rmt.KeySpec{rmt.ExactKey(uint64(k))}
			if h1[k], err = t1.AddEntry(p, core.UserEntry{Keys: key, Action: "set1", Data: []uint64{0}}); err != nil {
				return err
			}
			if h2[k], err = t2.AddEntry(p, core.UserEntry{Keys: key, Action: "set2", Data: []uint64{0}}); err != nil {
				return err
			}
		}
		return nil
	}
}

// updateCommitCtlchan is the write path behind the deployed stack: per
// iteration, eight staged modifies (sixteen entry writes and two master
// flips on the channel), a CommitStaged intent listing them and a
// checkpoint of both tables. The staged-op log, the entries' data and the
// journal records are all refilled in place.
func updateCommitCtlchan(tb testing.TB) func(n int) {
	var h1, h2 [updateKeys]core.UserHandle
	data := make([]uint64, 1)
	return stackedDialogue(tb, updateSrc, updatePrologue(&h1, &h2), func(a *core.Agent) error {
		return a.RegisterNativeReaction("bump", func(ctx *core.Ctx) error {
			t1, err := ctx.Table("t1")
			if err != nil {
				return err
			}
			t2, err := ctx.Table("t2")
			if err != nil {
				return err
			}
			data[0]++
			for k := range h1 {
				if err := t1.ModifyEntry(h1[k], "set1", data); err != nil {
					return err
				}
				if err := t2.ModifyEntry(h2[k], "set2", data); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// pollBatch is the agent's measurement-poll shape: one batched register
// read into a caller-owned dst matrix, whose rows BatchReadInto refills
// in place.
func pollBatch(tb testing.TB) func(n int) {
	prog := p4.NewProgram("perf-poll")
	prog.DefineStandardMetadata()
	prog.AddRegister(&p4.Register{Name: "qdepths", Width: 32, Instances: 16})
	s := sim.New(1)
	drv := driver.New(s, newSwitch(tb, s, prog), driver.DefaultCostModel())
	reqs := []driver.ReadReq{{Reg: "qdepths", Lo: 0, Hi: 16}}
	dst := make([][]uint64, 1)
	l := &loop{s: s}
	s.Spawn("poll", func(p *sim.Proc) {
		for l.err == nil {
			l.err = drv.BatchReadInto(p, reqs, dst)
			l.tick()
		}
	})
	return l.start(tb, nil)
}

// reactionDispatch is one compiled-reaction execution: the fold from
// dialogueSrc run through a prepared rcl Frame with bound parameters,
// isolated from polling and commit. This is the interpreter cost the
// closure compiler is accountable for.
func reactionDispatch(tb testing.TB) func(n int) {
	prog, err := rcl.Compile(`
		uint16_t m = 0;
		for (int i = 0; i < 16; ++i) { if (qdepths[i] > m) { m = qdepths[i]; } }
		${v} = m;
	`)
	if err != nil {
		tb.Fatal(err)
	}
	f := prog.NewFrame()
	q := make([]int64, 16)
	f.BindArray("qdepths", q)
	host := &noopHost{}
	return warm(func(n int) {
		for i := 0; i < n; i++ {
			q[i%16] = int64(i)
			if err := f.Exec(host); err != nil {
				tb.Fatal(err)
			}
		}
	})
}

// procSleep is the kernel's cheapest modelled wait: a process whose own
// wake-up would be the next event, so Sleep advances the clock in place
// and returns without queuing an event or leaving its goroutine.
func procSleep(tb testing.TB) func(n int) {
	l := &loop{s: sim.New(1)}
	l.s.Spawn("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(time.Nanosecond)
			l.tick()
		}
	})
	return l.start(tb, nil)
}

// procHandoff is the kernel's dearest wait: a Park/Unpark round trip
// between two processes, each wake-up one goroutine switch.
func procHandoff(tb testing.TB) func(n int) {
	l := &loop{s: sim.New(1)}
	var ping, pong *sim.Proc
	pong = l.s.Spawn("pong", func(p *sim.Proc) {
		for {
			p.Park()
			ping.Unpark()
		}
	})
	ping = l.s.Spawn("ping", func(p *sim.Proc) {
		for {
			pong.Unpark()
			p.Park()
			l.tick()
		}
	})
	return l.start(tb, nil)
}

// eventBurst is how many same-instant callbacks one event_run operation
// drains, and eventBacklog how many later events stay queued meanwhile,
// about as many as fabric_reroute keeps.
const (
	eventBurst   = 16
	eventBacklog = 32
)

// eventRun is the kernel's event path where events collide: per
// operation, eventBurst callbacks scheduled for the current instant are
// drained while eventBacklog later events wait behind them.
func eventRun(tb testing.TB) func(n int) {
	s := sim.New(1)
	for i := 0; i < eventBacklog; i++ {
		s.Schedule(time.Duration(i+1)*time.Hour, func() {})
	}
	fired := 0
	one := func() { fired++ }
	return warm(func(n int) {
		fired = 0
		for i := 0; i < n; i++ {
			for j := 0; j < eventBurst; j++ {
				s.Schedule(0, one)
			}
			s.RunUntil(s.Now())
		}
		if fired != n*eventBurst || s.Pending() != eventBacklog {
			tb.Fatalf("%d of %d callbacks ran, %d events pending; want %d", fired, n*eventBurst, s.Pending(), eventBacklog)
		}
	})
}

// noopHost absorbs malleable writes so reactionDispatch measures pure
// dispatch.
type noopHost struct{ last int64 }

func (h *noopHost) ReadMbl(string) (int64, error)                   { return h.last, nil }
func (h *noopHost) WriteMbl(_ string, v int64) error                { h.last = v; return nil }
func (h *noopHost) TableOp(_, _ string, _ []rcl.Arg) (int64, error) { return 0, nil }
func (h *noopHost) Call(_ string, _ []rcl.Arg) (int64, error)       { return 0, nil }

// Run times the whole suite via testing.Benchmark and returns the
// measured metrics in suite order. It is the entry point cmd/perfbench
// uses to produce a Baseline outside `go test`.
func Run() []Metric {
	var ms []Metric
	for _, nb := range HotPathBenchmarks() {
		r := testing.Benchmark(nb.bench)
		ms = append(ms, Metric{
			Name:        nb.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return ms
}
