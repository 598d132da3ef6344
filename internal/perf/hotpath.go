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

// NamedBench is one entry of the hot-path suite: a benchmark runnable
// both under `go test -bench` (bench_test.go wraps the suite in b.Run)
// and from cmd/perfbench via testing.Benchmark.
type NamedBench struct {
	Name  string
	Bench func(b *testing.B)
}

// HotPathBenchmarks returns the microbenchmark suite behind
// BENCH_rmt.json. The names are the baseline's metric keys — renaming
// one is a baseline change, and the comparator flags the old name as
// missing until the baseline is regenerated.
func HotPathBenchmarks() []NamedBench {
	return []NamedBench{
		{"exact_lookup_1k", benchExactLookup},
		{"ternary_lookup_bucketed_1k", benchTernaryBucketed},
		{"ternary_lookup_linear_1k", benchTernaryLinear},
		{"pipeline_packet", benchPipelinePacket},
		{"trunk_hop", benchTrunkHop},
		{"tcp_segment", benchTCPSegment},
		{"dialogue_iteration", benchDialogueIteration},
		{"dialogue_iteration@ctlchan", benchDialogueIterationCtlchan},
		{"update_commit@ctlchan", benchUpdateCommitCtlchan},
		{"poll_batch", benchPollBatch},
		{"reaction_dispatch", benchReactionDispatch},
		{"proc_sleep", benchProcSleep},
		{"proc_handoff", benchProcHandoff},
	}
}

const lookupEntries = 1024

// lookupProbe builds a switch with one 1k-entry table and returns its
// raw lookup hook. kind selects the index under test: a single-column
// exact table ("exact"), a two-column table whose exact first column
// partitions the TCAM into buckets ("bucketed"), or a pure-ternary
// table that can only scan linearly ("linear").
func lookupProbe(b *testing.B, kind string) func(vals []uint64) bool {
	b.Helper()
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
	s := sim.New(1)
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
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
			b.Fatal(err)
		}
	}
	probe, err := sw.LookupProbe("t")
	if err != nil {
		b.Fatal(err)
	}
	return probe
}

func benchLookup(b *testing.B, kind string, ncols int) {
	probe := lookupProbe(b, kind)
	vals := make([]uint64, ncols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = uint64(i % lookupEntries)
		if !probe(vals) {
			b.Fatal("miss")
		}
	}
}

func benchExactLookup(b *testing.B)     { benchLookup(b, "exact", 1) }
func benchTernaryBucketed(b *testing.B) { benchLookup(b, "bucketed", 2) }
func benchTernaryLinear(b *testing.B)   { benchLookup(b, "linear", 2) }

// benchPipelinePacket measures one full ingress-to-egress pass —
// admission, compiled ingress (ternary ACL + exact forward + register
// count), queueing, serialization, compiled egress — with a pooled
// packet. Steady state must be allocation-free.
func benchPipelinePacket(b *testing.B) {
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
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sw.AddEntry("forward", rmt.Entry{
		Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set_egress", Data: []uint64{2},
	}); err != nil {
		b.Fatal(err)
	}
	pool := packet.NewPool(prog.Schema)
	tmpl := prog.Schema.New()
	tmpl.SetName("ipv4.dstAddr", 7)
	tmpl.Size = 256
	send := func() {
		p := pool.Get()
		tmpl.CloneInto(p)
		sw.Inject(0, p)
		s.Run()
		pool.Put(p)
	}
	for i := 0; i < 100; i++ {
		send() // warm the packet pool and event freelist
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if sw.Stats().TxPackets == 0 {
		b.Fatal("no packets transmitted")
	}
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

// benchDialogueIteration measures the host cost of one virtual dialogue
// iteration: measurement reads, the interpreted reaction, and the
// serializable commit.
func benchDialogueIteration(b *testing.B) {
	plan, err := compiler.CompileSource(dialogueSrc, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	agent := core.NewAgent(s, drv, plan, core.Options{MaxIterations: uint64(b.N)})
	b.ReportAllocs()
	b.ResetTimer()
	agent.Start()
	s.Run()
	if err := agent.Err(); err != nil {
		b.Fatal(err)
	}
}

// stackedDialogue is an agent behind the control stack
// fabric.buildNode deploys for every node: core.Agent → ctlchan.Client →
// 1µs netsim.Link → ctlchan.Server → primary ctlplane.Session →
// driver.Driver, journaling to a journal.MemStore with the
// channel-scaled recovery options. The raw-driver dialogue_iteration
// measures the loop; this measures what the fabric runs.
type stackedDialogue struct {
	sim   *sim.Simulator
	agent *core.Agent
}

// newStackedDialogue compiles src and starts its agent behind the stack.
// configure, if set, sees the agent before it starts; prologue is the
// agent's.
func newStackedDialogue(src string, prologue func(*sim.Proc, *core.Agent) error, configure func(*core.Agent) error) (*stackedDialogue, error) {
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
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
	sess, err := svc.Open(ctlplane.SessionOptions{Name: "agent", Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		return nil, err
	}
	link := netsim.NewLink(s, time.Microsecond, faults.LinkNone(), 1)
	ctlchan.NewServer(s).Attach(link, netsim.LinkSideB, 1, 1, sess)
	cli := ctlchan.NewClient(s, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: drv})
	d := &stackedDialogue{sim: s}
	d.agent = core.NewAgent(s, cli, plan, core.Options{
		Recovery:       core.RecoveryForChannel(cli.RTT()),
		Journal:        &core.JournalConfig{Store: journal.NewMemStore()},
		LatencySamples: 1,
		Prologue:       prologue,
		AfterIteration: func(*sim.Proc, *core.Agent) { s.Stop() },
	})
	if configure != nil {
		if err := configure(d.agent); err != nil {
			return nil, err
		}
	}
	d.agent.Start()
	return d, nil
}

// step runs the simulation until the agent has finished one more
// iteration (poll → react → commit → checkpoint).
func (d *stackedDialogue) step() error {
	d.sim.Run()
	return d.agent.Err()
}

// stackedWarmup fills the stack's freelists, buffers and name tables
// before anything is measured.
const stackedWarmup = 256

// run warms d up and measures b.N iterations.
func (d *stackedDialogue) run(b *testing.B) {
	for i := 0; i < stackedWarmup; i++ {
		if err := d.step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDialogueIterationCtlchan measures the host cost of one dialogue
// iteration through the deployed control stack, journal included: two
// intents and a checkpoint, encoded into the store's own buffers.
// Nothing in it allocates; TestStackedIterationAllocBudget pins that.
func benchDialogueIterationCtlchan(b *testing.B) {
	d, err := newStackedDialogue(dialogueSrc, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	d.run(b)
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

// newStackedUpdate is the write path behind the deployed stack: per
// iteration, eight staged modifies (sixteen entry writes and two master
// flips on the channel), a CommitStaged intent listing them and a
// checkpoint of both tables.
func newStackedUpdate() (*stackedDialogue, error) {
	var h1, h2 [updateKeys]core.UserHandle
	data := make([]uint64, 1)
	return newStackedDialogue(updateSrc, updatePrologue(&h1, &h2), func(a *core.Agent) error {
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

// benchUpdateCommitCtlchan measures the host cost of one write-path
// iteration through the deployed control stack. Steady state must be
// allocation-free: the staged-op log, the entries' data and the journal
// records are all refilled in place (TestUpdateCommitAllocFree).
func benchUpdateCommitCtlchan(b *testing.B) {
	d, err := newStackedUpdate()
	if err != nil {
		b.Fatal(err)
	}
	d.run(b)
}

// benchPollBatch measures the agent's measurement-poll shape: one
// batched register read per iteration into a caller-owned dst matrix.
// Steady state must be allocation-free (BatchReadInto refills rows in
// place).
func benchPollBatch(b *testing.B) {
	s := sim.New(1)
	prog := p4.NewProgram("perf-poll")
	prog.DefineStandardMetadata()
	prog.AddRegister(&p4.Register{Name: "qdepths", Width: 32, Instances: 16})
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	reqs := []driver.ReadReq{{Reg: "qdepths", Lo: 0, Hi: 16}}
	dst := make([][]uint64, 1)
	s.Spawn("poll", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := drv.BatchReadInto(p, reqs, dst); err != nil {
				b.Error(err) // not Fatal: this is a process goroutine
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// benchReactionDispatch measures one compiled-reaction execution: the
// fold from dialogueSrc run through a prepared rcl Frame with bound
// parameters, isolated from polling and commit. This is the interpreter
// cost the closure compiler is accountable for.
func benchReactionDispatch(b *testing.B) {
	prog, err := rcl.Compile(`
		uint16_t m = 0;
		for (int i = 0; i < 16; ++i) { if (qdepths[i] > m) { m = qdepths[i]; } }
		${v} = m;
	`)
	if err != nil {
		b.Fatal(err)
	}
	f := prog.NewFrame()
	q := make([]int64, 16)
	f.BindArray("qdepths", q)
	host := &noopHost{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[i%16] = int64(i)
		if err := f.Exec(host); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProcSleep measures the kernel's cheapest modelled wait: a process
// whose own wake-up is the next event, so Sleep schedules, pops and
// returns without leaving its goroutine.
func benchProcSleep(b *testing.B) {
	s := sim.New(1)
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// benchProcHandoff measures the kernel's dearest wait: a Park/Unpark
// round trip between two processes, each wake-up one goroutine switch.
func benchProcHandoff(b *testing.B) {
	s := sim.New(1)
	var ping, pong *sim.Proc
	pong = s.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
			ping.Unpark()
		}
	})
	ping = s.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			pong.Unpark()
			p.Park()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// noopHost absorbs malleable writes so benchReactionDispatch measures
// pure dispatch.
type noopHost struct{ last int64 }

func (h *noopHost) ReadMbl(string) (int64, error)                   { return h.last, nil }
func (h *noopHost) WriteMbl(_ string, v int64) error                { h.last = v; return nil }
func (h *noopHost) TableOp(_, _ string, _ []rcl.Arg) (int64, error) { return 0, nil }
func (h *noopHost) Call(_ string, _ []rcl.Arg) (int64, error)       { return 0, nil }

// Run executes the whole suite via testing.Benchmark and returns the
// measured metrics in suite order. It is the entry point cmd/perfbench
// uses to produce a Baseline outside `go test`.
func Run() []Metric {
	var ms []Metric
	for _, nb := range HotPathBenchmarks() {
		r := testing.Benchmark(nb.Bench)
		ms = append(ms, Metric{
			Name:        nb.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return ms
}
