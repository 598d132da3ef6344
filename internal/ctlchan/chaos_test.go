package ctlchan

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// lockstep drives check.TwoTableSrc from the agent side: the prologue
// installs one entry in each table, and every run of the reaction moves
// both to the next generation. Reaction and prologue share the handles,
// so a successor that recovered the journal can reuse them as they are.
type lockstep struct {
	h1, h2 core.UserHandle
	gen    uint64
}

func (l *lockstep) prologue(p *sim.Proc, a *core.Agent) error {
	t1, _ := a.Table("t1")
	t2, _ := a.Table("t2")
	var err error
	if l.h1, err = t1.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}}); err != nil {
		return err
	}
	l.h2, err = t2.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set2", Data: []uint64{0}})
	return err
}

func (l *lockstep) react(ctx *core.Ctx) error {
	l.gen++
	t1, _ := ctx.Table("t1")
	t2, _ := ctx.Table("t2")
	if err := t1.ModifyEntry(l.h1, "set1", []uint64{l.gen}); err != nil {
		return err
	}
	return t2.ModifyEntry(l.h2, "set2", []uint64{l.gen})
}

// stackRig is the full message-channel stack under the two-table
// workload:
//
//	agent -> ctlchan.Client -> netsim.Link -> ctlchan.Server -> driver -> switch
//
// The link starts clean so the prologue installs over a working wire;
// the fault profile swaps in at 50µs (the message-channel analogue of
// the chaos suite's injector-arming delay).
type stackRig struct {
	sim   *sim.Simulator
	sw    *rmt.Switch
	drv   *driver.Driver
	plan  *compiler.Plan
	link  *netsim.Link
	srv   *Server
	cli   *Client
	store *journal.MemStore
	agent *core.Agent
	ls    lockstep
	audit *check.Audit
}

func buildStack(t testing.TB, linkDelay time.Duration, cliOpts ClientOptions, mod func(*core.RecoveryOptions)) *stackRig {
	t.Helper()
	plan, err := compiler.CompileSource(check.TwoTableSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	link := netsim.NewLink(s, linkDelay, faults.LinkNone(), 11)
	srv := NewServer(s)
	if cliOpts.Session == 0 {
		cliOpts.Session = 1
	}
	if cliOpts.Epoch == 0 {
		cliOpts.Epoch = 1
	}
	cliOpts.Meta = drv
	srv.Attach(link, netsim.LinkSideB, cliOpts.Session, cliOpts.Epoch, drv)
	cli := NewClient(s, link, netsim.LinkSideA, cliOpts)

	rec := core.RecoveryForChannel(cli.RTT())
	if mod != nil {
		mod(&rec)
	}
	r := &stackRig{
		sim: s, sw: sw, drv: drv, plan: plan, link: link, srv: srv, cli: cli,
		store: journal.NewMemStore(), audit: check.Attach(sw),
	}
	r.agent = core.NewAgent(s, cli, plan, core.Options{
		Recovery: rec,
		Journal:  &core.JournalConfig{Store: r.store},
		Prologue: r.ls.prologue,
	})
	if err := r.agent.RegisterNativeReaction("bump", r.ls.react); err != nil {
		t.Fatal(err)
	}
	return r
}

// run starts the agent and traffic, swaps the profile in at 50µs, runs
// for d, then stops and drains.
func (r *stackRig) run(prof faults.LinkProfile, d time.Duration) {
	r.sim.Schedule(50*time.Microsecond, func() { r.link.SetProfile(prof) })
	r.agent.Start()
	tick := check.TwoTableTraffic(r.sim, r.sw)
	r.sim.RunFor(d)
	tick.Stop()
	r.agent.Stop()
	r.sim.RunFor(2 * time.Millisecond)
}

// TestChannelChaosSerializability is the tentpole property: under every
// channel fault profile the agent keeps committing, no packet observes
// mixed cross-table state, and every mutation applies at most once.
func TestChannelChaosSerializability(t *testing.T) {
	for _, prof := range faults.LinkProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			r := buildStack(t, 500*time.Nanosecond, ClientOptions{}, nil)
			r.run(prof, 5*time.Millisecond)

			if err := r.audit.Err(); err != nil {
				t.Fatalf("under %s channel faults: %v", prof.Name, err)
			}
			if err := r.agent.Err(); err != nil {
				t.Fatalf("agent died under %s channel faults: %v", prof.Name, err)
			}
			st := r.agent.Stats()
			if r.audit.Packets < 1000 || r.ls.gen < 5 || st.Commits == 0 {
				t.Fatalf("no progress under %s channel faults: packets=%d generations=%d commits=%d",
					prof.Name, r.audit.Packets, r.ls.gen, st.Commits)
			}
			cs, ss := r.cli.ChanStats(), r.srv.Stats()
			// At-most-once, asserted globally: the server never executed a
			// mutation twice, no matter what the wire did. Every server-side
			// execution is distinct-by-seq; dedup and floor rejection absorb
			// the rest. The client-side ledger: ops that returned success are
			// a lower bound on executions; timeouts are the only ambiguity.
			if ss.MutationsExecuted > cs.Ops {
				t.Fatalf("more mutations executed (%d) than operations issued (%d)", ss.MutationsExecuted, cs.Ops)
			}
			switch prof.Name {
			case "none":
				if cs.Retransmits != 0 || cs.Timeouts != 0 || ss.DedupHits != 0 {
					t.Fatalf("clean wire produced recovery traffic: client %+v server %+v", cs, ss)
				}
			case "lossy", "dup", "chaos":
				if ss.DedupHits == 0 {
					t.Fatalf("%s profile produced no dedup hits — idempotency path unexercised (client %+v server %+v)",
						prof.Name, cs, ss)
				}
				fallthrough
			case "reorder", "jitter":
				if prof.Loss > 0 && cs.Retransmits == 0 {
					t.Fatalf("loss but no retransmits: %+v", cs)
				}
			case "partition":
				if cs.Timeouts == 0 {
					t.Fatal("partition windows never degraded an operation; deadline is mis-sized")
				}
				if st.Resyncs == 0 {
					t.Fatalf("degraded channel healed but the agent never resynced: %+v", st)
				}
			}
			if prof.PartitionEvery > 0 && st.Resyncs == 0 {
				t.Fatalf("%s: post-partition heal without resync: %+v", prof.Name, st)
			}
			// A profile that only delays or copies frames loses none: the
			// retransmission timer's margin covers the skew it adds, so
			// almost nothing is sent twice.
			if prof.Loss == 0 && prof.PartitionEvery == 0 && cs.Retransmits*100 > cs.Sent {
				t.Fatalf("%s only delays frames, yet %d of %d frames were resent", prof.Name, cs.Retransmits, cs.Sent)
			}
		})
	}
}

func ctlplaneNew(s *sim.Simulator, drv *driver.Driver) *ctlplane.Service {
	return ctlplane.New(s, drv, ctlplane.Options{})
}

func mustOpen(t *testing.T, svc *ctlplane.Service, name string, electionID uint64) *ctlplane.Session {
	t.Helper()
	sess, err := svc.Open(ctlplane.SessionOptions{Name: name, Role: ctlplane.RolePrimary, ElectionID: electionID})
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return sess
}

// TestSplitBrainFencedOnTakeover is the split-brain property: a primary
// partitioned across a standby takeover must have every post-takeover
// mutation fenced by the ctlplane election, answered as fenced by the
// channel server, so its stale writes never reach the switch.
func TestSplitBrainFencedOnTakeover(t *testing.T) {
	// Assembled by hand rather than via buildStack: the two controllers
	// need separate links into one server over one ctlplane service.
	plan, err := compiler.CompileSource(check.TwoTableSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	svc := ctlplaneNew(s, drv)
	store := journal.NewMemStore()
	srv := NewServer(s)

	link1 := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 21)
	sess1 := mustOpen(t, svc, "primary", 1)
	srv.Attach(link1, netsim.LinkSideB, 1, 1, sess1)
	cli1 := NewClient(s, link1, netsim.LinkSideA, ClientOptions{Session: 1, Epoch: 1, Meta: drv})

	audit := check.Attach(sw)
	ls := &lockstep{}
	agent1 := core.NewAgent(s, cli1, plan, core.Options{
		Journal:  &core.JournalConfig{Store: store},
		Prologue: ls.prologue,
	})
	if err := agent1.RegisterNativeReaction("bump", ls.react); err != nil {
		t.Fatal(err)
	}
	agent1.Start()
	tick := check.TwoTableTraffic(s, sw)

	// t=300µs: the primary's link partitions. Its in-flight ops
	// retransmit into the void (well inside their 100µs deadline).
	s.Schedule(300*time.Microsecond, func() { link1.SetPartitioned(true) })

	// t=305µs: a successor performs a takeover on its own healthy link:
	// higher ctlplane election (demotes sess1) and higher channel epoch.
	var agent2 *core.Agent
	var recErr error
	s.Schedule(305*time.Microsecond, func() {
		s.Spawn("takeover", func(p *sim.Proc) {
			var sess2 *ctlplane.Session
			sess2, recErr = svc.Open(ctlplane.SessionOptions{Name: "successor", Role: ctlplane.RolePrimary, ElectionID: 2})
			if recErr != nil {
				return // not mustOpen: t.Fatal must stay off a process goroutine
			}
			link2 := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 22)
			srv.Attach(link2, netsim.LinkSideB, 2, 2, sess2)
			cli2 := NewClient(s, link2, netsim.LinkSideA, ClientOptions{Session: 2, Epoch: 2, Meta: drv})
			agent2, _, recErr = core.Recover(p, s, cli2, store, plan, core.Options{})
			if recErr != nil {
				return
			}
			if recErr = agent2.RegisterNativeReaction("bump", ls.react); recErr != nil {
				return
			}
			agent2.Start()
		})
	})

	// t=320µs: the old primary's link heals — shorter than its op
	// deadline, so its suspended requests retransmit straight into the
	// fence instead of degrading first.
	s.Schedule(320*time.Microsecond, func() { link1.SetPartitioned(false) })

	s.RunFor(2 * time.Millisecond)
	tick.Stop()
	if agent2 != nil {
		agent2.Stop()
	}
	s.RunFor(2 * time.Millisecond)

	if recErr != nil {
		t.Fatalf("takeover recovery failed: %v", recErr)
	}
	if agent2 == nil {
		t.Fatal("successor never recovered")
	}
	if err := agent2.Err(); err != nil {
		t.Fatalf("successor died: %v", err)
	}
	if agent2.Stats().Commits == 0 {
		t.Fatal("successor made no commits after takeover")
	}

	// The fenced primary must be dead, with the fence as the cause.
	err1 := agent1.Err()
	if err1 == nil {
		t.Fatal("partitioned-then-healed primary is still running — fencing failed")
	}
	if !errors.Is(err1, ErrFenced) {
		t.Fatalf("old primary died of %v, want ErrFenced", err1)
	}
	ss := srv.Stats()
	if ss.FencedWrites == 0 {
		t.Fatal("no write was ever fenced; the scenario is vacuous")
	}
	// Split-brain freedom, asserted from the server's ledger: the old
	// session's last executed mutation predates the epoch bump.
	if at := srv.sessions[1].lastMutationAt; at > ss.EpochBumpedAt {
		t.Fatalf("session 1 executed a mutation at %v, after the epoch rose at %v — split brain",
			at, ss.EpochBumpedAt)
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("across the takeover: %v", err)
	}
	if audit.Packets < 1000 {
		t.Fatalf("only %d packets audited", audit.Packets)
	}
}

// TestDialoguePriorityOverWire: one server fronts a ctlplane service with
// a primary and a legacy session, as in the fabric. A legacy run of n
// default-action reads arrives 100 ns before the primary's one-op read.
// The read waits only for the one bulk op already in flight, never for the
// rest of the run, so its round trip is the same at every n: the service's
// priority holds over the wire.
func TestDialoguePriorityOverWire(t *testing.T) {
	plan, err := compiler.CompileSource(check.TwoTableSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	const want = 4100 * time.Nanosecond
	for _, n := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := sim.New(1)
			sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
			if err != nil {
				t.Fatalf("switch: %v", err)
			}
			svc := ctlplaneNew(s, driver.New(s, sw, driver.DefaultCostModel()))
			legacy, err := svc.Open(ctlplane.SessionOptions{Name: "legacy", Role: ctlplane.RoleLegacy})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(s)
			primLink := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 1)
			bulkLink := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 2)
			srv.Attach(primLink, netsim.LinkSideB, 1, 1, mustOpen(t, svc, "primary", 1))
			srv.Attach(bulkLink, netsim.LinkSideB, 2, 1, legacy)
			prim := NewClient(s, primLink, netsim.LinkSideA, ClientOptions{Session: 1, Epoch: 1})
			bulk := NewClient(s, bulkLink, netsim.LinkSideA, ClientOptions{Session: 2, Epoch: 1})

			run := make([]driver.Op, n)
			for i := range run {
				run[i] = driver.Op{Kind: driver.OpReadDefault, Table: "t1"}
			}
			var bulkErr, readErr error
			var took time.Duration
			s.Spawn("legacy", func(p *sim.Proc) { _, bulkErr = bulk.DoRun(p, run) })
			s.Schedule(100*time.Nanosecond, func() {
				s.Spawn("primary", func(p *sim.Proc) {
					start := p.Now()
					_, readErr = prim.DoRun(p, []driver.Op{{Kind: driver.OpReadDefault, Table: "t1"}})
					took = p.Now().Sub(start)
				})
			})
			s.Run()
			if bulkErr != nil || readErr != nil {
				t.Fatalf("legacy run: %v; primary read: %v", bulkErr, readErr)
			}
			if took != want {
				t.Fatalf("primary read behind a legacy run of %d took %v, want %v", n, took, want)
			}
		})
	}
}

// fig1Src is the paper's Figure 1 workload (same as the core suite): a
// register the reaction polls, with the result written back through a
// malleable value. Unlike check.TwoTableSrc's bump(), my_reaction actually
// polls the switch — which is what the staleness budget governs.
const fig1Src = `
header_type h_t { fields { tag : 16; port : 8; } }
header h_t hdr;
register qdepths { width : 32; instance_count : 16; }
malleable value value_var { width : 16; init : 0; }
action observe() {
  register_write(qdepths, hdr.port, standard_metadata.packet_length);
  modify_field(hdr.tag, ${value_var});
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { observe; } default_action : observe; size : 1; }
reaction my_reaction(reg qdepths) {
  uint16_t current_max = 0;
  uint16_t max_port = 0;
  for (int i = 0; i < 16; ++i) {
    if (qdepths[i] > current_max) {
      current_max = qdepths[i]; max_port = i;
    }
  }
  ${value_var} = max_port;
}
control ingress { apply(t); }
`

// TestStalenessBudgetAborts: while polls fail, degraded reactions run on
// the cached snapshot only as long as it is younger than the staleness
// budget — past it the iteration aborts instead of reacting to ancient
// measurements — and commits resume once polling heals.
func TestStalenessBudgetAborts(t *testing.T) {
	plan, err := compiler.CompileSource(fig1Src, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	// While readsFail, the server's channel fails measurement reads
	// transiently and leaves mutations alone: the degraded-polls regime,
	// where the wire still carries flips and commits but no fresh
	// snapshot can be fetched. (A full partition cannot produce it: there
	// the mv flip fails before any poll and the iteration abandons early.)
	inner, readsFail := check.NewTap(drv), false
	inner.Before = func(_ *sim.Proc, _ int, op *driver.Op) error {
		if readsFail && op.Kind == driver.OpRead {
			return fmt.Errorf("measurement unit offline: %w", driver.ErrTransient)
		}
		return nil
	}
	link := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 31)
	srv := NewServer(s)
	srv.Attach(link, netsim.LinkSideB, 1, 1, inner)
	cli := NewClient(s, link, netsim.LinkSideA, ClientOptions{Session: 1, Epoch: 1, Meta: drv})

	rec := core.RecoveryForChannel(cli.RTT())
	rec.StalenessBudget = 150 * time.Microsecond
	agent := core.NewAgent(s, cli, plan, core.Options{
		Recovery: rec,
		Journal:  &core.JournalConfig{Store: journal.NewMemStore()},
	})

	// Reads fail from 200µs to 800µs: 600µs without a fresh snapshot
	// against a 150µs budget.
	s.Schedule(200*time.Microsecond, func() { readsFail = true })
	var commitsAtHeal uint64
	s.Schedule(800*time.Microsecond, func() {
		readsFail = false
		commitsAtHeal = agent.Stats().Commits
	})

	agent.Start()
	tick := s.Every(2*time.Microsecond, func() {
		pkt := plan.Prog.Schema.New()
		pkt.Size = 400
		pkt.SetName("hdr.port", 5)
		sw.Inject(0, pkt)
	})
	s.RunFor(3 * time.Millisecond)
	tick.Stop()
	agent.Stop()
	s.RunFor(2 * time.Millisecond)

	if err := agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	st := agent.Stats()
	if st.Degraded == 0 {
		t.Fatalf("no iteration degraded onto the cached snapshot inside the budget: %+v", st)
	}
	if st.StalenessAborts == 0 {
		t.Fatalf("600µs of failed polls never tripped the 150µs staleness budget: %+v", st)
	}
	if st.Commits <= commitsAtHeal {
		t.Fatalf("no commits after the heal: %d at heal, %d at end", commitsAtHeal, st.Commits)
	}
}

// TestWatchdogScalesWithRTT is the satellite-2 regression: a wall-clock
// iteration deadline tuned for the in-process channel wedges an agent on
// a high-latency link, while the RTT-scaled watchdog sizes itself.
func TestWatchdogScalesWithRTT(t *testing.T) {
	const slowDelay = 25 * time.Microsecond // 50µs RTT; iterations take several hundred µs

	// Fixed 100µs deadline (generous for the ~10µs in-process iteration)
	// on the slow link: the deadline is checked between driver ops, and
	// the two reaction prepares alone take ~2 RTTs (~104µs), so every
	// iteration trips before its master flip can commit.
	fixed := buildStack(t, slowDelay, ClientOptions{}, func(rec *core.RecoveryOptions) {
		rec.IterationDeadline = 100 * time.Microsecond
	})
	fixed.run(faults.LinkNone(), 20*time.Millisecond)
	if err := fixed.agent.Err(); err != nil {
		t.Fatalf("fixed-deadline agent died: %v", err)
	}
	fst := fixed.agent.Stats()
	if fst.WatchdogTrips == 0 {
		t.Fatalf("fixed 100µs deadline never tripped on a %v link: %+v", slowDelay, fst)
	}
	if fst.Commits > 0 {
		t.Fatalf("fixed deadline below iteration time still committed %d times — watchdog not the binding constraint", fst.Commits)
	}

	// RTT-scaled: 400 round trips = 20ms of budget, plenty.
	scaled := buildStack(t, slowDelay, ClientOptions{}, nil)
	scaled.run(faults.LinkNone(), 20*time.Millisecond)
	if err := scaled.agent.Err(); err != nil {
		t.Fatalf("RTT-scaled agent died: %v", err)
	}
	sst := scaled.agent.Stats()
	if sst.WatchdogTrips != 0 {
		t.Fatalf("RTT-scaled watchdog tripped %d times on a clean link", sst.WatchdogTrips)
	}
	if sst.Commits == 0 {
		t.Fatal("RTT-scaled agent never committed")
	}
}
