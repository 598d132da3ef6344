package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/ctlchan"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// buildChaosRig is buildRig with a fault injector interposed between
// the agent and the driver.
func buildChaosRig(t testing.TB, src string, prof faults.Profile, seed int64, opts Options) (*rig, *faults.Injector) {
	t.Helper()
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	inj := faults.Wrap(s, drv, prof, seed)
	agent := NewAgent(s, inj, plan, opts)
	return &rig{sim: s, sw: sw, drv: drv, plan: plan, agent: agent}, inj
}

// chaosScenario drives the two-table serializability workload (the
// Figs. 7/8 setup of TestThreePhaseTableConsistency) under a fault
// profile and returns its audit and the generations the reaction made.
func chaosScenario(t *testing.T, prof faults.Profile, seed int64, rec RecoveryOptions, run time.Duration) (*rig, *faults.Injector, *check.Audit, uint64) {
	t.Helper()
	ls := &lockstep{}
	r, inj := buildChaosRig(t, check.TwoTableSrc, prof, seed, Options{Recovery: rec, Prologue: ls.prologue})
	if err := r.agent.RegisterNativeReaction("bump", ls.react); err != nil {
		t.Fatal(err)
	}
	// Let the prologue install cleanly; faults start shortly after. (A
	// profile harsh enough to kill a non-redundant prologue is a boot
	// failure, not a dialogue-robustness scenario.)
	inj.SetEnabled(false)
	r.sim.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
	audit := check.Attach(r.sw)
	r.runTraffic(run)
	return r, inj, audit, ls.gen
}

// TestChaosSerializability is the chaos suite's core property: under
// every fault profile, the recovering agent keeps making progress and
// no packet ever observes a mixed (vv, config) snapshot.
func TestChaosSerializability(t *testing.T) {
	for _, prof := range faults.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			if prof.CrashEnabled() {
				// A crash halts the agent process for good; the in-process
				// recovery loop cannot survive it. These profiles run in the
				// failover rig, where a standby takes over and the same
				// serializability invariant is asserted across the takeover.
				r := buildFailoverRig(t, prof, 1234)
				runFailoverScenario(t, r)
				checkFailover(t, r)
				return
			}
			r, inj, audit, gen := chaosScenario(t, prof, 1234, RecoveryForChannel(0), 4*time.Millisecond)
			if err := r.agent.Err(); err != nil {
				t.Fatalf("agent died under %s faults: %v", prof.Name, err)
			}
			st := r.agent.Stats()
			if err := audit.Err(); err != nil {
				t.Fatalf("under %s faults: %v", prof.Name, err)
			}
			if audit.Packets < 1000 || gen < 5 || st.Commits == 0 {
				t.Fatalf("no progress under %s faults: packets=%d generations=%d commits=%d",
					prof.Name, audit.Packets, gen, st.Commits)
			}
			fst := inj.FaultStats()
			switch prof.Name {
			case "transient":
				if fst.InjectedErrors == 0 {
					t.Fatal("transient profile injected nothing; the test exercised no faults")
				}
				if st.Retries == 0 {
					t.Fatal("injected transient failures but the agent never retried")
				}
			case "latency":
				if fst.InjectedSpikes == 0 {
					t.Fatal("latency profile injected no spikes")
				}
			case "stuck":
				if fst.StuckWaits == 0 {
					t.Fatal("stuck profile blocked no operations")
				}
			}
		})
	}
}

// churnBody adds an entry to t1 each run, deletes the one the previous
// run added, and moves handle 1 of both tables (lockstep.prologue's) to
// the next generation, so adds and deletes reach the mirror and undo
// phases, whose replay, unlike a modify's, is not harmless. An abandoned
// run's statics roll back with it, so prev is always a committed run's
// entry.
const churnBody = `{
  static int gen = 0;
  static int key = 0;
  static int prev = 0;
  gen++;
  key++;
  int h = t1.addEntry(8 + key % 200, "set1", key);
  if (prev != 0) t1.delEntry(prev);
  prev = h;
  t1.modEntry(1, "set1", gen);
  t2.modEntry(1, "set2", gen);
}`

// churnSrc is check.TwoTableSrc with churnBody as bump, and
// churnPolledSrc check.FaultSweepSrc with it as react, behind the
// polled register qd.
var (
	churnSrc       = strings.Replace(check.TwoTableSrc, "reaction bump() { }", "reaction bump() "+churnBody, 1)
	churnPolledSrc = strings.Replace(check.FaultSweepSrc, "reaction react(reg qd) { }", "reaction react(reg qd) "+churnBody, 1)
)

// TestSpecChurn runs the churn body on the raw driver, fault-free and
// under every fault profile but the crashes (a takeover restarts the
// statics, which the spec cannot follow): every commit leaves the
// switch where the body's sequential runs put it.
func TestSpecChurn(t *testing.T) {
	for _, prof := range faults.Profiles() {
		if prof.CrashEnabled() {
			continue
		}
		t.Run(prof.Name, func(t *testing.T) {
			r, inj := buildChaosRig(t, churnSrc, prof, 1234, Options{Prologue: (&lockstep{}).prologue})
			spec := AttachSpec(t, r.agent, r.sw)
			AttachRules(t, r.agent)
			inj.SetEnabled(false)
			r.sim.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
			audit := check.Attach(r.sw)
			r.runTraffic(4 * time.Millisecond)
			if err := r.agent.Err(); err != nil {
				t.Fatalf("agent died under %s faults: %v", prof.Name, err)
			}
			if err := audit.Err(); err != nil {
				t.Fatalf("under %s faults: %v", prof.Name, err)
			}
			if spec.Checked < 20 {
				t.Fatalf("under %s faults only %d iterations completed: %+v", prof.Name, spec.Checked, r.agent.Stats())
			}
			fst := inj.FaultStats()
			if prof.Name != "none" && fst.InjectedErrors+fst.InjectedSpikes+fst.PartialBatches+fst.StuckWaits == 0 {
				t.Fatalf("the %s profile injected nothing", prof.Name)
			}
		})
	}
}

// TestSpecChurnRollback runs the churn body on the raw driver and fails
// the t2 prepare of every fifth iteration on every attempt, so that
// iteration is abandoned after the body ran and its rollback undoes an
// add, a delete and two modifies. The spec compares each rollback with
// the last commit, and the next run with the fold.
func TestSpecChurnRollback(t *testing.T) {
	r := buildRig(t, churnSrc, Options{Prologue: (&lockstep{}).prologue})
	spec := AttachSpec(t, r.agent, r.sw)
	tap, _ := AttachRules(t, r.agent)
	failed, left := uint64(0), 0
	tap.Before = func(_ *sim.Proc, _ int, op *driver.Op) error {
		if it := r.agent.stats.Iterations; it%5 == 4 && it != failed {
			// The iteration's first t2 modify is its prepare.
			if op.Kind == driver.OpModifyEntry && op.Table == "t2" {
				if left++; left == r.agent.opts.Recovery.MaxAttempts {
					failed, left = it, 0
				}
				return fmt.Errorf("injected t2 prepare failure: %w", driver.ErrTransient)
			}
		}
		return nil
	}
	r.runTraffic(4 * time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	if st := r.agent.Stats(); st.Rollbacks < 5 || spec.Checked < 20 {
		t.Fatalf("%d rollbacks and %d iterations checked, want at least 5 and 20: %+v", st.Rollbacks, spec.Checked, st)
	}
}

// TestSpecChurnOverChannel runs the churn body over the message channel
// under every link profile, with the snapshot rules on both sides of
// the channel: an add or delete whose acknowledgment the wire lost must
// be settled by the resync audit, not replayed, and no mutation may
// execute twice. The link heals for the last millisecond. Under chaos
// the body also runs behind a polled register, so the measurement rule
// sees polls on both sides.
func TestSpecChurnOverChannel(t *testing.T) {
	for _, prof := range faults.LinkProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			runSpecChurnOverChannel(t, churnSrc, prof)
		})
		if prof.Name != "chaos" {
			continue
		}
		t.Run("polled-chaos", func(t *testing.T) {
			cli, srv := runSpecChurnOverChannel(t, churnPolledSrc, prof)
			if cli.Reads == 0 || srv.Reads == 0 {
				t.Fatalf("the measurement rule checked %d reads on the client side and %d on the server side", cli.Reads, srv.Reads)
			}
		})
	}
}

// runSpecChurnOverChannel runs src's churn body over the message channel
// under prof, with the spec attached, and returns the snapshot rules of
// the client side and of the server side.
func runSpecChurnOverChannel(t *testing.T, src string, prof faults.LinkProfile) (cliRules, srvRules *check.Rules) {
	// Long enough that partition and chaos each lose the ack of a
	// landed add or delete.
	const d = 10 * time.Millisecond
	r := buildRig(t, src, Options{})
	link := netsim.NewLink(r.sim, 500*time.Nanosecond, faults.LinkNone(), 11)
	srv := ctlchan.NewServer(r.sim)
	srvTap := check.NewTap(r.drv)
	srv.Attach(link, netsim.LinkSideB, 1, 1, srvTap)
	cli := ctlchan.NewClient(r.sim, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: r.drv})
	r.agent = NewAgent(r.sim, cli, r.plan, Options{
		Journal:  &JournalConfig{Store: journal.NewMemStore()},
		Prologue: (&lockstep{}).prologue,
	})
	spec := AttachSpec(t, r.agent, r.sw)
	_, cliRules = AttachRules(t, r.agent)
	srvRules = srvTap.Check(r.plan)
	ArmRules(t, r.agent, srvRules, "server side")
	audit := check.Attach(r.sw)
	r.sim.Schedule(50*time.Microsecond, func() { link.SetProfile(prof) })
	r.sim.Schedule(d-time.Millisecond, func() { link.SetProfile(faults.LinkNone()) })
	r.runTraffic(d)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died under %s channel faults: %v", prof.Name, err)
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("under %s channel faults: %v", prof.Name, err)
	}
	if spec.Checked < 5 {
		t.Fatalf("no progress under %s channel faults: %+v", prof.Name, r.agent.Stats())
	}
	if cs, ss := cli.ChanStats(), srv.Stats(); ss.MutationsExecuted > cs.Ops {
		t.Fatalf("more mutations executed (%d) than operations issued (%d)", ss.MutationsExecuted, cs.Ops)
	}
	return cliRules, srvRules
}

// TestChaosZeroOptionsRecovers runs the transient profile against an
// agent that sets no recovery budgets: it derives them from its channel,
// so the injected errors are retried or rolled back, it keeps
// committing, and no packet observes a mixed snapshot.
func TestChaosZeroOptionsRecovers(t *testing.T) {
	r, inj, audit, gen := chaosScenario(t, faults.TransientErrors(), 1234, RecoveryOptions{}, 4*time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.agent.Stats()
	if inj.FaultStats().InjectedErrors == 0 || st.Retries == 0 {
		t.Fatalf("no fault was injected and retried: %+v", st)
	}
	if audit.Packets < 1000 || gen < 5 || st.Commits == 0 {
		t.Fatalf("no progress: packets=%d generations=%d commits=%d", audit.Packets, gen, st.Commits)
	}
}

// TestChaosRecoveryDerivedFromChannel checks the budgets NewAgent
// derives for a zero Options.Recovery: RecoveryForChannel of the
// channel's round trip on a message channel, also through a check.Tap
// above it, and of 0 on a raw driver.
func TestChaosRecoveryDerivedFromChannel(t *testing.T) {
	r := buildRig(t, fig1Src, Options{})
	if got, want := r.agent.opts.Recovery, RecoveryForChannel(0); got != want {
		t.Fatalf("raw driver: derived %+v, want %+v", got, want)
	}
	link := netsim.NewLink(r.sim, time.Microsecond, faults.LinkNone(), 1)
	cli := ctlchan.NewClient(r.sim, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: r.drv})
	a := NewAgent(r.sim, cli, r.plan, Options{})
	want := RecoveryForChannel(cli.RTT())
	if got := a.opts.Recovery; got != want {
		t.Fatalf("ctlchan client: derived %+v, want %+v", got, want)
	}
	if got := NewAgent(r.sim, check.NewTap(cli), r.plan, Options{}).opts.Recovery; got != want {
		t.Fatalf("check.Tap over the client: derived %+v, want the client's %+v", got, want)
	}
	if want == RecoveryForChannel(0) {
		t.Fatal("a message channel's budgets equal the raw driver's; the check is vacuous")
	}
}

// TestChaosRollback cranks the error rate past the retry budget so
// iterations are abandoned, and checks that rollback keeps the
// committed state consistent while the loop keeps going.
func TestChaosRollback(t *testing.T) {
	prof := faults.Profile{Name: "harsh", ErrorRate: 0.30, ErrorBurst: 6}
	rec := RecoveryForChannel(0)
	rec.MaxAttempts = 2 // give up fast so abandons actually happen
	r, _, audit, _ := chaosScenario(t, prof, 99, rec, 6*time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	st := r.agent.Stats()
	if st.Abandoned == 0 || st.Rollbacks == 0 {
		t.Fatalf("harsh profile caused no abandons/rollbacks: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatalf("no iteration ever committed: %+v", st)
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("despite rollback: %v", err)
	}
}

// TestChaosWatchdog sets the iteration deadline below the stuck-window
// length, so a wedged channel trips the watchdog instead of silently
// stretching iterations.
func TestChaosWatchdog(t *testing.T) {
	prof := faults.StuckChannel() // wedges 300µs out of every 2ms
	rec := RecoveryForChannel(0)
	rec.IterationDeadline = 150 * time.Microsecond
	r, inj, audit, _ := chaosScenario(t, prof, 7, rec, 10*time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	st := r.agent.Stats()
	if inj.FaultStats().StuckWaits == 0 {
		t.Fatal("no operation ever hit a stuck window; the test is vacuous")
	}
	if st.WatchdogTrips == 0 {
		t.Fatalf("stuck channel never tripped the %v watchdog: %+v", rec.IterationDeadline, st)
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("after watchdog abandons: %v", err)
	}
}

// TestChaosDegradedPolls forces measurement reads to fail past their
// retries and checks the reaction keeps running on the last checkpoint
// snapshot instead of stalling the agent.
func TestChaosDegradedPolls(t *testing.T) {
	prof := faults.Profile{Name: "flaky-reads", ErrorRate: 0.30}
	rec := RecoveryForChannel(0)
	rec.MaxAttempts = 2
	r, inj := buildChaosRig(t, fig1Src, prof, 5, Options{Recovery: rec})
	inj.SetEnabled(false)
	r.sim.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
	r.agent.Start()
	tick := r.sim.Every(2*sim.Microsecond, func() {
		r.inject(0, 400, map[string]uint64{"hdr.port": 5})
	})
	r.sim.RunFor(8 * time.Millisecond)
	tick.Stop()
	r.agent.Stop()
	r.sim.RunFor(time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	st := r.agent.Stats()
	if st.Degraded == 0 {
		t.Fatalf("no iteration degraded to the cached snapshot: %+v", st)
	}
	if st.Iterations < 20 {
		t.Fatalf("agent made little progress: %d iterations", st.Iterations)
	}
}

// TestPrologueFaultIsFatal checks that a prologue that cannot reach the
// switch is fatal whatever the recovery settings are: the agent has no
// committed configuration to fall back on, so it stops with the
// transient cause instead of entering the dialogue loop.
func TestPrologueFaultIsFatal(t *testing.T) {
	prof := faults.Profile{Name: "always", ErrorRate: 1.0}
	r, _ := buildChaosRig(t, fig1Src, prof, 1, Options{})
	r.agent.Start()
	r.sim.RunFor(time.Millisecond)
	err := r.agent.Err()
	if err == nil {
		t.Fatal("agent survived a prologue that could not reach the switch")
	}
	if !strings.HasPrefix(err.Error(), "prologue: ") {
		t.Fatalf("agent died outside the prologue: %v", err)
	}
	if !driver.IsTransient(err) {
		t.Fatalf("fatal error lost its transient cause: %v", err)
	}
}

// TestStopAndErrAreRaceSafe exercises Stop/Err from a different
// goroutine while the simulation runs, for the -race detector.
func TestStopAndErrAreRaceSafe(t *testing.T) {
	r := buildRig(t, fig1Src, Options{})
	r.agent.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond) // real time, overlapping the run below
		r.agent.Stop()
		_ = r.agent.Err()
	}()
	r.sim.RunFor(500 * time.Millisecond)
	wg.Wait()
	r.sim.RunFor(time.Millisecond) // let a stopped-mid-iteration agent wind down
	if err := r.agent.Err(); err != nil {
		t.Fatalf("stopped agent reported error: %v", err)
	}
}

// TestStopHonoredMidIteration checks a stop request lands inside an
// iteration (between reactions) and the partial iteration's staged
// changes are rolled back rather than committed.
func TestStopHonoredMidIteration(t *testing.T) {
	var h1 UserHandle
	stopNow := false
	r := buildRig(t, check.TwoTableSrc, Options{
		Prologue: func(p *sim.Proc, a *Agent) error {
			t1, _ := a.Table("t1")
			var err error
			h1, err = t1.AddEntry(p, UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}})
			return err
		},
	})
	if err := r.agent.RegisterNativeReaction("bump", func(ctx *Ctx) error {
		t1, _ := ctx.Table("t1")
		if err := t1.ModifyEntry(h1, "set1", []uint64{77}); err != nil {
			return err
		}
		if stopNow {
			// Stop lands after this reaction staged its change but before
			// the commit: the write must NOT become visible.
			r.agent.Stop()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.agent.Start()
	r.sim.RunFor(200 * time.Microsecond)
	committed := r.agent.Stats().Commits
	stopNow = true
	r.sim.RunFor(5 * time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent error: %v", err)
	}
	st := r.agent.Stats()
	if st.Commits != committed {
		// One more commit could only happen if the stop was ignored for a
		// full iteration.
		t.Fatalf("commits advanced from %d to %d after mid-iteration stop", committed, st.Commits)
	}
	if st.Rollbacks == 0 {
		t.Fatalf("mid-iteration stop rolled nothing back: %+v", st)
	}
}
