package core

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// sessionChaosSrc is check.TwoTableSrc plus a legacy (non-malleable) table so
// legacy bulk sessions have something to churn that is outside the
// agent's serializability domain. The legacy table applies after t1/t2,
// so its entries never perturb the invariant fields.
const sessionChaosSrc = `
header_type h_t { fields { k : 8; o1 : 32; o2 : 32; } }
header h_t hdr;
malleable value dummy { width : 8; init : 0; }
action set1(v) { modify_field(hdr.o1, v); }
action set2(v) {
  modify_field(hdr.o2, v);
  modify_field(standard_metadata.egress_spec, 1);
}
action mark(v) { modify_field(hdr.k, v); }
malleable table t1 { reads { hdr.k : exact; } actions { set1; } size : 4; }
malleable table t2 { reads { hdr.k : exact; } actions { set2; } size : 4; }
table legacy { reads { hdr.k : exact; } actions { mark; } size : 64; }
reaction bump() { }
control ingress { apply(t1); apply(t2); apply(legacy); }
`

// sessionRig is the full production stack: driver at the bottom, fault
// injector above it, control-plane service above that, and the agent
// speaking through a primary session.
type sessionRig struct {
	rig
	inj  *faults.Injector
	svc  *ctlplane.Service
	sess *ctlplane.Session
}

func buildSessionRig(t testing.TB, src string, prof faults.Profile, seed int64, opts Options) *sessionRig {
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
	svc := ctlplane.New(s, inj, ctlplane.Options{})
	agent, sess, err := NewSessionAgent(s, svc, 1, plan, opts)
	if err != nil {
		t.Fatalf("session agent: %v", err)
	}
	return &sessionRig{
		rig: rig{sim: s, sw: sw, drv: drv, plan: plan, agent: agent},
		inj: inj, svc: svc, sess: sess,
	}
}

// TestSessionAgentDialogue is the no-fault smoke: the Figure 1 agent
// behind a ctlplane session behaves exactly like one on a raw driver.
func TestSessionAgentDialogue(t *testing.T) {
	r := buildSessionRig(t, fig1Src, faults.None(), 1, Options{})
	r.agent.Start()
	r.sim.RunFor(2 * time.Millisecond)
	r.agent.Stop()
	r.sim.RunFor(time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent error: %v", err)
	}
	st := r.agent.Stats()
	if st.Iterations == 0 {
		t.Fatal("agent made no progress through the session")
	}
	if r.svc.Stats().DialogueOps == 0 {
		t.Fatal("no ops were classified as dialogue traffic")
	}
	if r.sess.SessionStats().Completed == 0 {
		t.Fatal("session completed no requests")
	}
}

// TestChaosSerializabilityThroughSession is the chaos-suite extension
// for the control-plane service: under the representative transient-
// error profile — injected BELOW the service, so scheduler and sessions
// both sit in the blast radius — the session-routed agent
// with recovery still never lets a packet observe a mixed (vv, config)
// snapshot, while two legacy bulk sessions churn an unrelated table
// through the same scheduler.
func TestChaosSerializabilityThroughSession(t *testing.T) {
	prof := faults.TransientErrors()
	ls := &lockstep{}
	r := buildSessionRig(t, sessionChaosSrc, prof, 4321, Options{Prologue: ls.prologue})
	if err := r.agent.RegisterNativeReaction("bump", ls.react); err != nil {
		t.Fatal(err)
	}

	// Two legacy bulk writers churn the legacy table through their own
	// sessions. They see the same injected faults the agent does; a
	// failed churn op is simply retried on the next round.
	legacyOK := 0
	for c := 0; c < 2; c++ {
		c := c
		sess, err := r.svc.Open(ctlplane.SessionOptions{Role: ctlplane.RoleLegacy})
		if err != nil {
			t.Fatal(err)
		}
		r.sim.Spawn(sess.Name(), func(p *sim.Proc) {
			p.Sleep(60 * sim.Microsecond) // let the prologue finish first
			h, err := sess.AddEntry(p, "legacy", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(uint64(100 + c))}, Action: "mark", Data: []uint64{0},
			})
			if err != nil {
				return // churn is best-effort under faults
			}
			for i := 0; ; i++ {
				if err := sess.ModifyEntry(p, "legacy", h, "mark", []uint64{uint64(i)}); err == nil {
					legacyOK++
				}
				p.Sleep(5 * sim.Microsecond)
			}
		})
	}

	r.inj.SetEnabled(false)
	r.sim.Schedule(50*sim.Microsecond, func() { r.inj.SetEnabled(true) })
	audit := check.Attach(r.sw)
	r.runTraffic(4 * time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died under session-routed faults: %v", err)
	}
	st := r.agent.Stats()
	if err := audit.Err(); err != nil {
		t.Fatalf("through the session: %v", err)
	}
	if audit.Packets < 1000 || ls.gen < 5 || st.Commits == 0 {
		t.Fatalf("no progress: packets=%d generations=%d commits=%d", audit.Packets, ls.gen, st.Commits)
	}
	if r.inj.FaultStats().InjectedErrors == 0 {
		t.Fatal("profile injected nothing; the test exercised no faults")
	}
	if st.Retries == 0 {
		t.Fatal("injected transient failures but the agent never retried")
	}
	if legacyOK == 0 {
		t.Fatal("legacy sessions made no progress — bulk class starved")
	}
	svcStats := r.svc.Stats()
	if svcStats.DialogueOps == 0 || svcStats.BulkOps == 0 {
		t.Fatalf("both classes should have been served: %+v", svcStats)
	}
}
