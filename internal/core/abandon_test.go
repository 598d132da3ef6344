package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// abandonRig is an agent with two attempts per op, with every event
// collected, on a tap over the raw driver that, from the end of the
// prologue on, fails transiently every op fail picks.
type abandonRig struct {
	sim    *sim.Simulator
	sw     *rmt.Switch
	plan   *compiler.Plan
	tap    *check.Tap
	agent  *core.Agent
	events []core.Event
}

func buildAbandonRig(t *testing.T, src string, fail func(op *driver.Op) bool) *abandonRig {
	t.Helper()
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := &abandonRig{sim: sim.New(1), plan: plan}
	if r.sw, err = rmt.New(r.sim, plan.Prog, rmt.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	r.tap = check.NewTap(driver.New(r.sim, r.sw, driver.DefaultCostModel()))
	armed := false
	r.tap.Before = func(_ *sim.Proc, _ int, op *driver.Op) error {
		if armed && fail(op) {
			return fmt.Errorf("injected %s: %w", op.Kind, driver.ErrTransient)
		}
		return nil
	}
	rec := core.RecoveryForChannel(0)
	rec.MaxAttempts = 2
	rec.RetryBackoff = time.Microsecond
	r.agent = core.NewAgent(r.sim, r.tap, plan, core.Options{
		Recovery:  rec,
		EventSink: func(ev core.Event) { r.events = append(r.events, ev) },
		Prologue: func(*sim.Proc, *core.Agent) error {
			armed = true
			return nil
		},
	})
	return r
}

// run starts the agent, runs for d and stops it.
func (r *abandonRig) run(t *testing.T, d time.Duration) {
	t.Helper()
	r.agent.Start()
	r.sim.RunFor(d)
	r.agent.Stop()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
}

// keys lists the keys of the events of one kind, in delivery order.
func (r *abandonRig) keys(kind string) []uint64 {
	var out []uint64
	for _, ev := range r.events {
		if ev.Kind == kind {
			out = append(out, ev.Key)
		}
	}
	return out
}

// failTimes fails the first n ops match accepts, once armed.
func failTimes(n int, match func(op *driver.Op) bool) func(op *driver.Op) bool {
	return func(op *driver.Op) bool {
		if n > 0 && match(op) {
			n--
			return true
		}
		return false
	}
}

// hasKey reports whether an add carries the user key k in some column.
func hasKey(op *driver.Op, k uint64) bool {
	return op.Kind == driver.OpAddEntry && slices.ContainsFunc(op.Keys, func(ks rmt.KeySpec) bool {
		return ks.Value == k && ks.Mask == ^uint64(0)
	})
}

// hitTableSrc is a malleable table t whose hit action writes its datum
// into hdr.out; the reaction body is supplied per test.
const hitTableSrc = `
header_type h_t { fields { k : 8; out : 8; } }
header h_t hdr;
action hit(v) {
  modify_field(hdr.out, v);
  modify_field(standard_metadata.egress_spec, 1);
}
action miss() { drop(); }
malleable table t {
  reads { hdr.k : exact; }
  actions { hit; miss; }
  default_action : miss;
  size : 16;
}
%s
control ingress { apply(t); }
`

// TestAbandonedFlipTakesBackStatics: a body that adds an entry once,
// latched by a static, reacts again after the iteration holding the add
// is abandoned at its flip. The abandon restores the latch, so the retry
// stages the add once more and it commits; the event the abandoned
// iteration delivered is delivered again (events are at-least-once).
func TestAbandonedFlipTakesBackStatics(t *testing.T) {
	src := fmt.Sprintf(hitTableSrc, `reaction manage() {
  static int n, done;
  n = n + 1;
  if (n >= 3 && done == 0) {
    t.addEntry(9, "hit", 55);
    done = 1;
    emit("added", n, 0);
  }
}`)
	// The flip after the add, and its one retry, fail: the iteration is
	// abandoned.
	r := buildAbandonRig(t, src, failFlipAfterAdd(func(op *driver.Op) bool { return hasKey(op, 9) }))
	var out uint64
	r.sw.Tx = func(_ int, pkt *packet.Packet) { out = pkt.GetName("hdr.out") }
	r.sim.Schedule(500*sim.Microsecond, func() {
		pkt := r.plan.Prog.Schema.New()
		pkt.Size = 64
		pkt.SetName("hdr.k", 9)
		r.sw.Inject(0, pkt)
	})
	r.run(t, time.Millisecond)
	if st := r.agent.Stats(); st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	if out != 55 {
		t.Errorf("a k = 9 packet left with out = %d, want 55 from the entry the retry added", out)
	}
	if got := r.keys("added"); !slices.Equal(got, []uint64{3, 3}) {
		t.Errorf("added events carry n = %v, want [3 3]: the retry sees the restored n", got)
	}
}

// failFlipAfterAdd fails the two attempts at the first flip after the
// first add isAdd accepts, and nothing else.
func failFlipAfterAdd(isAdd func(op *driver.Op) bool) func(op *driver.Op) bool {
	seen, left := false, 2
	return func(op *driver.Op) bool {
		seen = seen || isAdd(op)
		if seen && left > 0 && op.Kind == driver.OpSetDefault {
			left--
			return true
		}
		return false
	}
}

// TestAbandonedDosBlockIsRetried runs the DoS body against one flooding
// sender and abandons the iteration that stages its block, at the flip.
// The abandon restores the body's blocked[] cell, so the next poll
// stages the block again and the sender ends up in the blocklist.
func TestAbandonedDosBlockIsRetried(t *testing.T) {
	const src = 0x0A000005
	r := buildAbandonRig(t, usecases.DosP4R, failFlipAfterAdd(func(op *driver.Op) bool { return hasKey(op, src) }))
	floodAndCheckBlocked(t, r, src)
}

// TestAbandonedNativeDosBlockIsRetried: the Go detector keeps its own
// blocked flag, which no rollback reaches. Ctx.Abandoned tells it that
// the run that staged the block was abandoned, at the block's prepare or
// at the flip after it, so it stages the block again.
func TestAbandonedNativeDosBlockIsRetried(t *testing.T) {
	const src = 0x0A000005
	isBlock := func(op *driver.Op) bool { return hasKey(op, src) }
	for _, tc := range []struct {
		name string
		fail func(op *driver.Op) bool
	}{
		{"prepare", failTimes(2, isBlock)},
		{"flip", failFlipAfterAdd(isBlock)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := buildAbandonRig(t, usecases.DosP4R, tc.fail)
			det := usecases.NewDosDetector(usecases.DosConfig{ThresholdBps: 1e9, MinDuration: 50 * time.Microsecond})
			if err := r.agent.RegisterNativeReaction("dos_react", det.React); err != nil {
				t.Fatal(err)
			}
			floodAndCheckBlocked(t, r, src)
		})
	}
}

// floodAndCheckBlocked floods the victim from src at 12 Gbps, far past
// the 1 Gbps bar, through an agent whose one abandoned iteration held
// src's block, and requires src in the blocklist afterwards.
func floodAndCheckBlocked(t *testing.T, r *abandonRig, src uint64) {
	t.Helper()
	if _, err := r.sw.AddEntry("route", rmt.Entry{
		Keys: []rmt.KeySpec{rmt.ExactKey(0xD0000001)}, Action: "route_pkt", Data: []uint64{1},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		r.sim.Schedule(time.Duration(i)*time.Microsecond, func() {
			pkt := r.plan.Prog.Schema.New()
			pkt.Size = 1500
			pkt.SetName("ipv4.srcAddr", src)
			pkt.SetName("ipv4.dstAddr", 0xD0000001)
			r.sw.Inject(0, pkt)
		})
	}
	r.run(t, 500*time.Microsecond)
	if st := r.agent.Stats(); st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1; events %v", st.Rollbacks, r.events)
	}
	bl, err := r.agent.Table("blocklist")
	if err != nil {
		t.Fatal(err)
	}
	if es := bl.Entries(); len(es) != 1 || es[0].Keys[0].Value != src || es[0].Action != "drop_pkt" {
		t.Fatalf("blocklist holds %+v, want the sender dropped", es)
	}
	if got := r.keys(usecases.EventDosBlock); len(got) == 0 || slices.ContainsFunc(got, func(k uint64) bool { return k != src }) {
		t.Errorf("dos.block events for %#x, want at least one, all for %#x", got, src)
	}
}

// TestAbandonedPrepareDropsLaterEvents: the second of a body's two adds
// fails its prepare in one iteration. The events staged before the
// failing slot were delivered, the one after it is not, and the retry
// sees the statics as they were before the abandoned run.
func TestAbandonedPrepareDropsLaterEvents(t *testing.T) {
	src := fmt.Sprintf(hitTableSrc, `reaction r() {
  static int n;
  n = n + 1;
  if (n > 3) return;
  emit("a", n, 0);
  t.addEntry(n, "hit", 1);
  emit("b", n, 0);
  t.addEntry(n + 100, "hit", 2);
  emit("c", n, 0);
}`)
	r := buildAbandonRig(t, src, failTimes(2, func(op *driver.Op) bool { return hasKey(op, 102) }))
	r.run(t, 200*time.Microsecond)
	if st := r.agent.Stats(); st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	for kind, want := range map[string][]uint64{"a": {1, 2, 2, 3}, "b": {1, 2, 2, 3}, "c": {1, 2, 3}} {
		if got := r.keys(kind); !slices.Equal(got, want) {
			t.Errorf("%s events carry n = %v, want %v", kind, got, want)
		}
	}
	th, err := r.agent.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for _, e := range th.Entries() {
		keys = append(keys, e.Keys[0].Value)
	}
	slices.Sort(keys)
	if want := []uint64{1, 2, 3, 101, 102, 103}; !slices.Equal(keys, want) {
		t.Errorf("t holds keys %v, want %v", keys, want)
	}
}

// TestChannelCleanIsPerReaction: one channel fault is seen by every
// reaction that asks channel_clean(), not only by the first to ask.
func TestChannelCleanIsPerReaction(t *testing.T) {
	src := fmt.Sprintf(hitTableSrc, `reaction r1() { emit("r1", channel_clean(), 0); }
reaction r2() { emit("r2", channel_clean(), 0); }`)
	var r *abandonRig
	ops := 0
	r = buildAbandonRig(t, src, func(*driver.Op) bool {
		if ops++; ops == 5 {
			r.tap.ExtraFaults++
		}
		return false
	})
	r.run(t, 100*time.Microsecond)
	for _, kind := range []string{"r1", "r2"} {
		got := r.keys(kind)
		unclean := 0
		for _, k := range got {
			unclean += int(1 - k)
		}
		if unclean != 1 {
			t.Errorf("%s saw channel_clean() = %v, want exactly one unclean window", kind, got)
		}
	}
}
