package ctlchan

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// warmWrites issues n register writes through r's client, which on a
// clean wire each sample the RegWrite round trip.
func warmWrites(t *testing.T, r *chanRig, n int) {
	t.Helper()
	err := r.do(t, time.Duration(n)*100*time.Microsecond, func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			if err := r.cli.RegWrite(p, "cnt", 0, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := r.cli.ChanStats(); cs.Retransmits != 0 {
		t.Fatalf("warm-up retransmitted: %+v", cs)
	}
}

// droppedFirstFrame runs ops as one call whose first frame the wire
// drops, and returns how long the call took.
func droppedFirstFrame(t *testing.T, r *chanRig, ops []driver.Op) time.Duration {
	t.Helper()
	var took time.Duration
	err := r.do(t, 10*time.Millisecond, func(p *sim.Proc) error {
		r.link.SetPartitioned(true)
		r.sim.Schedule(time.Nanosecond, func() { r.link.SetPartitioned(false) })
		start := p.Now()
		_, err := r.cli.DoRun(p, ops)
		took = p.Now().Sub(start)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return took
}

// TestWarmedKindResendsAtMeasuredRTO: once a kind's round trip has been
// measured, a dropped request of that kind is sent again at the smoothed
// RTT plus the larger of one fault-free RTT and the link's skew bound,
// not at the configured RTO.
func TestWarmedKindResendsAtMeasuredRTO(t *testing.T) {
	for _, skew := range []time.Duration{0, 3 * time.Microsecond} {
		t.Run(fmt.Sprintf("skew=%v", skew), func(t *testing.T) {
			// ReorderDelay with no Reorder probability only raises the
			// skew bound: every frame still takes the bare delay.
			r := buildChanRig(t, faults.LinkProfile{Name: "skew-bound", ReorderDelay: skew}, ClientOptions{})
			warmWrites(t, r, 100)
			rtt := r.cli.RTT() // the fake switch answers at once: every sample is one RTT
			resend := rtt + max(rtt, skew)
			if resend >= r.cli.opts.RTO {
				t.Fatalf("measured RTO %v is not below the configured %v", resend, r.cli.opts.RTO)
			}
			ops := []driver.Op{{Kind: driver.OpRegWrite, Table: "cnt", Val: 1}}
			if took, want := droppedFirstFrame(t, r, ops), resend+rtt; took != want {
				t.Fatalf("a dropped write answered after %v, want a resend at %v and its answer at %v (configured RTO %v)",
					took, resend, want, r.cli.opts.RTO)
			}
			if cs := r.cli.ChanStats(); cs.Retransmits != 1 {
				t.Fatalf("Retransmits = %d, want 1", cs.Retransmits)
			}
		})
	}
}

// TestRetransmittedCallIsNotSampled is Karn's rule: a response to a call
// that was sent more than once may answer any of its copies, so it is no
// round-trip sample, and the kind keeps the estimate it had before.
func TestRetransmittedCallIsNotSampled(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	warmWrites(t, r, 100)
	before := r.cli.rtt[driver.OpRegWrite]

	// The server holds this write well past the measured RTO, so the
	// client resends it, and the first response lands after the resend.
	r.fake.slow = 30 * time.Microsecond
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return r.cli.RegWrite(p, "cnt", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := r.cli.ChanStats(); cs.Retransmits == 0 {
		t.Fatalf("the held write was never resent: %+v", cs)
	}
	if after := r.cli.rtt[driver.OpRegWrite]; after != before {
		t.Fatalf("a retransmitted call moved the estimate from %+v to %+v", before, after)
	}

	r.fake.slow = 0
	rtt := r.cli.RTT()
	ops := []driver.Op{{Kind: driver.OpRegWrite, Table: "cnt", Val: 2}}
	if took, want := droppedFirstFrame(t, r, ops), 3*rtt; took != want {
		t.Fatalf("after the held write a dropped write answered after %v, want %v as before it", took, want)
	}
}

// TestRunKeepsConfiguredRTO: a run of n > 1 ops is not timed from the
// estimate of its first op's kind; its first resend comes at the
// configured RTO stretched by n-1 service allowances.
func TestRunKeepsConfiguredRTO(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	warmWrites(t, r, 100)
	const n = 4
	ops := make([]driver.Op, n)
	for i := range ops {
		ops[i] = driver.Op{Kind: driver.OpRegWrite, Table: "cnt", Idx: uint64(i), Val: 1}
	}
	want := r.cli.opts.RTO + (n-1)*rtoServiceAllowance + r.cli.RTT()
	if took := droppedFirstFrame(t, r, ops); took != want {
		t.Fatalf("a dropped run of %d answered after %v, want %v", n, took, want)
	}
}

// TestZeroVarianceRTTNeverRetransmits: a round trip that never varies
// drives the deviation to zero; the margin keeps the timer from falling
// due at the response's own instant, where it would run first.
func TestZeroVarianceRTTNeverRetransmits(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	warmWrites(t, r, 2000)
	if e := r.cli.rtt[driver.OpRegWrite]; e.rttvar != 0 || e.srtt != r.cli.RTT() {
		t.Fatalf("estimate %+v after 2000 identical round trips of %v", e, r.cli.RTT())
	}
	if cs := r.cli.ChanStats(); cs.Sent != 2000 {
		t.Fatalf("client %+v: want 2000 frames", cs)
	}
}

// rttKindsSrc has a 64-cell register, a 512-byte poll, and a table whose
// entry the test rewrites.
const rttKindsSrc = `
header_type h_t { fields { k : 8; o : 32; } }
header h_t hdr;
register r { width : 64; instance_count : 64; }
action set(v) { modify_field(hdr.o, v); }
table t { reads { hdr.k : exact; } actions { set; } size : 4; }
control ingress { apply(t); }
`

// TestRTTEstimatePerKind: a memoized table write and a 64-cell poll take
// round trips several times apart over a ctlplane session on a real
// driver. Kept per kind, neither estimate is pulled toward the other, so
// alternating them on a clean link never retransmits.
func TestRTTEstimatePerKind(t *testing.T) {
	plan, err := compiler.CompileSource(rttKindsSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	link := netsim.NewLink(s, time.Microsecond, faults.LinkNone(), 1)
	NewServer(s).Attach(link, netsim.LinkSideB, 1, 1, mustOpen(t, ctlplaneNew(s, drv), "agent", 1))
	cli := NewClient(s, link, netsim.LinkSideA, ClientOptions{Session: 1, Epoch: 1, Meta: drv})
	r := &chanRig{sim: s, link: link, cli: cli}

	const n = 2000
	var write, poll time.Duration
	err = r.do(t, time.Second, func(p *sim.Proc) error {
		h, err := cli.AddEntry(p, "t", rmt.Entry{Action: "set", Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Data: []uint64{0}})
		if err != nil {
			return err
		}
		cli.Memoize("t", h)
		reqs := []driver.ReadReq{{Reg: "r", Lo: 0, Hi: 63}}
		rows := [][]uint64{make([]uint64, 0, 64)}
		for i := 0; i < n; i++ {
			start := p.Now()
			if i%2 == 0 {
				err = cli.ModifyEntry(p, "t", h, "set", []uint64{uint64(i)})
				write = p.Now().Sub(start)
			} else {
				err = cli.BatchReadInto(p, reqs, rows)
				poll = p.Now().Sub(start)
			}
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if drv.Stats().MemoizedOps == 0 || poll < 3*write {
		t.Fatalf("write %v, poll %v, %+v: want memoized writes and polls several times longer", write, poll, drv.Stats())
	}
	if cs := cli.ChanStats(); cs.Retransmits != 0 || cs.Ops != n+1 {
		t.Fatalf("client %+v: want %d ops, none retransmitted", cs, n+1)
	}
}
