package ctlchan

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// buildCutRig is buildChanRig with a check.Tap between the server and
// the fake switch.
func buildCutRig(t *testing.T, prof faults.LinkProfile, opts ClientOptions) (*chanRig, *check.Tap) {
	t.Helper()
	s := sim.New(1)
	link := netsim.NewLink(s, 500*time.Nanosecond, prof, 7)
	fake := newFakeChan()
	tap := check.NewTap(fake)
	srv := NewServer(s)
	srv.Attach(link, netsim.LinkSideB, 1, 1, tap)
	opts.Session, opts.Epoch = 1, 1
	cli := NewClient(s, link, netsim.LinkSideA, opts)
	return &chanRig{sim: s, link: link, fake: fake, srv: srv, cli: cli}, tap
}

// addRun is a run of n entry installs, keyed 0..n-1.
func addRun(n int) []driver.Op {
	ops := make([]driver.Op, n)
	for i := range ops {
		ops[i] = driver.Op{Kind: driver.OpAddEntry, Table: "t", Action: "a",
			Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}}
	}
	return ops
}

// TestRunCutSweep cuts a run at every k in [0, n] three ways — op k fails
// transiently, op k fails permanently, or op k fails and the response is
// lost, forcing the degraded path — and checks that exactly the prefix
// before k took effect, that the client reports it (and hands each of its
// ops its result), and that the counters count ops, not frames.
func TestRunCutSweep(t *testing.T) {
	const n = 5
	transient := fmt.Errorf("busy: %w", driver.ErrTransient)
	permanent := errors.New("no such table")
	for _, mode := range []string{"transient", "permanent", "lost-response"} {
		for k := 0; k <= n; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", mode, k), func(t *testing.T) {
				r, tap := buildCutRig(t, faults.LinkNone(), ClientOptions{OpDeadline: 100 * time.Microsecond})
				// The op numbered cut first calls onCut and then, when
				// cutErr is set, fails with it instead of executing.
				cut, lost := k, false
				var cutErr error
				switch mode {
				case "transient":
					cutErr = transient
				case "permanent":
					cutErr = permanent
				case "lost-response":
					// Cut at k and lose the answer; with no op to cut, run
					// to the end and lose the answer to that.
					cutErr, lost = transient, true
					if k == n {
						cut, cutErr = n-1, nil
					}
				}
				tap.Before = func(_ *sim.Proc, i int, _ *driver.Op) error {
					if i != cut {
						return nil
					}
					if lost {
						r.link.SetPartitioned(true)
					}
					return cutErr
				}
				ops := addRun(n)
				var applied int
				err := r.do(t, 20*time.Millisecond, func(p *sim.Proc) error {
					var err error
					applied, err = r.cli.DoRun(p, ops)
					return err
				})

				wantApplied := k
				switch {
				case mode == "lost-response":
					wantApplied = 0
					if !errors.Is(err, driver.ErrChannelDegraded) {
						t.Fatalf("err = %v, want ErrChannelDegraded", err)
					}
				case k == n:
					if err != nil {
						t.Fatalf("uncut run: %v", err)
					}
				case mode == "transient":
					if !driver.IsTransient(err) {
						t.Fatalf("err = %v, want transient", err)
					}
				default:
					if err == nil || driver.IsTransient(err) || errors.Is(err, driver.ErrChannelDegraded) {
						t.Fatalf("err = %v, want a permanent error", err)
					}
				}
				if applied != wantApplied {
					t.Fatalf("applied = %d, want %d", applied, wantApplied)
				}
				for i := range ops {
					if got := ops[i].NewHandle != 0; got != (i < applied) {
						t.Fatalf("op %d: result delivered = %v with %d applied", i, got, applied)
					}
				}
				ss, cs := r.srv.Stats(), r.cli.ChanStats()
				if ss.MutationsExecuted != uint64(k) || r.fake.writes != uint64(k) {
					t.Fatalf("server executed %d mutations (%d reached the switch), want the prefix of %d",
						ss.MutationsExecuted, r.fake.writes, k)
				}
				if cs.Ops != n {
					t.Fatalf("ClientStats.Ops = %d, want %d: it counts ops, not frames", cs.Ops, n)
				}
				if mode != "lost-response" {
					if cs.Sent != 1 || cs.Retransmits != 0 {
						t.Fatalf("client %+v: want the run in one frame, never retransmitted", cs)
					}
					return
				}

				// The degraded path: once the wire heals, an audit read
				// shows exactly the prefix.
				r.link.SetPartitioned(false)
				err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
					entries, err := r.cli.ReadEntries(p, "t")
					if err != nil {
						return err
					}
					if len(entries) != k {
						return fmt.Errorf("audit found %d entries, want the prefix of %d", len(entries), k)
					}
					for i, e := range entries {
						if e.Keys[0].Value != uint64(i) {
							return fmt.Errorf("audit entry %d has key %d", i, e.Keys[0].Value)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRunRetransmitExecutesOnce: over a link that duplicates every frame,
// each copy of a run's request after the first is answered from the
// dedup cache, so every op of the run executes once.
func TestRunRetransmitExecutesOnce(t *testing.T) {
	prof := faults.LinkProfile{Name: "dup-all", Dup: 1, DupDelay: 5 * time.Microsecond}
	r := buildChanRig(t, prof, ClientOptions{})
	const n = 7
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		for i := 0; i < 3; i++ {
			if applied, err := r.cli.DoRun(p, addRun(n)); err != nil || applied != n {
				return fmt.Errorf("run %d: applied %d: %v", i, applied, err)
			}
			p.Sleep(20 * time.Microsecond) // let the duplicates land
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, cs := r.srv.Stats(), r.cli.ChanStats()
	if ss.DedupHits != 3 {
		t.Fatalf("DedupHits = %d, want one per duplicated run", ss.DedupHits)
	}
	if ss.MutationsExecuted != 3*n || r.fake.writes != 3*n || ss.Executed != 3*n {
		t.Fatalf("server %+v, %d writes: want each of %d ops executed once", ss, r.fake.writes, 3*n)
	}
	if cs.Ops != 3*n || cs.Sent != 3 {
		t.Fatalf("client %+v: want %d ops in 3 frames", cs, 3*n)
	}
}

// TestRunFencedAndStale: a run from a primary that lost the election
// executes none of its writes; a ghost of a run below the floor, which
// the stale floor judges as a whole, executes none either; each counts
// every mutation it refused.
func TestRunFencedAndStale(t *testing.T) {
	const n = 4
	r, svc := buildElectedRig(t)
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		for i := 0; i < 2; i++ {
			if _, err := r.cli.DoRun(p, addRun(n)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A ghost of the first run (seq 1) surfaces after the floor passed it.
	ghost := &request{Kind: frameRequest, Session: 1, Epoch: 1, Seq: 1, Ack: 3, ops: addRun(n)}
	r.link.Send(netsim.LinkSideA, appendRequest(nil, ghost))
	r.sim.RunFor(100 * time.Microsecond)
	if ss := r.srv.Stats(); ss.StaleWrites != n || ss.MutationsExecuted != 2*n {
		t.Fatalf("server %+v: want the ghost's %d mutations refused, none executed", ss, n)
	}

	// A successor takes over at election id 2; the old client's next run
	// is fenced whole, and the one after is refused without a frame.
	link2 := netsim.NewLink(r.sim, 500*time.Nanosecond, faults.LinkNone(), 8)
	r.srv.Attach(link2, netsim.LinkSideB, 2, 2, mustOpen(t, svc, "successor", 2))
	cli2 := NewClient(r.sim, link2, netsim.LinkSideA, ClientOptions{Session: 2, Epoch: 2})
	if err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		_, err := cli2.DoRun(p, addRun(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var applied [2]int
	var errs [2]error
	r.do(t, time.Millisecond, func(p *sim.Proc) error {
		for i := range errs {
			applied[i], errs[i] = r.cli.DoRun(p, addRun(n))
		}
		return nil
	})
	for i, err := range errs {
		if !errors.Is(err, ErrFenced) || applied[i] != 0 {
			t.Fatalf("fenced run %d: applied %d, err %v; want 0 and ErrFenced", i, applied[i], err)
		}
	}
	ss, cs := r.srv.Stats(), r.cli.ChanStats()
	if ss.FencedWrites != n || ss.MutationsExecuted != 2*n+1 {
		t.Fatalf("server %+v: want %d fenced writes and none of them executed", ss, n)
	}
	if cs.FencedOps != 2*n || cs.Sent != 3 {
		t.Fatalf("client %+v: want %d fenced ops and the second run never sent", cs, 2*n)
	}
}

// TestRunAllocatesNothing: once warm, a run of one and a run of seven
// through client, link and server allocate nothing.
func TestRunAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 7} {
		r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
		ops := make([]driver.Op, n)
		for i := range ops {
			ops[i] = driver.Op{Kind: driver.OpRegWrite, Table: "cnt", Idx: uint64(i), Val: 1}
		}
		var err error
		r.sim.Spawn("caller", func(p *sim.Proc) {
			for {
				_, err = r.cli.DoRun(p, ops)
				r.sim.Stop()
				p.Yield()
			}
		})
		step := func() {
			r.sim.Run()
			if err != nil {
				t.Fatal(err)
			}
		}
		// Each run leaves its cancelled retransmit timer in the event
		// queue until the timer's time passes, so the event pool is warm
		// only once runs have covered a whole RTO.
		for i := 0; i < 200; i++ {
			step()
		}
		if a := testing.AllocsPerRun(100, step); a != 0 {
			t.Errorf("a warm run of %d allocates %v times", n, a)
		}
	}
}
