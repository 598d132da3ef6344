package ctlchan

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// fakeChan is an in-memory driver.Channel (a Do over the adapter) that
// records mutations — enough switch to assert at-most-once without an
// RMT pipeline under it.
type fakeChan struct {
	driver.Adapter
	regs     map[string]map[uint64]uint64
	writes   uint64 // mutating calls executed
	memoized uint64
	entries  []rmt.Entry
	call     *p4.ActionCall
	// failNext, when set, is returned (and cleared) by the next op.
	failNext error
	// slow is how long a RegWrite occupies the server before it applies.
	slow time.Duration
}

func newFakeChan() *fakeChan {
	f := &fakeChan{regs: map[string]map[uint64]uint64{}}
	f.Adapter = driver.NewAdapter(f.Do, nil)
	return f
}

func (f *fakeChan) Memoize(table string, handle rmt.EntryHandle) { f.memoized++ }

func (f *fakeChan) Do(p *sim.Proc, op *driver.Op) error {
	if err := f.failNext; err != nil {
		f.failNext = nil
		return err
	}
	switch op.Kind {
	case driver.OpAddEntry:
		// Like every real channel, copy what is kept: the caller reuses
		// the op's slices as soon as the call returns.
		op.NewHandle = rmt.EntryHandle(len(f.entries) + 1)
		f.entries = append(f.entries, rmt.Entry{
			Handle: op.NewHandle, Priority: op.Priority, Action: op.Action,
			Keys: append([]rmt.KeySpec(nil), op.Keys...), Data: append([]uint64(nil), op.Data...),
		})
	case driver.OpSetDefault:
		f.call = nil
		if op.Call != nil {
			f.call = &p4.ActionCall{Action: op.Call.Action, Data: append([]uint64(nil), op.Call.Data...)}
		}
	case driver.OpRegWrite:
		if f.slow > 0 {
			p.Sleep(f.slow)
		}
		if f.regs[op.Table] == nil {
			f.regs[op.Table] = map[uint64]uint64{}
		}
		f.regs[op.Table][op.Idx] = op.Val
	case driver.OpRegRead:
		op.Val = f.regs[op.Table][op.Idx]
	case driver.OpRead:
		for i, rq := range op.Reqs {
			row := op.Rows[i][:0]
			for c := rq.Lo; c <= rq.Hi; c++ {
				row = append(row, f.regs[rq.Reg][c])
			}
			op.Rows[i] = row
		}
	case driver.OpReadEntries:
		op.Entries = f.entries
	case driver.OpReadDefault:
		op.Call = f.call
	}
	if op.Kind.Mutating() {
		f.writes++
	}
	return nil
}

// ---- Client/server harness ----

type chanRig struct {
	sim  *sim.Simulator
	link *netsim.Link
	fake *fakeChan
	srv  *Server
	cli  *Client
}

func buildChanRig(t *testing.T, prof faults.LinkProfile, opts ClientOptions) *chanRig {
	t.Helper()
	s := sim.New(1)
	link := netsim.NewLink(s, 500*time.Nanosecond, prof, 7)
	fake := newFakeChan()
	srv := NewServer(s)
	if opts.Session == 0 {
		opts.Session = 1
	}
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	srv.Attach(link, netsim.LinkSideB, opts.Session, opts.Epoch, fake)
	cli := NewClient(s, link, netsim.LinkSideA, opts)
	return &chanRig{sim: s, link: link, fake: fake, srv: srv, cli: cli}
}

// buildElectedRig is buildChanRig over a clean link with the fake behind
// a ctlplane service, the client's session attached as its primary at
// election id 1, so the service's election is the fence.
func buildElectedRig(t *testing.T) (*chanRig, *ctlplane.Service) {
	t.Helper()
	s := sim.New(1)
	link := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 7)
	fake := newFakeChan()
	svc := ctlplane.New(s, fake, ctlplane.Options{})
	srv := NewServer(s)
	srv.Attach(link, netsim.LinkSideB, 1, 1, mustOpen(t, svc, "primary", 1))
	cli := NewClient(s, link, netsim.LinkSideA, ClientOptions{Session: 1, Epoch: 1})
	return &chanRig{sim: s, link: link, fake: fake, srv: srv, cli: cli}, svc
}

// do runs fn on a spawned proc and returns its error after the sim runs
// to completion of the proc (bounded by d).
func (r *chanRig) do(t *testing.T, d time.Duration, fn func(p *sim.Proc) error) error {
	t.Helper()
	var err error
	done := false
	r.sim.Spawn("test-op", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	r.sim.RunFor(d)
	if !done {
		t.Fatal("operation did not complete in time")
	}
	return err
}

func TestClientServerCleanOps(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		h, err := r.cli.AddEntry(p, "t1", rmt.Entry{Action: "set1", Keys: []rmt.KeySpec{{Value: 7}}, Data: []uint64{1}})
		if err != nil {
			return err
		}
		if h != 1 {
			return fmt.Errorf("handle = %d, want 1", h)
		}
		if err := r.cli.ModifyEntry(p, "t1", h, "set1", []uint64{2}); err != nil {
			return err
		}
		if err := r.cli.SetDefaultAction(p, "t1", &p4.ActionCall{Action: "drop"}); err != nil {
			return err
		}
		if err := r.cli.SetHashSeed(p, "ecmp", 99); err != nil {
			return err
		}
		if err := r.cli.RegWrite(p, "cnt", 3, 41); err != nil {
			return err
		}
		v, err := r.cli.RegRead(p, "cnt", 3)
		if err != nil {
			return err
		}
		if v != 41 {
			return fmt.Errorf("RegRead = %d, want 41", v)
		}
		vals, err := r.cli.BatchRead(p, []driver.ReadReq{{Reg: "cnt", Lo: 2, Hi: 4}})
		if err != nil {
			return err
		}
		if len(vals) != 1 || len(vals[0]) != 3 || vals[0][1] != 41 {
			return fmt.Errorf("BatchRead = %v", vals)
		}
		uv, err := r.cli.UnbatchedRead(p, []driver.ReadReq{{Reg: "cnt", Lo: 3, Hi: 3}, {Reg: "cnt", Lo: 0, Hi: 0}})
		if err != nil {
			return err
		}
		if len(uv) != 2 || uv[0][0] != 41 {
			return fmt.Errorf("UnbatchedRead = %v", uv)
		}
		ents, err := r.cli.ReadEntries(p, "t1")
		if err != nil {
			return err
		}
		if len(ents) != 1 || ents[0].Keys[0].Value != 7 {
			return fmt.Errorf("ReadEntries = %+v", ents)
		}
		call, err := r.cli.ReadDefaultAction(p, "t1")
		if err != nil {
			return err
		}
		if call == nil || call.Action != "drop" {
			return fmt.Errorf("ReadDefaultAction = %+v", call)
		}
		if err := r.cli.DeleteEntry(p, "t1", h); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.cli.Memoize("t1", 1)
	r.sim.RunFor(10 * time.Microsecond)
	if r.fake.memoized != 1 {
		t.Fatalf("memoize datagram not executed: %d", r.fake.memoized)
	}
	cs, ss := r.cli.ChanStats(), r.srv.Stats()
	if cs.Retransmits != 0 || cs.Timeouts != 0 || ss.DedupHits != 0 {
		t.Fatalf("clean link produced recovery traffic: client %+v server %+v", cs, ss)
	}
	if ss.MutationsExecuted != 6 {
		t.Fatalf("MutationsExecuted = %d, want 6", ss.MutationsExecuted)
	}
	if r.cli.degraded || r.cli.fenced {
		t.Fatal("clean link left client degraded/fenced")
	}
}

// TestAtMostOnceUnderLossAndDup is the idempotency property: across a
// wire that loses and duplicates aggressively, every mutation the
// client confirms executed exactly once switch-side.
func TestAtMostOnceUnderLossAndDup(t *testing.T) {
	prof := faults.LinkProfile{Name: "hostile", Loss: 0.25, Dup: 0.25, DupDelay: 2 * time.Microsecond}
	r := buildChanRig(t, prof, ClientOptions{OpDeadline: 10 * time.Millisecond})
	const n = 200
	err := r.do(t, time.Second, func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			if err := r.cli.RegWrite(p, "cnt", uint64(i%8), uint64(i)); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, cs := r.srv.Stats(), r.cli.ChanStats()
	if r.fake.writes != n || ss.MutationsExecuted != n {
		t.Fatalf("executed %d/%d mutations for %d confirmed ops (dedup leak)", r.fake.writes, ss.MutationsExecuted, n)
	}
	if cs.Retransmits == 0 || ss.DedupHits == 0 {
		t.Fatalf("fault paths never exercised: client %+v server %+v", cs, ss)
	}
	// The floor GC must be keeping the response cache bounded: with
	// sequential ops, at most the in-flight op plus ghosts remain.
	if len(r.srv.sessions[1].cache) > 4 {
		t.Fatalf("response cache not garbage-collected: %d entries", len(r.srv.sessions[1].cache))
	}
}

// TestSecondCallerWaitsItsTurn: the channel is stop-and-wait. A second
// process calling into a client whose call is outstanding parks, its
// frame is not sent before the first call resolves, both complete, and
// the server executes each mutation once.
func TestSecondCallerWaitsItsTurn(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	r.fake.slow = 10 * time.Microsecond
	var done [2]sim.Time
	for i := range done {
		r.sim.Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
			if err := r.cli.RegWrite(p, "cnt", uint64(i), 1); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			done[i] = p.Now()
		})
	}
	// Half-way through the first call the second caller has been counted
	// and parked, and has put nothing on the wire.
	r.sim.RunFor(5 * time.Microsecond)
	if cs := r.cli.ChanStats(); cs.Ops != 2 || cs.Sent != 1 || cs.WindowWaits != 1 {
		t.Fatalf("with the first call outstanding: %+v; want 2 ops, 1 frame sent, 1 waiter", cs)
	}
	r.sim.RunFor(time.Millisecond)
	if done[0] == 0 || done[1] == 0 {
		t.Fatalf("calls returned at %v: one never completed", done)
	}
	if gap := done[1].Sub(done[0]); gap < r.cli.RTT()+r.fake.slow {
		t.Fatalf("second call returned %v after the first; a full round trip takes %v", gap, r.cli.RTT()+r.fake.slow)
	}
	cs, ss := r.cli.ChanStats(), r.srv.Stats()
	if cs.Sent != 2 || cs.WindowWaits != 1 || r.fake.writes != 2 || ss.MutationsExecuted != 2 {
		t.Fatalf("client %+v, server %+v, %d writes applied; want 2 frames, 1 waiter, each mutation once", cs, ss, r.fake.writes)
	}
}

// TestReadDeadlineFailsFast: a read op on a dead link reports
// ErrChannelDegraded at its deadline, without the mutation quarantine.
func TestReadDeadlineFailsFast(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{OpDeadline: 100 * time.Microsecond})
	r.link.SetPartitioned(true)
	var failedAt sim.Time
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		_, err := r.cli.RegRead(p, "cnt", 0)
		failedAt = r.sim.Now()
		return err
	})
	if !errors.Is(err, driver.ErrChannelDegraded) {
		t.Fatalf("err = %v, want ErrChannelDegraded", err)
	}
	if failedAt < sim.Time(100*time.Microsecond) {
		t.Fatalf("failed at %v, before the deadline", failedAt)
	}
	if !r.cli.degraded {
		t.Fatal("client not marked degraded")
	}
	if r.cli.ChanStats().Timeouts != 1 {
		t.Fatalf("Timeouts = %d", r.cli.ChanStats().Timeouts)
	}
}

// TestMutationQuarantineOutlivesMaxDelay: an abandoned mutation must not
// be reported until every copy the client ever transmitted is off the
// wire — failure time >= last transmit + link MaxDelay — nor before its
// deadline.
func TestMutationQuarantineOutlivesMaxDelay(t *testing.T) {
	// High skew so the quarantine is visibly longer than the deadline
	// alone: MaxDelay = 500ns + (10+10+10)µs. A 2µs RTO caps the gap
	// between the last transmit and the timer that finds the deadline
	// passed at RTO plus the 8x RTO backoff ceiling, 18µs, so that timer
	// always fires inside the quarantine.
	prof := faults.LinkProfile{
		Name: "skewed", Jitter: 10 * time.Microsecond,
		Reorder: 0.5, ReorderDelay: 10 * time.Microsecond,
		Dup: 0.5, DupDelay: 10 * time.Microsecond,
	}
	r := buildChanRig(t, prof, ClientOptions{RTO: 2 * time.Microsecond, OpDeadline: 50 * time.Microsecond})
	r.link.SetPartitioned(true)
	// A watcher samples the call every 100ns while it is outstanding:
	// its last transmit and deadline (release clears both once the
	// caller returns), and abandonedAt, the first sample after the client
	// counted the deadline timeout — no earlier than the timer that gave
	// the call up.
	var abandonedAt, lastTx, deadline sim.Time
	finished := false
	r.sim.Spawn("watch", func(p *sim.Proc) {
		for !finished {
			if cl := r.cli.cur; cl != nil {
				lastTx, deadline = cl.lastTx, cl.deadline
			}
			if abandonedAt == 0 && r.cli.ChanStats().Timeouts > 0 {
				abandonedAt = p.Now()
			}
			p.Sleep(100 * time.Nanosecond)
		}
	})
	var failedAt sim.Time
	err := r.do(t, 10*time.Millisecond, func(p *sim.Proc) error {
		werr := r.cli.RegWrite(p, "cnt", 0, 1)
		failedAt, finished = r.sim.Now(), true
		return werr
	})
	if !errors.Is(err, driver.ErrChannelDegraded) {
		t.Fatalf("err = %v, want ErrChannelDegraded", err)
	}
	if quarantineEnd := lastTx.Add(r.link.MaxDelay()); failedAt < quarantineEnd {
		t.Fatalf("mutation failure reported at %v, before last transmit %v + MaxDelay %v — quarantine skipped",
			failedAt, lastTx, r.link.MaxDelay())
	}
	if failedAt < deadline {
		t.Fatalf("mutation failure reported at %v, before its deadline %v", failedAt, deadline)
	}
	if abandonedAt == 0 || abandonedAt >= failedAt {
		t.Fatalf("abandoned at %v, failed at %v: the quarantine wait is empty, so the test proves nothing", abandonedAt, failedAt)
	}
}

// TestGhostMutationStaleRejected: a duplicate copy of a mutation that
// surfaces after the client resolved it (ack floor advanced past its
// seq) is refused, not re-executed.
func TestGhostMutationStaleRejected(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		if err := r.cli.RegWrite(p, "cnt", 0, 1); err != nil {
			return err
		}
		// Advance the floor past seq 1 with a second op.
		return r.cli.RegWrite(p, "cnt", 0, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	writesBefore := r.fake.writes
	// Replay a ghost of seq 1 — as the network would after a dup held it.
	ghost := appendRequest(nil, &request{
		Kind: frameRequest, Session: 1, Epoch: 1, Seq: 1, Ack: 3,
		ops: []driver.Op{{Kind: driver.OpRegWrite, Table: "cnt", Idx: 0, Val: 1}},
	})
	r.link.Send(netsim.LinkSideA, ghost)
	r.sim.RunFor(100 * time.Microsecond)
	if r.fake.writes != writesBefore {
		t.Fatal("ghost mutation re-executed — lost-update hazard")
	}
	if ss := r.srv.Stats(); ss.StaleWrites != 1 {
		t.Fatalf("StaleWrites = %d, want 1", ss.StaleWrites)
	}
	if v := r.fake.regs["cnt"][0]; v != 2 {
		t.Fatalf("register = %d, want 2 (ghost must not roll back)", v)
	}
}

// TestEpochFencing: once a successor wins the ctlplane election, the old
// primary's mutations are refused and its client latches fenced — while
// its reads still work, so a demoted agent can observe state on its way
// out.
func TestEpochFencing(t *testing.T) {
	r, svc := buildElectedRig(t)
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return r.cli.RegWrite(p, "cnt", 0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}

	// A successor wins the election with id 2 and attaches on its own link.
	link2 := netsim.NewLink(r.sim, 500*time.Nanosecond, faults.LinkNone(), 8)
	r.srv.Attach(link2, netsim.LinkSideB, 2, 2, mustOpen(t, svc, "successor", 2))
	cli2 := NewClient(r.sim, link2, netsim.LinkSideA, ClientOptions{Session: 2, Epoch: 2})

	err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return r.cli.RegWrite(p, "cnt", 0, 99) // stale primary writes
	})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch write: err = %v, want ErrFenced", err)
	}
	if !r.cli.fenced {
		t.Fatal("client did not latch fenced")
	}
	if v := r.fake.regs["cnt"][0]; v != 1 {
		t.Fatalf("fenced write applied: register = %d", v)
	}
	if fw := r.srv.Stats().FencedWrites; fw != 1 {
		t.Fatalf("FencedWrites = %d, want 1", fw)
	}

	// Subsequent mutations fail fast, without touching the wire.
	sentBefore := r.cli.ChanStats().Sent
	err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return r.cli.RegWrite(p, "cnt", 0, 100)
	})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("post-fence write: err = %v, want ErrFenced", err)
	}
	if r.cli.ChanStats().Sent != sentBefore {
		t.Fatal("fenced mutation still hit the wire")
	}

	// Reads from the fenced session still work.
	err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
		v, rerr := r.cli.RegRead(p, "cnt", 0)
		if rerr == nil && v != 1 {
			return fmt.Errorf("read %d, want 1", v)
		}
		return rerr
	})
	if err != nil {
		t.Fatalf("fenced session read: %v", err)
	}

	// The successor writes freely.
	err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return cli2.RegWrite(p, "cnt", 0, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.fake.regs["cnt"][0]; v != 7 {
		t.Fatalf("successor write lost: register = %d", v)
	}
}

// TestTransientAndErrorStatusMapping: inner-channel failures travel the
// wire and come back as the same error classes the in-process stack
// produces.
func TestTransientAndErrorStatusMapping(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{})
	r.fake.failNext = fmt.Errorf("injected: %w", driver.ErrTransient)
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return r.cli.RegWrite(p, "cnt", 0, 1)
	})
	if !driver.IsTransient(err) {
		t.Fatalf("transient not preserved across the wire: %v", err)
	}
	if r.fake.writes != 0 {
		t.Fatal("failed op counted as a write")
	}
	r.fake.failNext = errors.New("unknown register \"zap\"")
	err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
		return r.cli.RegWrite(p, "zap", 0, 1)
	})
	if err == nil || driver.IsTransient(err) || errors.Is(err, driver.ErrChannelDegraded) {
		t.Fatalf("fatal remote error misclassified: %v", err)
	}
}

// TestDegradedClearsOnHeal: the degraded latch drops on the next
// response after a partition heals — including a late response to an op
// nobody is waiting on.
func TestDegradedClearsOnHeal(t *testing.T) {
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{OpDeadline: 50 * time.Microsecond})
	r.link.SetPartitioned(true)
	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		_, rerr := r.cli.RegRead(p, "cnt", 0)
		return rerr
	})
	if !errors.Is(err, driver.ErrChannelDegraded) || !r.cli.degraded {
		t.Fatalf("setup: err=%v degraded=%v", err, r.cli.degraded)
	}
	r.link.SetPartitioned(false)
	err = r.do(t, time.Millisecond, func(p *sim.Proc) error {
		_, rerr := r.cli.RegRead(p, "cnt", 0)
		return rerr
	})
	if err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
	if r.cli.degraded {
		t.Fatal("degraded latch did not clear on heal")
	}
}

// TestDegradedCauseClassification pins the cause a coordinator reads
// off a degraded channel: partition while the wire is cut, peer-dead
// when the server endpoint is marked crashed, loss when the wire looks
// up but frames vanish — and CauseNone whenever the channel is healthy.
func TestDegradedCauseClassification(t *testing.T) {
	expire := func(r *chanRig) error {
		return r.do(t, time.Millisecond, func(p *sim.Proc) error {
			_, rerr := r.cli.RegRead(p, "cnt", 0)
			return rerr
		})
	}

	// Partition.
	r := buildChanRig(t, faults.LinkNone(), ClientOptions{OpDeadline: 50 * time.Microsecond})
	if got := r.cli.DegradedCause(); got != CauseNone {
		t.Fatalf("healthy channel cause = %v, want none", got)
	}
	r.link.SetPartitioned(true)
	if err := expire(r); !errors.Is(err, driver.ErrChannelDegraded) {
		t.Fatalf("partition expiry err = %v", err)
	}
	if got := r.cli.DegradedCause(); got != CausePartition {
		t.Fatalf("cause = %v, want partition", got)
	}

	// Peer dead wins over partition: the endpoint crashed, the wire state
	// is secondary.
	r = buildChanRig(t, faults.LinkNone(), ClientOptions{OpDeadline: 50 * time.Microsecond})
	r.link.SetPeerDown(netsim.LinkSideB, true)
	if err := expire(r); !errors.Is(err, driver.ErrChannelDegraded) {
		t.Fatalf("peer-dead expiry err = %v", err)
	}
	if got := r.cli.DegradedCause(); got != CausePeerDead {
		t.Fatalf("cause = %v, want peer-dead", got)
	}

	// Pure loss: wire up, every frame eaten.
	r = buildChanRig(t, faults.LinkProfile{Name: "black", Loss: 1}, ClientOptions{OpDeadline: 50 * time.Microsecond})
	if err := expire(r); !errors.Is(err, driver.ErrChannelDegraded) {
		t.Fatalf("loss expiry err = %v", err)
	}
	if got := r.cli.DegradedCause(); got != CauseLoss {
		t.Fatalf("cause = %v, want loss", got)
	}
	cs := r.cli.ChanStats()
	if cs.DegradedLoss != 1 || cs.LastDegradedCause != CauseLoss {
		t.Fatalf("stats = %+v, want loss counted and latched", cs)
	}

	// Recovery clears the live cause but keeps the post-mortem latch.
	r.link.SetProfile(faults.LinkNone())
	if err := expire(r); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
	if got := r.cli.DegradedCause(); got != CauseNone {
		t.Fatalf("post-heal cause = %v, want none", got)
	}
	if cs := r.cli.ChanStats(); cs.LastDegradedCause != CauseLoss {
		t.Fatalf("post-mortem latch lost: %+v", cs)
	}
}

// TestEmptyReadIsNoOp: a read of no ranges is a no-op at every layer —
// decided once, in the adapter — so it costs no virtual time, no frame,
// no queue slot and no fault draw, whichever layer it enters at.
func TestEmptyReadIsNoOp(t *testing.T) {
	s := sim.New(1)
	prog := p4.NewProgram("empty-read")
	prog.DefineStandardMetadata()
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	inj := faults.Wrap(s, drv, faults.TransientErrors(), 3)
	svc := ctlplane.New(s, inj, ctlplane.Options{})
	sess, err := svc.Open(ctlplane.SessionOptions{Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 7)
	NewServer(s).Attach(link, netsim.LinkSideB, 1, 1, sess)
	cli := NewClient(s, link, netsim.LinkSideA, ClientOptions{Session: 1, Epoch: 1})

	layers := []struct {
		name string
		ch   driver.Channel
	}{{"Driver", drv}, {"Injector", inj}, {"Session", sess}, {"Client", cli}}
	s.Spawn("reader", func(p *sim.Proc) {
		for _, l := range layers {
			if rows, err := l.ch.BatchRead(p, nil); rows != nil || err != nil {
				t.Errorf("%s.BatchRead(nil) = %v, %v", l.name, rows, err)
			}
			if rows, err := l.ch.UnbatchedRead(p, []driver.ReadReq{}); rows != nil || err != nil {
				t.Errorf("%s.UnbatchedRead(empty) = %v, %v", l.name, rows, err)
			}
			if err := l.ch.(driver.RangeReader).BatchReadInto(p, nil, nil); err != nil {
				t.Errorf("%s.BatchReadInto(nil) = %v", l.name, err)
			}
		}
		if now := p.Now(); now != 0 {
			t.Errorf("empty reads took %v of virtual time", now)
		}
	})
	s.Run()
	if n := cli.ChanStats().Sent + link.Stats().Sent; n != 0 {
		t.Errorf("empty reads sent %d frames", n)
	}
	if n := inj.FaultStats().Ops; n != 0 {
		t.Errorf("empty reads entered the injector %d times", n)
	}
	if n := sess.SessionStats().Submitted; n != 0 {
		t.Errorf("empty reads took %d queue slots", n)
	}
	if st := drv.Stats(); st.RegReads != 0 || st.Busy != 0 {
		t.Errorf("empty reads reached the driver: %+v", st)
	}
}
