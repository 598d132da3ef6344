package ctlchan

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestDedupReplayIsByteIdentical: the server encodes a response once,
// into a buffer its dedup cache owns, and a retransmit served any number
// of operations later gets those same bytes — although every scratch
// structure the first reply was built from (decoded request, result
// rows, link frames) has been reused many times since.
func TestDedupReplayIsByteIdentical(t *testing.T) {
	s := sim.New(1)
	link := netsim.NewLink(s, 500*time.Nanosecond, faults.LinkNone(), 7)
	fake := newFakeChan()
	srv := NewServer(s)
	srv.Attach(link, netsim.LinkSideB, 1, 1, fake)
	replies := map[uint64][][]byte{}
	link.SetRecv(netsim.LinkSideA, func(msg []byte) {
		seq, ok := responseSeq(msg)
		if !ok {
			// Runs on whichever goroutine holds control, possibly the
			// server's process: no t.Fatal here.
			t.Errorf("server sent a non-response frame %x", msg)
			return
		}
		replies[seq] = append(replies[seq], append([]byte(nil), msg...))
	})
	fake.regs["r"] = map[uint64]uint64{0: 10, 1: 11, 2: 12, 3: 13}

	// The client's floor stays at 1 throughout (Ack: 1), so seq 1 stays
	// cached while later operations churn the server's scratch.
	send := func(seq uint64, reqs []driver.ReadReq) {
		link.Send(netsim.LinkSideA, appendRequest(nil, &request{
			Kind: frameRequest, Session: 1, Epoch: 1, Seq: seq, Ack: 1,
			ops: []driver.Op{{Kind: driver.OpRead, Reqs: reqs}},
		}))
		s.RunFor(10 * time.Microsecond)
	}
	first := []driver.ReadReq{{Reg: "r", Lo: 0, Hi: 3}}
	send(1, first)
	const n = 50
	for i := uint64(0); i < n; i++ {
		// Differently shaped reads: more rows, longer rows, other values.
		fake.regs["r"][i%4] = 7000 + i
		send(2+i, []driver.ReadReq{{Reg: "r", Lo: 0, Hi: 3 + i%5}, {Reg: "r", Lo: 1, Hi: 2}, {Reg: "q", Lo: 0, Hi: i % 9}})
	}
	send(1, first) // the retransmit

	if got := srv.Stats(); got.DedupHits != 1 || got.Executed != n+1 {
		t.Fatalf("stats = %+v, want 1 dedup hit and %d executions", got, n+1)
	}
	if len(replies[1]) != 2 {
		t.Fatalf("seq 1 answered %d times, want 2", len(replies[1]))
	}
	if !bytes.Equal(replies[1][0], replies[1][1]) {
		t.Fatalf("replay differs from the first reply:\n first  %x\n replay %x", replies[1][0], replies[1][1])
	}
	var r response
	if err := decodeResponse(&r, replies[1][1], nil); err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 1 || len(r.Results[0].Vals) != 1 || fmt.Sprint(r.Results[0].Vals[0]) != "[10 11 12 13]" {
		t.Fatalf("replayed results = %+v, want the values read the first time", r.Results)
	}
}

// TestBatchReadIntoLandsInCallerRows: through client, link and server a
// batched read refills the caller's rows in place, and a duplicate of
// the response arriving after the call returned never writes them again.
func TestBatchReadIntoLandsInCallerRows(t *testing.T) {
	prof := faults.LinkProfile{Name: "dup-all", Dup: 1, DupDelay: 5 * time.Microsecond}
	r := buildChanRig(t, prof, ClientOptions{})
	r.fake.regs["cnt"] = map[uint64]uint64{0: 5, 1: 6, 2: 7}
	reqs := []driver.ReadReq{{Reg: "cnt", Lo: 0, Hi: 2}, {Reg: "cnt", Lo: 1, Hi: 1}}
	rows := [][]uint64{make([]uint64, 0, 8), make([]uint64, 0, 8)}
	backing := [2]*uint64{&rows[0][:1][0], &rows[1][:1][0]}

	err := r.do(t, time.Millisecond, func(p *sim.Proc) error {
		if err := r.cli.BatchReadInto(p, reqs, rows); err != nil {
			return err
		}
		if fmt.Sprint(rows) != "[[5 6 7] [6]]" {
			return fmt.Errorf("rows = %v", rows)
		}
		if &rows[0][0] != backing[0] || &rows[1][0] != backing[1] {
			return fmt.Errorf("rows were reallocated instead of refilled in place")
		}
		// The caller owns its rows again: overwrite them, then let every
		// duplicate (request dups replayed from the cache, response dups)
		// drain. None of them may touch the rows.
		rows[0][0], rows[0][1], rows[0][2], rows[1][0] = 0, 0, 0, 0
		r.fake.regs["cnt"][0] = 99
		p.Sleep(100 * time.Microsecond)
		if fmt.Sprint(rows) != "[[0 0 0] [0]]" {
			return fmt.Errorf("a late response wrote into rows the call had returned: %v", rows)
		}
		if err := r.cli.BatchReadInto(p, reqs, rows[:1]); err == nil {
			return fmt.Errorf("a row count that does not match the request was accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := r.cli.ChanStats(); cs.LateResponses == 0 {
		t.Fatalf("no late response arrived; the test exercised nothing: %+v", cs)
	}
}

// TestQuarantineTimerSparesRecycledCall: a mutation abandoned at its
// deadline but answered during its MSL quarantine completes, and its
// call record is recycled for the next operation. When the quarantine
// timer fires later it finds that record serving an unrelated call, and
// must leave it alone.
func TestQuarantineTimerSparesRecycledCall(t *testing.T) {
	// ReorderDelay stretches MaxDelay (the quarantine) to 400µs without
	// ever delaying a frame; the server takes 30µs per write against an
	// 8µs deadline, so every write is abandoned, then answered in
	// quarantine, and every quarantine timer fires mid-way through some
	// later write.
	prof := faults.LinkProfile{Name: "long-msl", ReorderDelay: 400 * time.Microsecond}
	r := buildChanRig(t, prof, ClientOptions{RTO: 4 * time.Microsecond, OpDeadline: 8 * time.Microsecond})
	r.fake.slow = 30 * time.Microsecond
	const n = 40
	err := r.do(t, 10*time.Millisecond, func(p *sim.Proc) error {
		for i := uint64(0); i < n; i++ {
			if err := r.cli.RegWrite(p, "cnt", 0, i); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := r.cli.ChanStats(); cs.Timeouts != n {
		t.Fatalf("timeouts = %d, want every one of %d writes abandoned then answered", cs.Timeouts, n)
	}
	if r.fake.writes != n || r.fake.regs["cnt"][0] != n-1 {
		t.Fatalf("%d writes applied, register = %d", r.fake.writes, r.fake.regs["cnt"][0])
	}
}
