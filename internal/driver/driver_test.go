package driver

import (
	"errors"
	"testing"
	"time"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

func testSwitch(t testing.TB, s *sim.Simulator) *rmt.Switch {
	t.Helper()
	prog := p4.NewProgram("drv-test")
	prog.DefineStandardMetadata()
	dst := prog.Schema.Define("ipv4.dstAddr", 32)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	prog.AddRegister(&p4.Register{Name: "ctr", Width: 32, Instances: 64})
	prog.AddRegister(&p4.Register{Name: "wide", Width: 64, Instances: 16})
	prog.AddHash(&p4.HashCalc{Name: "ecmp", Fields: []packet.FieldID{dst}, Width: 16})
	prog.AddAction(&p4.Action{
		Name:   "fwd",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}},
	})
	prog.AddTable(&p4.Table{
		Name:        "fw",
		Keys:        []p4.MatchKey{{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: p4.MatchExact}},
		ActionNames: []string{"fwd"},
		Size:        128,
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "fw"}}
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestTableOpLatency(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	var elapsed time.Duration
	s.Spawn("cp", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := d.AddEntry(p, "fw", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{2},
		}); err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(t0)
	})
	s.Run()
	if elapsed != DefaultCostModel().TableOp {
		t.Fatalf("AddEntry latency = %v, want %v", elapsed, DefaultCostModel().TableOp)
	}
}

func TestMemoizationReducesCost(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	var cold, warm time.Duration
	s.Spawn("cp", func(p *sim.Proc) {
		h, err := d.AddEntry(p, "fw", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{2},
		})
		if err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		d.ModifyEntry(p, "fw", h, "fwd", []uint64{3})
		cold = p.Now().Sub(t0)

		d.Memoize("fw", h)
		t0 = p.Now()
		d.ModifyEntry(p, "fw", h, "fwd", []uint64{4})
		warm = p.Now().Sub(t0)
	})
	s.Run()
	if cold != DefaultCostModel().TableOp {
		t.Fatalf("cold = %v", cold)
	}
	if warm != DefaultCostModel().TableOpMemoized {
		t.Fatalf("warm = %v", warm)
	}
	if d.Stats().MemoizedOps != 1 {
		t.Fatalf("MemoizedOps = %d", d.Stats().MemoizedOps)
	}
}

func TestMemoizationDisabled(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	d.SetMemoization(false)
	var lat time.Duration
	s.Spawn("cp", func(p *sim.Proc) {
		h, _ := d.AddEntry(p, "fw", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{2},
		})
		d.Memoize("fw", h)
		t0 := p.Now()
		d.ModifyEntry(p, "fw", h, "fwd", []uint64{4})
		lat = p.Now().Sub(t0)
	})
	s.Run()
	if lat != DefaultCostModel().TableOp {
		t.Fatalf("disabled memoization latency = %v, want cold cost", lat)
	}
}

// TestMemoForgottenOnDelete: a deleted entry's descriptor leaves the
// memo, so add/memoize/delete churn leaves the map at its starting size,
// and a deleted handle stays unknown to a later modify.
func TestMemoForgottenOnDelete(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	d.Memoize("fw", 0)
	start := len(d.memo)
	var last rmt.EntryHandle
	var modErr error
	s.Spawn("cp", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			h, err := d.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{1}})
			if err != nil {
				t.Error(err)
				return
			}
			d.Memoize("fw", h)
			if err := d.DeleteEntry(p, "fw", h); err != nil {
				t.Error(err)
				return
			}
			last = h
		}
		modErr = d.ModifyEntry(p, "fw", last, "fwd", []uint64{2})
	})
	s.Run()
	if len(d.memo) != start {
		t.Fatalf("memo holds %d descriptors after 1000 add/delete rounds, want %d", len(d.memo), start)
	}
	if !errors.Is(modErr, rmt.ErrUnknownEntry) {
		t.Fatalf("modify of deleted handle %d: err = %v, want ErrUnknownEntry", last, modErr)
	}
}

// TestBatchedVsUnbatchedReads: a batched read is one transaction, an
// unbatched one a transaction per range, and with batching off
// (SetBatching(false), the ablation) a batched read costs exactly what
// UnbatchedRead does, down to the driver counters.
func TestBatchedVsUnbatchedReads(t *testing.T) {
	reqs := []ReadReq{
		{Reg: "ctr", Lo: 0, Hi: 16},
		{Reg: "ctr", Lo: 16, Hi: 32},
		{Reg: "wide", Lo: 0, Hi: 8},
	}
	// read times one read on a fresh driver and returns its cost and the
	// driver's read counters.
	read := func(batching bool, do func(d *Driver, p *sim.Proc) error) (cost time.Duration, st Stats) {
		s := sim.New(1)
		d := New(s, testSwitch(t, s), DefaultCostModel())
		d.SetBatching(batching)
		s.Spawn("cp", func(p *sim.Proc) {
			if err := do(d, p); err != nil {
				t.Error(err)
			}
			cost = p.Now().Sub(0)
		})
		s.Run()
		return cost, d.Stats()
	}
	batchRead := func(d *Driver, p *sim.Proc) error { _, err := d.BatchRead(p, reqs); return err }
	batchReadInto := func(d *Driver, p *sim.Proc) error { return d.BatchReadInto(p, reqs, make([][]uint64, len(reqs))) }
	unbatchedRead := func(d *Driver, p *sim.Proc) error { _, err := d.UnbatchedRead(p, reqs); return err }

	batched, bst := read(true, batchRead)
	unbatched, ust := read(true, unbatchedRead)
	if bst.RegReads != 1 || ust.RegReads != 3 || bst.RegReadBytes != 192 || ust.RegReadBytes != 192 {
		t.Fatalf("read counters: batched %d reads/%d B, unbatched %d reads/%d B; want 1/192 and 3/192",
			bst.RegReads, bst.RegReadBytes, ust.RegReads, ust.RegReadBytes)
	}
	for name, do := range map[string]func(*Driver, *sim.Proc) error{"BatchRead": batchRead, "BatchReadInto": batchReadInto} {
		off, ost := read(false, do)
		if off != unbatched || ost.RegReads != ust.RegReads || ost.RegReadBytes != ust.RegReadBytes {
			t.Errorf("%s with batching off = %v, %d reads, %d B; UnbatchedRead = %v, %d reads, %d B",
				name, off, ost.RegReads, ost.RegReadBytes, unbatched, ust.RegReads, ust.RegReadBytes)
		}
	}
	if off, _ := read(false, unbatchedRead); off != unbatched {
		t.Errorf("UnbatchedRead with batching off = %v, want %v", off, unbatched)
	}
	cm := DefaultCostModel()
	// 16*4 + 16*4 + 8*8 = 192 bytes across 3 ranges.
	wantBatched := cm.RegReadBase + 3*cm.RegReadPerReq + 192*cm.RegReadPerByte
	if batched != wantBatched {
		t.Fatalf("batched = %v, want %v", batched, wantBatched)
	}
	wantUnbatched := 3*cm.RegReadBase + 3*cm.RegReadPerReq + 192*cm.RegReadPerByte
	if unbatched != wantUnbatched {
		t.Fatalf("unbatched = %v, want %v", unbatched, wantUnbatched)
	}
	if unbatched <= batched {
		t.Fatal("batching should be cheaper")
	}
}

func TestBatchReadValues(t *testing.T) {
	s := sim.New(1)
	sw := testSwitch(t, s)
	d := New(s, sw, DefaultCostModel())
	sw.RegWrite("ctr", 3, 77)
	var got uint64
	s.Spawn("cp", func(p *sim.Proc) {
		v, err := d.RegRead(p, "ctr", 3)
		if err != nil {
			t.Error(err)
		}
		got = v
	})
	s.Run()
	if got != 77 {
		t.Fatalf("RegRead = %d", got)
	}
}

func TestUnknownRegisterError(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	s.Spawn("cp", func(p *sim.Proc) {
		if _, err := d.RegRead(p, "ghost", 0); err == nil {
			t.Error("unknown register accepted")
		}
	})
	s.Run()
}

func TestChannelContentionSerializes(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	cm := DefaultCostModel()
	var aDone, bDone sim.Time
	// Both processes issue a table op at t=0; the second must queue.
	s.Spawn("a", func(p *sim.Proc) {
		d.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{1}})
		aDone = p.Now()
	})
	s.Spawn("b", func(p *sim.Proc) {
		d.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(2)}, Action: "fwd", Data: []uint64{1}})
		bDone = p.Now()
	})
	s.Run()
	if aDone != sim.Time(cm.TableOp) {
		t.Fatalf("a done at %v", aDone)
	}
	if bDone != sim.Time(2*cm.TableOp) {
		t.Fatalf("b done at %v, want serialized after a", bDone)
	}
}

func TestRegWriteAndStats(t *testing.T) {
	s := sim.New(1)
	sw := testSwitch(t, s)
	d := New(s, sw, DefaultCostModel())
	s.Spawn("cp", func(p *sim.Proc) {
		if err := d.RegWrite(p, "ctr", 5, 99); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if v, _ := sw.RegRead("ctr", 5); v != 99 {
		t.Fatalf("ctr[5] = %d", v)
	}
	st := d.Stats()
	if st.RegWrites != 1 || st.Busy != DefaultCostModel().RegWrite {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMutationAppliedAtCompletionTime(t *testing.T) {
	s := sim.New(1)
	sw := testSwitch(t, s)
	d := New(s, sw, DefaultCostModel())
	// Sample the switch state midway through the driver operation: it
	// must still be the pre-op state (PCIe write not yet landed).
	s.Spawn("cp", func(p *sim.Proc) {
		d.RegWrite(p, "ctr", 0, 42)
	})
	var mid uint64 = 999
	s.Schedule(DefaultCostModel().RegWrite/2, func() {
		mid, _ = sw.RegRead("ctr", 0)
	})
	s.Run()
	if mid != 0 {
		t.Fatalf("state mid-operation = %d, want 0 (pre-op)", mid)
	}
	if v, _ := sw.RegRead("ctr", 0); v != 42 {
		t.Fatal("write lost")
	}
}

func TestSetHashSeedAndDefaultAction(t *testing.T) {
	s := sim.New(1)
	sw := testSwitch(t, s)
	d := New(s, sw, DefaultCostModel())
	s.Spawn("cp", func(p *sim.Proc) {
		if err := d.SetDefaultAction(p, "fw", &p4.ActionCall{Action: "fwd", Data: []uint64{9}}); err != nil {
			t.Error(err)
		}
		if err := d.SetHashSeed(p, "nope", 1); err == nil {
			t.Error("unknown hash accepted")
		}
	})
	s.Run()
	_ = sw
}

func TestDeleteEntryThroughDriver(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	s.Spawn("cp", func(p *sim.Proc) {
		h, err := d.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{1}})
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.DeleteEntry(p, "fw", h); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	es, _ := d.Switch().Entries("fw")
	if len(es) != 0 {
		t.Fatalf("entries = %v", es)
	}
}
