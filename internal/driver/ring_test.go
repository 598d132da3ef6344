package driver

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rmt"
	"repro/internal/sim"
)

// TestRingFull exercises the backpressure path: a ring of depth N hands
// out exactly N descriptors, refuses the N+1th with ErrRingFull, and
// accepts again once completions are flushed and drained.
func TestRingFull(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	rg := NewRing(d, 4)
	s.Spawn("cp", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			op, err := rg.Reserve()
			if err != nil {
				t.Errorf("Reserve %d: %v", i, err)
				return
			}
			op.Set(&Op{Kind: OpRegWrite, Table: "ctr", Idx: uint64(i), Val: uint64(i)})
		}
		if _, err := rg.Reserve(); !errors.Is(err, ErrRingFull) {
			t.Errorf("Reserve on full ring: err = %v, want ErrRingFull", err)
		}
		if !IsTransient(ErrRingFull) {
			t.Error("ErrRingFull should be transient (retry after drain)")
		}
		if err := rg.Flush(p); err != nil {
			t.Errorf("Flush: %v", err)
		}
		// Flushed but not drained: completions still occupy the slots.
		if _, err := rg.Reserve(); !errors.Is(err, ErrRingFull) {
			t.Errorf("Reserve before Drain: err = %v, want ErrRingFull", err)
		}
		rg.Drain(func(*Op) {})
		if _, err := rg.Reserve(); err != nil {
			t.Errorf("Reserve after Drain: %v", err)
		}
	})
	s.Run()
	if got := rg.Stats().FullRejections; got != 2 {
		t.Fatalf("FullRejections = %d, want 2", got)
	}
}

// TestRingWraparound pushes several laps through a small ring and
// checks that slot reuse neither loses writes nor corrupts previously
// installed state (the staged buffers are recycled in place).
func TestRingWraparound(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	rg := NewRing(d, 3)
	const laps = 5
	s.Spawn("cp", func(p *sim.Proc) {
		n := 0
		for n < laps*3 {
			for i := 0; i < 3; i++ {
				op, err := rg.Reserve()
				if err != nil {
					t.Errorf("Reserve: %v", err)
					return
				}
				op.Set(&Op{Kind: OpRegWrite, Table: "ctr", Idx: uint64(n % 64), Val: uint64(n)})
				n++
			}
			if err := rg.Flush(p); err != nil {
				t.Errorf("Flush: %v", err)
			}
			rg.Drain(func(op *Op) {
				if op.Err != nil {
					t.Errorf("op %v: %v", op.Kind, op.Err)
				}
			})
		}
		// The last write to each touched cell must have stuck.
		for i := 0; i < laps*3; i++ {
			want := uint64(i) // cells are written in increasing order, idx = i%64 < 64 unique here
			got, err := d.RegRead(p, "ctr", uint64(i%64))
			if err != nil {
				t.Errorf("RegRead %d: %v", i, err)
				return
			}
			if got != want {
				t.Errorf("ctr[%d] = %d, want %d", i%64, got, want)
			}
		}
	})
	s.Run()
	if got := rg.Stats().OpsFlushed; got != laps*3 {
		t.Fatalf("OpsFlushed = %d, want %d", got, laps*3)
	}
}

// TestRingOrderingAndCompletions verifies FIFO execution across mixed
// op kinds, per-descriptor completion records (including a failure that
// does not abort the rest of the flush), and AddEntry handle return.
func TestRingOrderingAndCompletions(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	rg := NewRing(d, 8)
	s.Spawn("cp", func(p *sim.Proc) {
		add, _ := rg.Reserve()
		add.Set(&Op{Kind: OpAddEntry, Table: "fw", Keys: []rmt.KeySpec{rmt.ExactKey(9)}, Action: "fwd", Data: []uint64{1}})
		add.Tag = "add"
		bad, _ := rg.Reserve()
		bad.Set(&Op{Kind: OpModifyEntry, Table: "no-such-table", Handle: 1, Action: "fwd", Data: []uint64{0}})
		bad.Tag = "bad"
		wr, _ := rg.Reserve()
		wr.Set(&Op{Kind: OpRegWrite, Table: "ctr", Idx: 5, Val: 77})
		wr.Tag = "wr"
		if err := rg.Flush(p); err == nil {
			t.Error("Flush with a failing descriptor should return its error")
		}
		var order []string
		var addHandle rmt.EntryHandle
		rg.Drain(func(op *Op) {
			order = append(order, op.Tag.(string))
			switch op.Tag {
			case "add":
				if op.Err != nil {
					t.Errorf("add: %v", op.Err)
				}
				addHandle = op.NewHandle
			case "bad":
				if op.Err == nil {
					t.Error("bad descriptor completed without error")
				}
			case "wr":
				if op.Err != nil {
					t.Errorf("regwrite after failed descriptor: %v (flush must continue past errors)", op.Err)
				}
			}
		})
		if len(order) != 3 || order[0] != "add" || order[1] != "bad" || order[2] != "wr" {
			t.Errorf("completion order = %v, want [add bad wr]", order)
		}
		// The add landed and is modifiable through its returned handle;
		// mutating the drained descriptor's buffers must not affect it.
		add.Keys = append(add.Keys[:0], rmt.ExactKey(12345))
		add.Data = append(add.Data[:0], 999)
		if err := d.ModifyEntry(p, "fw", addHandle, "fwd", []uint64{3}); err != nil {
			t.Errorf("ModifyEntry via ring handle: %v", err)
		}
		got, err := d.RegRead(p, "ctr", 5)
		if err != nil || got != 77 {
			t.Errorf("ctr[5] = %d, %v; want 77", got, err)
		}
		es, err := d.ReadEntries(p, "fw")
		if err != nil || len(es) != 1 {
			t.Fatalf("ReadEntries = %v, %v", es, err)
		}
		if es[0].Keys[0].Value != 9 {
			t.Errorf("installed key = %d, want 9 (ring slot reuse corrupted it)", es[0].Keys[0].Value)
		}
	})
	s.Run()
	if st := rg.Stats(); st.OpErrors != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want 1 error, 1 flush", st)
	}
}

// TestRingCostEquivalence checks the cost-model contract: N writes
// through one ring flush occupy the channel for exactly as long as the
// same N writes issued directly.
func TestRingCostEquivalence(t *testing.T) {
	const n = 6
	run := func(viaRing bool) time.Duration {
		s := sim.New(1)
		d := New(s, testSwitch(t, s), DefaultCostModel())
		var elapsed time.Duration
		s.Spawn("cp", func(p *sim.Proc) {
			t0 := p.Now()
			if viaRing {
				rg := NewRing(d, n)
				for i := 0; i < n; i++ {
					op, err := rg.Reserve()
					if err != nil {
						t.Error(err)
						return
					}
					op.Set(&Op{Kind: OpRegWrite, Table: "ctr", Idx: uint64(i), Val: 1})
				}
				if err := rg.Flush(p); err != nil {
					t.Error(err)
				}
				rg.Drain(func(*Op) {})
			} else {
				for i := 0; i < n; i++ {
					if err := d.RegWrite(p, "ctr", uint64(i), 1); err != nil {
						t.Error(err)
					}
				}
			}
			elapsed = p.Now().Sub(t0)
		})
		s.Run()
		return elapsed
	}
	direct, ringed := run(false), run(true)
	if direct != ringed {
		t.Fatalf("channel time: direct = %v, ring = %v (ring must not change the cost model)", direct, ringed)
	}
}

// TestRingStagedVisibility confirms nothing reaches the switch before
// the doorbell: reserved descriptors are pure host memory until Flush.
func TestRingStagedVisibility(t *testing.T) {
	s := sim.New(1)
	d := New(s, testSwitch(t, s), DefaultCostModel())
	rg := NewRing(d, 4)
	s.Spawn("cp", func(p *sim.Proc) {
		op, _ := rg.Reserve()
		op.Set(&Op{Kind: OpRegWrite, Table: "ctr", Idx: 0, Val: 42})
		if got, _ := d.RegRead(p, "ctr", 0); got != 0 {
			t.Errorf("ctr[0] = %d before Flush, want 0", got)
		}
		if rg.Staged() != 1 {
			t.Errorf("Staged = %d, want 1", rg.Staged())
		}
		if err := rg.Flush(p); err != nil {
			t.Error(err)
		}
		if got, _ := d.RegRead(p, "ctr", 0); got != 42 {
			t.Errorf("ctr[0] = %d after Flush, want 42", got)
		}
	})
	s.Run()
}
