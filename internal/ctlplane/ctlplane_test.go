package ctlplane

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// testProgram builds a program with two register arrays and one table,
// enough surface for every scheduler path.
func testProgram() *p4.Program {
	prog := p4.NewProgram("ctlplane-test")
	prog.DefineStandardMetadata()
	k := prog.Schema.Define("h.k", 32)
	prog.AddRegister(&p4.Register{Name: "r0", Width: 32, Instances: 64})
	prog.AddRegister(&p4.Register{Name: "r1", Width: 32, Instances: 64})
	prog.AddAction(&p4.Action{
		Name:   "act",
		Params: []p4.Param{{Name: "v", Width: 32}},
		Body: []p4.Primitive{p4.ModifyField{
			Dst: prog.Schema.MustID(p4.FieldEgressSpec), DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "v"),
		}},
	})
	prog.AddTable(&p4.Table{
		Name:        "tbl",
		Keys:        []p4.MatchKey{{FieldName: "h.k", Field: k, Width: 32, Kind: p4.MatchExact}},
		ActionNames: []string{"act"},
		Size:        256,
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "tbl"}}
	return prog
}

// testRig builds simulator, switch, driver, and a service over them.
func testRig(t testing.TB, opts Options) (*sim.Simulator, *rmt.Switch, *driver.Driver, *Service) {
	t.Helper()
	s := sim.New(1)
	sw, err := rmt.New(s, testProgram(), rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	return s, sw, drv, New(s, drv, opts)
}

func TestSessionRoundTrip(t *testing.T) {
	s, sw, drv, svc := testRig(t, Options{})
	sess, err := svc.Open(SessionOptions{Name: "prim", Role: RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("client", func(p *sim.Proc) {
		h, err := sess.AddEntry(p, "tbl", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "act", Data: []uint64{1},
		})
		if err != nil {
			t.Errorf("AddEntry: %v", err)
		}
		if err := sess.ModifyEntry(p, "tbl", h, "act", []uint64{9}); err != nil {
			t.Errorf("ModifyEntry: %v", err)
		}
		if err := sess.RegWrite(p, "r0", 3, 42); err != nil {
			t.Errorf("RegWrite: %v", err)
		}
		v, err := sess.RegRead(p, "r0", 3)
		if err != nil || v != 42 {
			t.Errorf("RegRead = %d, %v; want 42", v, err)
		}
		if _, err := sess.BatchRead(p, []driver.ReadReq{{Reg: "r1", Lo: 0, Hi: 8}}); err != nil {
			t.Errorf("BatchRead: %v", err)
		}
	})
	s.Run()
	if drv.Stats().TableOps != 2 || drv.Stats().RegWrites != 1 {
		t.Fatalf("driver stats: %+v", drv.Stats())
	}
	if sw.Stats().RxPackets != 0 {
		t.Fatalf("unexpected packets")
	}
	st := sess.SessionStats()
	if st.Submitted != 5 || st.Completed != 5 || st.Failed != 0 {
		t.Fatalf("session stats: %+v", st)
	}
}

func TestPrimaryArbitration(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	old, err := svc.Open(SessionOptions{Name: "old", Role: RolePrimary, ElectionID: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Equal or lower election id: refused.
	if _, err := svc.Open(SessionOptions{Role: RolePrimary, ElectionID: 5}); !errors.Is(err, ErrPrimacyHeld) {
		t.Fatalf("equal id open: %v", err)
	}
	if _, err := svc.Open(SessionOptions{Role: RolePrimary, ElectionID: 4}); !errors.Is(err, ErrPrimacyHeld) {
		t.Fatalf("lower id open: %v", err)
	}
	// Higher id: wins, demotes the incumbent.
	neu, err := svc.Open(SessionOptions{Name: "new", Role: RolePrimary, ElectionID: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !old.Demoted() || svc.Primary() != neu {
		t.Fatalf("demotion did not happen")
	}
	s.Spawn("client", func(p *sim.Proc) {
		if err := old.RegWrite(p, "r0", 0, 1); !errors.Is(err, ErrNotPrimary) {
			t.Errorf("demoted write: %v", err)
		}
		if err := neu.RegWrite(p, "r0", 0, 1); err != nil {
			t.Errorf("new primary write: %v", err)
		}
		// Demoted sessions may still read.
		if _, err := old.RegRead(p, "r0", 0); err != nil {
			t.Errorf("demoted read: %v", err)
		}
	})
	s.Run()
	if svc.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d", svc.Stats().Demotions)
	}
	// Closing the primary relinquishes primacy: any id may take over.
	neu.Close()
	if _, err := svc.Open(SessionOptions{Role: RolePrimary, ElectionID: 1}); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestObserverReadOnly(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	obs, err := svc.Open(SessionOptions{Name: "obs"}) // default role: observer
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("client", func(p *sim.Proc) {
		if err := obs.RegWrite(p, "r0", 0, 1); !errors.Is(err, ErrReadOnly) {
			t.Errorf("observer write: %v", err)
		}
		if _, err := obs.AddEntry(p, "tbl", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "act", Data: []uint64{0}}); !errors.Is(err, ErrReadOnly) {
			t.Errorf("observer add: %v", err)
		}
		if _, err := obs.RegRead(p, "r0", 0); err != nil {
			t.Errorf("observer read: %v", err)
		}
	})
	s.Run()
}

func TestBackpressureTypedRejection(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	sess, err := svc.Open(SessionOptions{Name: "bulk", Role: RoleLegacy, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("client", func(p *sim.Proc) {
		var pendings []*Pending
		for i := 0; i < 2; i++ {
			pn, err := sess.SubmitExec(true, func(dp *sim.Proc, ch driver.Channel) error {
				return ch.RegWrite(dp, "r0", 0, 1)
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
			pendings = append(pendings, pn)
		}
		// Third submission while two are queued: explicit typed rejection.
		_, err := sess.SubmitExec(true, func(dp *sim.Proc, ch driver.Channel) error { return nil })
		if !errors.Is(err, ErrQueueFull) {
			t.Errorf("overflow error = %v, want ErrQueueFull", err)
		}
		// Backpressure is advertised as retryable.
		if !driver.IsTransient(err) {
			t.Errorf("ErrQueueFull is not transient: %v", err)
		}
		for _, pn := range pendings {
			if err := pn.Wait(p); err != nil {
				t.Errorf("queued op failed: %v", err)
			}
		}
		// After draining, submissions are accepted again.
		if err := sess.RegWrite(p, "r0", 1, 2); err != nil {
			t.Errorf("post-drain write: %v", err)
		}
	})
	s.Run()
	st := sess.SessionStats()
	if st.Rejected != 1 || svc.Stats().Rejections != 1 {
		t.Fatalf("rejected = %d / %d, want 1", st.Rejected, svc.Stats().Rejections)
	}
}

// submitOrderProbe enqueues one channel op that records its execution
// order.
func submitOrderProbe(t *testing.T, sess *Session, tag string, order *[]string) *Pending {
	t.Helper()
	pn, err := sess.SubmitExec(sess.Role() != RoleObserver, func(dp *sim.Proc, ch driver.Channel) error {
		*order = append(*order, tag)
		return ch.RegWrite(dp, "r0", 0, 1)
	})
	if err != nil {
		t.Fatalf("submit %s: %v", tag, err)
	}
	return pn
}

// priorityOrFIFOOrder submits 4 bulk ops then 1 dialogue op at the same
// instant and returns the execution order.
func priorityOrFIFOOrder(t *testing.T, policy Policy) []string {
	s, _, _, svc := testRig(t, Options{Policy: policy})
	bulk, err := svc.Open(SessionOptions{Name: "legacy", Role: RoleLegacy})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := svc.Open(SessionOptions{Name: "mantis", Role: RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	s.Spawn("client", func(p *sim.Proc) {
		var pendings []*Pending
		for i := 0; i < 4; i++ {
			pendings = append(pendings, submitOrderProbe(t, bulk, fmt.Sprintf("bulk%d", i), &order))
		}
		pendings = append(pendings, submitOrderProbe(t, prim, "dialogue", &order))
		for _, pn := range pendings {
			if err := pn.Wait(p); err != nil {
				t.Errorf("op failed: %v", err)
			}
		}
	})
	s.Run()
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	return order
}

func TestPriorityServesDialogueFirst(t *testing.T) {
	order := priorityOrFIFOOrder(t, PolicyPriority)
	if order[0] != "dialogue" {
		t.Fatalf("priority order = %v, want dialogue first", order)
	}
}

func TestFIFOServesArrivalOrder(t *testing.T) {
	order := priorityOrFIFOOrder(t, PolicyFIFO)
	if order[len(order)-1] != "dialogue" {
		t.Fatalf("fifo order = %v, want dialogue last", order)
	}
}

func TestRoundRobinFairnessWithinClass(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	a, _ := svc.Open(SessionOptions{Name: "a", Role: RoleLegacy})
	b, _ := svc.Open(SessionOptions{Name: "b", Role: RoleLegacy})
	var order []string
	s.Spawn("client", func(p *sim.Proc) {
		var pendings []*Pending
		// Session a enqueues all its work first; round-robin must still
		// interleave b's ops instead of draining a completely.
		for i := 0; i < 3; i++ {
			pendings = append(pendings, submitOrderProbe(t, a, "a", &order))
		}
		for i := 0; i < 3; i++ {
			pendings = append(pendings, submitOrderProbe(t, b, "b", &order))
		}
		for _, pn := range pendings {
			if err := pn.Wait(p); err != nil {
				t.Errorf("op failed: %v", err)
			}
		}
	})
	s.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want strict alternation", order)
		}
	}
}

func TestReadCoalescing(t *testing.T) {
	s, sw, drv, svc := testRig(t, Options{})
	sess, _ := svc.Open(SessionOptions{Name: "obs"})
	for i := uint64(0); i < 16; i++ {
		if err := sw.RegWrite("r0", i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.RegWrite("r1", 2, 7); err != nil {
		t.Fatal(err)
	}
	s.Spawn("client", func(p *sim.Proc) {
		// Three pipelined reads: two adjacent ranges of r0 (merge into
		// one range) and one of r1 — a single driver transaction total.
		p1, err := sess.SubmitRead([]driver.ReadReq{{Reg: "r0", Lo: 0, Hi: 8}})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := sess.SubmitRead([]driver.ReadReq{{Reg: "r0", Lo: 8, Hi: 16}})
		if err != nil {
			t.Fatal(err)
		}
		p3, err := sess.SubmitRead([]driver.ReadReq{{Reg: "r1", Lo: 2, Hi: 3}})
		if err != nil {
			t.Fatal(err)
		}
		for _, pn := range []*Pending{p1, p2, p3} {
			if err := pn.Wait(p); err != nil {
				t.Errorf("read failed: %v", err)
			}
		}
		if v := p1.Values()[0][0]; v != 100 {
			t.Errorf("p1[0] = %d, want 100", v)
		}
		if v := p2.Values()[0][7]; v != 115 {
			t.Errorf("p2[7] = %d, want 115", v)
		}
		if v := p3.Values()[0][0]; v != 7 {
			t.Errorf("p3[0] = %d, want 7", v)
		}
	})
	s.Run()
	if got := drv.Stats().RegReads; got != 1 {
		t.Fatalf("driver transactions = %d, want 1 (coalesced)", got)
	}
	st := svc.Stats()
	if st.ReadsCoalesced != 2 || st.RangesMerged != 1 {
		t.Fatalf("coalescing stats: %+v", st)
	}
}

func TestWriteCoalescing(t *testing.T) {
	s, sw, drv, svc := testRig(t, Options{})
	sess, _ := svc.Open(SessionOptions{Name: "legacy", Role: RoleLegacy})
	s.Spawn("client", func(p *sim.Proc) {
		h, err := sess.AddEntry(p, "tbl", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "act", Data: []uint64{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		base := drv.Stats().TableOps
		// Three pipelined writes to the same entry: only the last value
		// reaches the device.
		var pendings []*Pending
		for _, v := range []uint64{1, 2, 3} {
			pn, err := sess.SubmitModify("tbl", h, "act", []uint64{v})
			if err != nil {
				t.Fatal(err)
			}
			pendings = append(pendings, pn)
		}
		for _, pn := range pendings {
			if err := pn.Wait(p); err != nil {
				t.Errorf("write failed: %v", err)
			}
		}
		if ops := drv.Stats().TableOps - base; ops != 1 {
			t.Errorf("device table ops = %d, want 1 (coalesced)", ops)
		}
		entries, err := sw.Entries("tbl")
		if err != nil || len(entries) != 1 || len(entries[0].Data) == 0 || entries[0].Data[0] != 3 {
			t.Errorf("entries = %+v, %v; want one entry with final value 3", entries, err)
		}
	})
	s.Run()
	if svc.Stats().WritesCoalesced != 2 {
		t.Fatalf("WritesCoalesced = %d, want 2", svc.Stats().WritesCoalesced)
	}
}

// TestWriteRingBatching pipelines writes to distinct entries: unlike
// same-entry coalescing, every write must reach the device, but the run
// shares a single submission-ring flush (one doorbell, one transaction).
func TestWriteRingBatching(t *testing.T) {
	s, sw, drv, svc := testRig(t, Options{})
	sess, _ := svc.Open(SessionOptions{Name: "legacy", Role: RoleLegacy})
	s.Spawn("client", func(p *sim.Proc) {
		var hs []rmt.EntryHandle
		for i := uint64(0); i < 3; i++ {
			h, err := sess.AddEntry(p, "tbl", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(i)}, Action: "act", Data: []uint64{0},
			})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		base := drv.Stats().TableOps
		baseTx := svc.Stats().WriteTransactions
		var pendings []*Pending
		for i, h := range hs {
			pn, err := sess.SubmitModify("tbl", h, "act", []uint64{uint64(10 + i)})
			if err != nil {
				t.Fatal(err)
			}
			pendings = append(pendings, pn)
		}
		for _, pn := range pendings {
			if err := pn.Wait(p); err != nil {
				t.Errorf("write failed: %v", err)
			}
		}
		if ops := drv.Stats().TableOps - base; ops != 3 {
			t.Errorf("device table ops = %d, want 3 (distinct entries must all land)", ops)
		}
		if tx := svc.Stats().WriteTransactions - baseTx; tx != 1 {
			t.Errorf("write transactions = %d, want 1 (batched into one ring flush)", tx)
		}
		for i := range hs {
			entries, err := sw.Entries("tbl")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range entries {
				if e.Keys[0].Value == uint64(i) && len(e.Data) > 0 && e.Data[0] == uint64(10+i) {
					found = true
				}
			}
			if !found {
				t.Errorf("entry %d missing final value %d: %+v", i, 10+i, entries)
			}
		}
	})
	s.Run()
	if svc.Stats().WritesCoalesced != 0 {
		t.Fatalf("WritesCoalesced = %d, want 0 (distinct entries)", svc.Stats().WritesCoalesced)
	}
	if rs := svc.RingStats(); rs.OpsFlushed < 3 {
		t.Fatalf("ring ops flushed = %d, want >= 3", rs.OpsFlushed)
	}
}

// TestDemotedWhileQueued submits pipelined writes, demotes the session
// before the dispatcher runs, and expects the dispatch-time permission
// re-check to fail them all with ErrNotPrimary.
func TestDemotedWhileQueued(t *testing.T) {
	s, _, drv, svc := testRig(t, Options{})
	old, err := svc.Open(SessionOptions{Name: "old", Role: RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("client", func(p *sim.Proc) {
		var pendings []*Pending
		for i := uint64(0); i < 2; i++ {
			pn, err := old.SubmitModify("tbl", 1, "act", []uint64{i})
			if err != nil {
				t.Fatal(err)
			}
			pendings = append(pendings, pn)
		}
		// Demote before the dispatcher gets to run (we have not parked).
		if _, err := svc.Open(SessionOptions{Name: "new", Role: RolePrimary, ElectionID: 2}); err != nil {
			t.Fatal(err)
		}
		for _, pn := range pendings {
			if err := pn.Wait(p); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("queued write after demotion: %v, want ErrNotPrimary", err)
			}
		}
	})
	s.Run()
	if drv.Stats().TableOps != 0 {
		t.Fatalf("device ops = %d, want 0 (demoted writes must not land)", drv.Stats().TableOps)
	}
}

func TestMergeRanges(t *testing.T) {
	reqs := []driver.ReadReq{
		{Reg: "r1", Lo: 2, Hi: 3},
		{Reg: "r0", Lo: 8, Hi: 16},
		{Reg: "r0", Lo: 0, Hi: 8},
		{Reg: "r0", Lo: 20, Hi: 24}, // gap after 16: must NOT merge
	}
	// Stale scratch from a longer, differently-shaped read must not leak in.
	sc := readScratch{all: []driver.ReadReq{{Reg: "z", Lo: 0, Hi: 9}, {Reg: "a", Lo: 0, Hi: 1}, {Reg: "a", Lo: 1, Hi: 2},
		{Reg: "b", Lo: 0, Hi: 1}, {Reg: "c", Lo: 0, Hi: 1}, {Reg: "d", Lo: 0, Hi: 1}}}
	sc.merge()
	sc.all = append(sc.all[:0], reqs...)
	merged, slots := sc.merge(), sc.where
	if len(merged) != 3 || len(slots) != len(reqs) {
		t.Fatalf("merged = %+v, want 3 ranges", merged)
	}
	// Every original range must map inside its merged range.
	for i, r := range reqs {
		m := merged[slots[i].idx]
		if m.Reg != r.Reg || uint64(slots[i].off) != r.Lo-m.Lo || slots[i].n != int(r.Hi-r.Lo) {
			t.Fatalf("slot %d = %+v for %+v in %+v", i, slots[i], r, m)
		}
	}
}

func TestSessionCloseFailsQueuedRequests(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	sess, _ := svc.Open(SessionOptions{Name: "legacy", Role: RoleLegacy})
	s.Spawn("client", func(p *sim.Proc) {
		pn, err := sess.SubmitExec(true, func(dp *sim.Proc, ch driver.Channel) error {
			return ch.RegWrite(dp, "r0", 0, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		sess.Close() // before the dispatcher ever runs
		if err := pn.Wait(p); !errors.Is(err, ErrClosed) {
			t.Errorf("queued request after close: %v, want ErrClosed", err)
		}
		if err := sess.RegWrite(p, "r0", 0, 1); !errors.Is(err, ErrClosed) {
			t.Errorf("write after close: %v, want ErrClosed", err)
		}
	})
	s.Run()
}

// TestSessionStressManyClients hammers one service (and through it one
// driver) from a primary, observers, and many legacy writers at once —
// run under -race in CI, it exercises the proc handoff and park/unpark
// machinery across dozens of goroutine-backed processes.
func TestSessionStressManyClients(t *testing.T) {
	s, _, drv, svc := testRig(t, Options{})
	const nLegacy, nObs, opsEach = 12, 4, 40

	prim, err := svc.Open(SessionOptions{Name: "prim", Role: RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("prim", func(p *sim.Proc) {
		h, err := prim.AddEntry(p, "tbl", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(999)}, Action: "act", Data: []uint64{0}})
		if err != nil {
			t.Errorf("prim add: %v", err)
			return
		}
		for i := 0; i < opsEach; i++ {
			if err := prim.ModifyEntry(p, "tbl", h, "act", []uint64{uint64(i)}); err != nil {
				t.Errorf("prim modify: %v", err)
				return
			}
			if _, err := prim.BatchRead(p, []driver.ReadReq{{Reg: "r0", Lo: 0, Hi: 16}}); err != nil {
				t.Errorf("prim read: %v", err)
				return
			}
		}
	})
	for c := 0; c < nLegacy; c++ {
		c := c
		sess, err := svc.Open(SessionOptions{Name: fmt.Sprintf("legacy%d", c), Role: RoleLegacy})
		if err != nil {
			t.Fatal(err)
		}
		s.Spawn(sess.Name(), func(p *sim.Proc) {
			h, err := sess.AddEntry(p, "tbl", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(uint64(c))}, Action: "act", Data: []uint64{0}})
			if err != nil {
				t.Errorf("legacy%d add: %v", c, err)
				return
			}
			for i := 0; i < opsEach; i++ {
				if err := sess.ModifyEntry(p, "tbl", h, "act", []uint64{uint64(i)}); err != nil {
					t.Errorf("legacy%d modify: %v", c, err)
					return
				}
				p.Sleep(time.Duration(c+1) * 100 * time.Nanosecond)
			}
		})
	}
	for c := 0; c < nObs; c++ {
		sess, err := svc.Open(SessionOptions{Name: fmt.Sprintf("obs%d", c)})
		if err != nil {
			t.Fatal(err)
		}
		s.Spawn(sess.Name(), func(p *sim.Proc) {
			for i := 0; i < opsEach; i++ {
				if _, err := sess.BatchRead(p, []driver.ReadReq{{Reg: "r1", Lo: 0, Hi: 32}}); err != nil {
					t.Errorf("%s read: %v", sess.Name(), err)
					return
				}
				p.Sleep(time.Microsecond)
			}
		})
	}
	s.Run()

	var completed, failed uint64
	for _, sess := range svc.Sessions() {
		st := sess.SessionStats()
		completed += st.Completed
		failed += st.Failed
		if st.Submitted != st.Completed+st.Rejected {
			t.Fatalf("%s: submitted %d != completed %d + rejected %d",
				sess.Name(), st.Submitted, st.Completed, st.Rejected)
		}
	}
	if failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	wantOps := uint64(1+nLegacy) /*adds*/ + uint64((1+nLegacy)*opsEach) /*modifies*/
	if drv.Stats().TableOps != wantOps {
		t.Fatalf("driver table ops = %d, want %d", drv.Stats().TableOps, wantOps)
	}
	if completed == 0 || svc.Stats().BulkOps == 0 || svc.Stats().DialogueOps == 0 {
		t.Fatalf("stats: completed=%d svc=%+v", completed, svc.Stats())
	}
}
