package ctlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/packet"
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
		// Touching ranges out of register order: rows come back per range,
		// in the caller's order.
		vals, err := sess.BatchRead(p, []driver.ReadReq{{Reg: "r1", Lo: 0, Hi: 8}, {Reg: "r0", Lo: 3, Hi: 4}, {Reg: "r0", Lo: 0, Hi: 3}})
		if err != nil || len(vals) != 3 || len(vals[0]) != 8 || vals[1][0] != 42 || len(vals[2]) != 3 {
			t.Errorf("BatchRead = %v, %v", vals, err)
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
	// The counters bench/ reads still say one op per write.
	if rs := svc.RingStats(); rs.OpsFlushed != 3 || rs.Flushes != 3 || svc.Stats().WriteTransactions != 3 {
		t.Fatalf("ring stats: %+v, write transactions %d", rs, svc.Stats().WriteTransactions)
	}
	if got := svc.Stats().ReadTransactions; got != 2 {
		t.Fatalf("read transactions = %d, want 2", got)
	}
}

// TestSessionWriteMatchesDriver is the differential test of the write
// path: one random sequence of every mutating kind, successes and
// failures, through a primary session and straight into a *driver.Driver
// must report the same results and handles at the same virtual times and
// leave the same driver counters and switch state. The service arbitrates;
// it adds no cost and applies the caller's own op.
func TestSessionWriteMatchesDriver(t *testing.T) {
	type result struct {
		trace []string
		stats driver.Stats
		end   sim.Time
		state string
	}
	run := func(viaSession bool) result {
		s := sim.New(1)
		prog := testProgram()
		prog.AddHash(&p4.HashCalc{Name: "ecmp", Fields: []packet.FieldID{prog.Schema.MustID("h.k")}, Width: 16})
		sw, err := rmt.New(s, prog, rmt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		drv := driver.New(s, sw, driver.DefaultCostModel())
		do := func(p *sim.Proc, op *driver.Op) error { return driver.Apply(drv, p, op) }
		if viaSession {
			sess, err := New(s, drv, Options{}).Open(SessionOptions{Role: RolePrimary, ElectionID: 1})
			if err != nil {
				t.Fatal(err)
			}
			do = sess.Do
		}
		var r result
		s.Spawn("cp", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(18))
			var live []rmt.EntryHandle
			var ok, failed [driver.NumOpKinds]int
			for i := 0; i < 400; i++ {
				op := driver.Op{Kind: driver.OpAddEntry + driver.OpKind(rng.Intn(6)), Table: "tbl"}
				if rng.Intn(12) == 0 {
					op.Table = "nope"
				}
				// A handle that exists most of the time, a stale or bogus one otherwise.
				op.Handle = rmt.EntryHandle(rng.Intn(8))
				if len(live) > 0 && rng.Intn(5) > 0 {
					op.Handle = live[rng.Intn(len(live))]
				}
				data := []uint64{uint64(rng.Intn(512))}
				switch op.Kind {
				case driver.OpAddEntry:
					// 48 keys over 400 ops: duplicate-key refusals happen.
					op.Handle, op.Keys, op.Action, op.Data = 0, []rmt.KeySpec{rmt.ExactKey(uint64(rng.Intn(48)))}, "act", data
				case driver.OpModifyEntry:
					op.Action, op.Data = "act", data
				case driver.OpSetDefault:
					if rng.Intn(3) > 0 {
						op.Call = &p4.ActionCall{Action: "act", Data: data}
					}
				case driver.OpSetHashSeed:
					op.Table, op.Val = [2]string{"ecmp", "nope"}[rng.Intn(8)/7], rng.Uint64()
				case driver.OpRegWrite:
					// Index 64 is one past the end.
					op.Table, op.Idx, op.Val = [2]string{"r0", "nope"}[rng.Intn(8)/7], uint64(rng.Intn(65)), uint64(rng.Uint32())
				}
				err := do(p, &op)
				if err != nil {
					failed[op.Kind]++
				} else {
					ok[op.Kind]++
					switch op.Kind {
					case driver.OpAddEntry:
						live = append(live, op.NewHandle)
					case driver.OpDeleteEntry:
						live = slices.DeleteFunc(live, func(h rmt.EntryHandle) bool { return h == op.Handle })
					}
				}
				r.trace = append(r.trace, fmt.Sprintf("%v h=%d new=%d err=%v at %v", op.Kind, op.Handle, op.NewHandle, err, p.Now()))
			}
			for k := driver.OpAddEntry; k.Mutating(); k++ {
				if ok[k] == 0 || failed[k] == 0 {
					t.Errorf("%v: %d successes, %d failures; the sequence must cover both", k, ok[k], failed[k])
				}
			}
		})
		s.Run()
		r.stats, r.end = drv.Stats(), s.Now()
		es, _ := sw.Entries("tbl")
		for _, e := range es {
			r.state += fmt.Sprintf("{%d %v %s %v}", e.Handle, e.Keys, e.Action, e.Data)
		}
		def, _ := sw.DefaultAction("tbl")
		regs, _ := sw.RegReadRange("r0", 0, 64)
		r.state += fmt.Sprintf(" default %+v regs %v", def, regs)
		return r
	}
	direct, session := run(false), run(true)
	for i := range direct.trace {
		if direct.trace[i] != session.trace[i] {
			t.Fatalf("op %d: direct %q, session %q", i, direct.trace[i], session.trace[i])
		}
	}
	direct.trace, session.trace = nil, nil
	if !reflect.DeepEqual(direct, session) {
		t.Errorf("end state differs:\n direct  %+v\n session %+v", direct, session)
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

// The scheduler tests below put several synchronous callers on the
// service at one instant: processes spawned back to back all run their
// first call at the spawn time, in spawn order.

func TestBackpressureTypedRejection(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	sess, err := svc.Open(SessionOptions{Name: "bulk", Role: RoleLegacy})
	if err != nil {
		t.Fatal(err)
	}
	sess.maxQueued = 2
	errs := make([]error, 3)
	for i := range errs {
		s.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			errs[i] = sess.RegWrite(p, "r0", 0, 1)
			if i == 2 {
				// After draining, calls are accepted again.
				p.Sleep(10 * time.Microsecond)
				if err := sess.RegWrite(p, "r0", 1, 2); err != nil {
					t.Errorf("post-drain write: %v", err)
				}
			}
		})
	}
	s.Run()
	for i, err := range errs[:2] {
		if err != nil {
			t.Errorf("queued op %d failed: %v", i, err)
		}
	}
	// Third call while two are queued: explicit typed rejection,
	// advertised as retryable.
	if !errors.Is(errs[2], ErrQueueFull) || !driver.IsTransient(errs[2]) {
		t.Errorf("overflow error = %v, want a transient ErrQueueFull", errs[2])
	}
	st := sess.SessionStats()
	if st.Rejected != 1 || svc.Stats().Rejections != 1 || st.MaxQueueDepth != 2 {
		t.Fatalf("rejected = %d / %d, max depth %d; want 1, 1, 2", st.Rejected, svc.Stats().Rejections, st.MaxQueueDepth)
	}
}

// spawnOrderProbe starts one caller that writes once through sess and
// appends tag to order when the write completes — the service is
// exclusive, so completion order is service order.
func spawnOrderProbe(t *testing.T, s *sim.Simulator, sess *Session, tag string, order *[]string) {
	s.Spawn(tag, func(p *sim.Proc) {
		if err := sess.RegWrite(p, "r0", 0, 1); err != nil {
			t.Errorf("%s: %v", tag, err)
		}
		*order = append(*order, tag)
	})
}

// priorityOrFIFOOrder has 4 bulk callers then 1 dialogue caller arrive
// at the same instant and returns the service order.
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
	for i := 0; i < 4; i++ {
		spawnOrderProbe(t, s, bulk, fmt.Sprintf("bulk%d", i), &order)
	}
	spawnOrderProbe(t, s, prim, "dialogue", &order)
	s.Run()
	return order
}

func TestPriorityServesDialogueFirst(t *testing.T) {
	order := priorityOrFIFOOrder(t, PolicyPriority)
	if want := []string{"dialogue", "bulk0", "bulk1", "bulk2", "bulk3"}; !slices.Equal(order, want) {
		t.Fatalf("priority order = %v, want %v", order, want)
	}
}

func TestFIFOServesArrivalOrder(t *testing.T) {
	order := priorityOrFIFOOrder(t, PolicyFIFO)
	if want := []string{"bulk0", "bulk1", "bulk2", "bulk3", "dialogue"}; !slices.Equal(order, want) {
		t.Fatalf("fifo order = %v, want %v", order, want)
	}
}

func TestRoundRobinFairnessWithinClass(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	a, _ := svc.Open(SessionOptions{Name: "a", Role: RoleLegacy})
	b, _ := svc.Open(SessionOptions{Name: "b", Role: RoleLegacy})
	var order []string
	// Session a's callers all arrive first; round-robin must still
	// interleave b's ops instead of draining a completely.
	for i := 0; i < 3; i++ {
		spawnOrderProbe(t, s, a, "a", &order)
	}
	for i := 0; i < 3; i++ {
		spawnOrderProbe(t, s, b, "b", &order)
	}
	s.Run()
	if want := []string{"a", "b", "a", "b", "a", "b"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want strict alternation", order)
	}
}

// TestDemotedWhileQueued has two writers queue on a primary session and
// a newer primary open at the same instant — after both were admitted,
// before either is served — and expects the run-time permission re-check
// to fail them with ErrNotPrimary.
func TestDemotedWhileQueued(t *testing.T) {
	s, _, drv, svc := testRig(t, Options{})
	old, err := svc.Open(SessionOptions{Name: "old", Role: RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2; i++ {
		s.Spawn(fmt.Sprintf("writer%d", i), func(p *sim.Proc) {
			if err := old.ModifyEntry(p, "tbl", 1, "act", []uint64{i}); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("queued write after demotion: %v, want ErrNotPrimary", err)
			}
		})
	}
	s.Spawn("rival", func(p *sim.Proc) {
		if old.QueueDepth() != 2 {
			t.Errorf("queue depth = %d at demotion, want both writers queued", old.QueueDepth())
		}
		if _, err := svc.Open(SessionOptions{Name: "new", Role: RolePrimary, ElectionID: 2}); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if st := old.SessionStats(); st.Submitted != 2 || st.Failed != 2 {
		t.Fatalf("session stats: %+v, want both writes admitted then failed", st)
	}
	if drv.Stats().TableOps != 0 || svc.Stats().WriteTransactions != 0 {
		t.Fatalf("device ops = %d, write transactions = %d; want 0 (demoted writes must not land)",
			drv.Stats().TableOps, svc.Stats().WriteTransactions)
	}
}

// TestSessionCloseFailsQueuedRequests closes a session at the instant
// two callers queued on it: the first is mid-arbitration (it found the
// service free and has not picked yet), the second parked behind it.
// Both fail with ErrClosed, and the arbitrating caller still hands the
// service to the other session's caller.
func TestSessionCloseFailsQueuedRequests(t *testing.T) {
	s, _, _, svc := testRig(t, Options{})
	sess, _ := svc.Open(SessionOptions{Name: "legacy", Role: RoleLegacy})
	other, _ := svc.Open(SessionOptions{Name: "other", Role: RoleLegacy})
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			if err := sess.RegWrite(p, "r0", 0, 1); !errors.Is(err, ErrClosed) {
				t.Errorf("queued request after close: %v, want ErrClosed", err)
			}
			if err := sess.RegWrite(p, "r0", 0, 1); !errors.Is(err, ErrClosed) {
				t.Errorf("write after close: %v, want ErrClosed", err)
			}
		})
	}
	served := false
	s.Spawn("bystander", func(p *sim.Proc) {
		if err := other.RegWrite(p, "r0", 1, 1); err != nil {
			t.Errorf("other session: %v", err)
		}
		served = true
	})
	s.Spawn("closer", func(p *sim.Proc) { sess.Close() })
	s.Run()
	if !served {
		t.Fatal("the other session's caller was never served")
	}
	if st := sess.SessionStats(); st.Submitted != 2 || st.Completed != 2 || st.Failed != 2 {
		t.Fatalf("closed session stats: %+v", st)
	}
	// The service is free again, not wedged behind the closed session.
	s.Spawn("late", func(p *sim.Proc) {
		if err := other.RegWrite(p, "r0", 2, 1); err != nil {
			t.Errorf("late write: %v", err)
		}
	})
	s.Run()
	if got := other.SessionStats().Completed; got != 2 {
		t.Fatalf("other session completed %d, want 2", got)
	}
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
