package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

func testChannel(t testing.TB, s *sim.Simulator) *driver.Driver {
	t.Helper()
	prog := p4.NewProgram("faults-test")
	prog.DefineStandardMetadata()
	dst := prog.Schema.Define("ipv4.dstAddr", 32)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	prog.AddRegister(&p4.Register{Name: "ctr", Width: 32, Instances: 64})
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
	return driver.New(s, sw, driver.DefaultCostModel())
}

// trace records the outcome pattern of a fixed op sequence, for
// determinism comparison across runs.
func trace(t *testing.T, prof Profile, seed int64, ops int) (string, Stats) {
	t.Helper()
	s := sim.New(7)
	inj := Wrap(s, testChannel(t, s), prof, seed)
	out := make([]byte, 0, ops)
	s.Spawn("cp", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			err := inj.RegWrite(p, "ctr", uint64(i%64), uint64(i))
			switch {
			case err == nil:
				out = append(out, '.')
			case driver.IsTransient(err):
				out = append(out, 'E')
			default:
				t.Errorf("op %d: non-transient error %v", i, err)
				out = append(out, '?')
			}
		}
	})
	s.Run()
	return string(out), inj.FaultStats()
}

func TestDeterministicSchedule(t *testing.T) {
	prof := TransientErrors()
	a, as := trace(t, prof, 42, 400)
	b, bs := trace(t, prof, 42, 400)
	if a != b {
		t.Fatalf("same (profile, seed) produced different fault schedules:\n%s\n%s", a, b)
	}
	if as != bs {
		t.Fatalf("same (profile, seed) produced different stats: %+v vs %+v", as, bs)
	}
	c, _ := trace(t, prof, 43, 400)
	if a == c {
		t.Fatalf("different seeds produced the identical 400-op schedule")
	}
}

func TestTransientErrorsProfile(t *testing.T) {
	tr, st := trace(t, TransientErrors(), 1, 1000)
	if st.InjectedErrors == 0 {
		t.Fatalf("no errors injected in 1000 ops at 5%% rate")
	}
	if st.Ops != 1000 {
		t.Fatalf("Ops = %d, want 1000", st.Ops)
	}
	// Bursts of 2: at least one EE pair should occur in 1000 ops.
	found := false
	for i := 0; i+1 < len(tr); i++ {
		if tr[i] == 'E' && tr[i+1] == 'E' {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("ErrorBurst=2 never produced consecutive failures in %d ops", len(tr))
	}
}

func TestNoneProfileIsTransparent(t *testing.T) {
	tr, st := trace(t, None(), 1, 200)
	for _, c := range tr {
		if c != '.' {
			t.Fatalf("control profile injected a fault: %s", tr)
		}
	}
	if st.InjectedErrors != 0 || st.InjectedSpikes != 0 || st.PartialBatches != 0 || st.StuckWaits != 0 {
		t.Fatalf("control profile counted faults: %+v", st)
	}
}

func TestDisabledInjectorIsTransparent(t *testing.T) {
	s := sim.New(7)
	inj := Wrap(s, testChannel(t, s), TransientErrors(), 42)
	inj.SetEnabled(false)
	s.Spawn("cp", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			if err := inj.RegWrite(p, "ctr", 0, uint64(i)); err != nil {
				t.Errorf("disabled injector failed op %d: %v", i, err)
			}
		}
	})
	s.Run()
	if st := inj.FaultStats(); st.InjectedErrors != 0 {
		t.Fatalf("disabled injector injected %d errors", st.InjectedErrors)
	}
}

func TestLatencySpikes(t *testing.T) {
	s := sim.New(7)
	prof := LatencySpikes()
	prof.SpikeRate = 1.0 // every op spikes
	inj := Wrap(s, testChannel(t, s), prof, 1)
	var elapsed time.Duration
	s.Spawn("cp", func(p *sim.Proc) {
		t0 := p.Now()
		if err := inj.RegWrite(p, "ctr", 0, 1); err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(t0)
	})
	s.Run()
	want := prof.SpikeDelay + driver.DefaultCostModel().RegWrite
	if elapsed != want {
		t.Fatalf("spiked op took %v, want %v", elapsed, want)
	}
	if inj.FaultStats().InjectedSpikes != 1 {
		t.Fatalf("InjectedSpikes = %d", inj.FaultStats().InjectedSpikes)
	}
}

func TestPartialBatch(t *testing.T) {
	s := sim.New(7)
	prof := Profile{Name: "partial", PartialBatchRate: 1.0}
	inj := Wrap(s, testChannel(t, s), prof, 1)
	reqs := []ReadReq{{Reg: "ctr", Lo: 0, Hi: 8}, {Reg: "ctr", Lo: 8, Hi: 16}, {Reg: "ctr", Lo: 16, Hi: 24}}
	s.Spawn("cp", func(p *sim.Proc) {
		vals, err := inj.BatchRead(p, reqs)
		if !driver.IsTransient(err) {
			t.Errorf("partial batch: err = %v, want transient", err)
		}
		if vals != nil {
			t.Errorf("aborted batch returned values: %v", vals)
		}
		// Single-range batches cannot abort partway.
		if _, err := inj.BatchRead(p, reqs[:1]); err != nil {
			t.Errorf("single-range batch: %v", err)
		}
	})
	s.Run()
	st := inj.FaultStats()
	if st.PartialBatches != 1 {
		t.Fatalf("PartialBatches = %d, want 1", st.PartialBatches)
	}
	// The aborted prefix paid channel time: the inner driver saw a read.
	if inj.Stats().RegReads != 2 {
		t.Fatalf("inner RegReads = %d, want 2 (aborted prefix + single)", inj.Stats().RegReads)
	}
}

func TestStuckChannelWindow(t *testing.T) {
	s := sim.New(7)
	prof := StuckChannel()
	inj := Wrap(s, testChannel(t, s), prof, 1)
	var waited time.Duration
	s.Spawn("cp", func(p *sim.Proc) {
		// Jump into the middle of the first stuck window.
		p.Sleep(prof.StuckEvery + prof.StuckFor/2)
		t0 := p.Now()
		if err := inj.RegWrite(p, "ctr", 0, 1); err != nil {
			t.Error(err)
		}
		waited = p.Now().Sub(t0)
	})
	s.Run()
	want := prof.StuckFor/2 + driver.DefaultCostModel().RegWrite
	if waited != want {
		t.Fatalf("op in stuck window took %v, want %v", waited, want)
	}
	st := inj.FaultStats()
	if st.StuckWaits != 1 || st.StuckTime != prof.StuckFor/2 {
		t.Fatalf("stuck stats = %+v", st)
	}
}

func TestInjectedErrorClassification(t *testing.T) {
	s := sim.New(7)
	prof := Profile{Name: "always", ErrorRate: 1.0}
	inj := Wrap(s, testChannel(t, s), prof, 1)
	s.Spawn("cp", func(p *sim.Proc) {
		_, err := inj.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{2}})
		if !driver.IsTransient(err) {
			t.Errorf("injected failure not transient: %v", err)
		}
		if errors.Is(err, rmt.ErrUnknownTable) {
			t.Errorf("injected failure claims a switch-level cause: %v", err)
		}
		// The switch was never touched.
		entries, eerr := inj.Switch().Entries("fw")
		if eerr != nil {
			t.Error(eerr)
		} else if len(entries) != 0 {
			t.Errorf("failed AddEntry mutated the switch: %d entries", len(entries))
		}
	})
	s.Run()
}

// TestCrashProfilesNameOpKinds pins the crash profiles to the op
// vocabulary: the injector matches CrashOp against driver.OpKind names,
// so each named profile must spell the kind it means, and the agent's
// measurement poll — a BatchReadInto — must count as "BatchRead".
func TestCrashProfilesNameOpKinds(t *testing.T) {
	for _, tc := range []struct {
		prof Profile
		kind driver.OpKind
	}{
		{CrashMidPrepare(), driver.OpModifyEntry},
		{CrashAtCommit(), driver.OpSetDefault},
		{CrashMidMirror(), driver.OpModifyEntry},
	} {
		if tc.prof.CrashOp != tc.kind.String() {
			t.Errorf("profile %s crashes at %q, but that kind is named %q", tc.prof.Name, tc.prof.CrashOp, tc.kind)
		}
	}

	s := sim.New(7)
	inj := Wrap(s, testChannel(t, s), Profile{CrashOp: "BatchRead", CrashAtOp: 2}, 1)
	polls := 0
	s.Spawn("poller", func(p *sim.Proc) {
		reqs := []ReadReq{{Reg: "ctr", Lo: 0, Hi: 4}}
		dst := make([][]uint64, 1)
		for {
			if err := inj.RegWrite(p, "ctr", 0, 1); err != nil { // not counted toward the crash
				t.Error(err)
				return
			}
			if err := inj.BatchReadInto(p, reqs, dst); err != nil {
				t.Error(err)
				return
			}
			polls++
		}
	})
	s.Run()
	if !inj.Crashed() || polls != 1 {
		t.Fatalf("crashed = %v after %d polls, want a crash at the 2nd BatchReadInto", inj.Crashed(), polls)
	}
}
