package baseline

import (
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testTrace() *workload.Trace {
	return workload.Generate(workload.TraceConfig{
		Flows: 2000, TotalPackets: 100000, Duration: 200 * time.Millisecond,
		ZipfS: 1.1, MinPktSize: 64, MaxPktSize: 1500, Sources: 256, Seed: 3,
	})
}

func meanErr(r EvalResult) float64 {
	s := 0.0
	for _, e := range r.MeanErr {
		s += e
	}
	return s / float64(len(r.MeanErr))
}

func bucketErr(r EvalResult, label string) (float64, bool) {
	for i, b := range r.Buckets {
		if b == label {
			return r.MeanErr[i], true
		}
	}
	return 0, false
}

func TestSFlowSamplingScale(t *testing.T) {
	// A rate-1 sFlow samples everything: zero error.
	tr := testTrace()
	r := RunEstimator(tr, NewSFlow(1, 1))
	if meanErr(r) != 0 {
		t.Fatalf("rate-1 sFlow error = %v, want 0", meanErr(r))
	}
}

func TestSFlowHighRateMissesSmallFlows(t *testing.T) {
	tr := testTrace()
	r := RunEstimator(tr, NewSFlow(30000, 1))
	small, ok := bucketErr(r, "<1KB")
	if !ok {
		t.Fatal("no small-flow bucket")
	}
	// At 1:30000 on a ~100K-packet trace almost no mouse is sampled:
	// relative error ~1 (estimate 0).
	if small < 0.9 {
		t.Fatalf("sFlow small-flow error = %v, want ~1", small)
	}
}

func TestCountMinOverestimatesOnly(t *testing.T) {
	tr := testTrace()
	cm := NewCountMin(2, 512, 1) // deliberately small: many collisions
	for _, p := range tr.Packets {
		cm.Observe(uint64(p.Flow.ID), p.Size, p.Time)
	}
	for _, f := range tr.Flows {
		if cm.Estimate(uint64(f.ID)) < float64(f.Bytes) {
			t.Fatalf("CMS underestimated flow %d", f.ID)
		}
	}
}

func TestCountMinWiderIsBetter(t *testing.T) {
	tr := testTrace()
	small := meanErr(RunEstimator(tr, NewCountMin(2, 256, 1)))
	large := meanErr(RunEstimator(tr, NewCountMin(2, 8192, 1)))
	if large >= small {
		t.Fatalf("8K sketch error %v >= 256 sketch error %v", large, small)
	}
}

func TestHashTableCollisionMisattribution(t *testing.T) {
	ht := NewHashTable(4, 1) // force collisions
	for k := uint64(0); k < 64; k++ {
		ht.Observe(k, 100, 0)
	}
	// Each slot holds ~16 flows' bytes, so estimates are ~16x.
	if ht.Estimate(0) < 200 {
		t.Fatalf("collision misattribution not visible: %v", ht.Estimate(0))
	}
}

func TestMantisSamplerBoundedError(t *testing.T) {
	tr := testTrace()
	// Poll every 10µs of trace time (~5 packets between polls at this
	// trace's rate — matching the paper's ~1-in-5 sampling).
	r := RunEstimator(tr, NewMantisSampler(10*time.Microsecond))
	big, ok := bucketErr(r, ">1MB")
	if !ok {
		t.Fatal("no large-flow bucket")
	}
	if big > 0.3 {
		t.Fatalf("Mantis large-flow error = %v, want small", big)
	}
}

// TestFig14Ranking checks the headline comparison: Mantis beats sFlow
// everywhere by orders of magnitude, and beats the collision-bound
// data-plane structures on small flows.
func TestFig14Ranking(t *testing.T) {
	tr := testTrace()
	mantis := RunEstimator(tr, NewMantisSampler(10*time.Microsecond))
	sflow := RunEstimator(tr, NewSFlow(30000, 1))
	// The paper runs ~370K flows against 8,192 counters (45:1); cms44
	// keeps that pressure at this trace's 2,000 flows, while cms8k is the
	// paper's literal size (nearly collision-free here).
	cms := RunEstimator(tr, NewCountMin(2, 44, 1))
	cms8k := RunEstimator(tr, NewCountMin(2, 8192, 1))

	// Every bucket above the mice: Mantis is several times (at full
	// scale, orders of magnitude) more accurate than sFlow, whose rare
	// samples miss or wildly overshoot.
	for _, bucket := range []string{"1-10KB", "10-100KB", "100KB-1MB", ">1MB"} {
		m, _ := bucketErr(mantis, bucket)
		s, _ := bucketErr(sflow, bucket)
		if m >= s/2 {
			t.Fatalf("bucket %s: mantis %v not clearly better than sflow %v", bucket, m, s)
		}
	}
	// Small flows: Mantis's bounded sampling error beats the sketch's
	// unbounded collision misattribution.
	mSmall, _ := bucketErr(mantis, "<1KB")
	cSmall, _ := bucketErr(cms, "<1KB")
	if mSmall >= cSmall/2 {
		t.Fatalf("mantis small-flow error %v not clearly better than CMS %v", mSmall, cSmall)
	}
	// Large flows: an adequately-sized sketch is slightly better (few
	// collisions for elephants), Mantis comparable — the paper's stated
	// tradeoff.
	mBig, _ := bucketErr(mantis, ">1MB")
	cBig, _ := bucketErr(cms8k, ">1MB")
	if cBig > mBig {
		t.Fatalf("CMS/8K large-flow error %v > mantis %v; expected CMS to win on elephants", cBig, mBig)
	}
	if mBig > 0.1 {
		t.Fatalf("mantis large-flow error %v, want comparable to data plane (<0.1)", mBig)
	}
}

func TestMantisSamplerTotalConservation(t *testing.T) {
	// Every byte is attributed to some key: the sum of estimates equals
	// the trace total.
	tr := testTrace()
	m := NewMantisSampler(10 * time.Microsecond)
	for _, p := range tr.Packets {
		m.Observe(uint64(p.Flow.ID), p.Size, p.Time)
	}
	m.Flush()
	var sum float64
	for _, f := range tr.Flows {
		sum += m.Estimate(uint64(f.ID))
	}
	if uint64(sum) != tr.TotalBytes() {
		t.Fatalf("attributed %v of %v bytes", uint64(sum), tr.TotalBytes())
	}
}

// ---- two-phase updater ----

func twoPhaseRig(t *testing.T) (*sim.Simulator, *driver.Driver) {
	t.Helper()
	prog := p4.NewProgram("twophase")
	prog.DefineStandardMetadata()
	k := prog.Schema.Define("h.k", 16)
	ver := prog.Schema.Define("m.ver", 32)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	prog.AddAction(&p4.Action{
		Name:   "set_ver",
		Params: []p4.Param{{Name: "v", Width: 32}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: ver, DstName: "m.ver", Src: p4.ParamOp(0, "v")}},
	})
	prog.AddAction(&p4.Action{
		Name:   "fwd",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}},
	})
	prog.AddTable(&p4.Table{
		Name: "ver_tbl", ActionNames: []string{"set_ver"},
		DefaultAction: &p4.ActionCall{Action: "set_ver", Data: []uint64{0}}, Size: 1,
	})
	prog.AddTable(&p4.Table{
		Name: "rules",
		Keys: []p4.MatchKey{
			{FieldName: "h.k", Field: k, Width: 16, Kind: p4.MatchExact},
			{FieldName: "m.ver", Field: ver, Width: 32, Kind: p4.MatchExact},
		},
		ActionNames: []string{"fwd"},
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "ver_tbl"}, p4.Apply{Table: "rules"}}
	s := sim.New(1)
	sw, err := rmt.New(s, prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, driver.New(s, sw, driver.DefaultCostModel())
}

func TestTwoPhaseInstallReplacesConfig(t *testing.T) {
	s, drv := twoPhaseRig(t)
	tp := NewTwoPhase(drv, "rules", "ver_tbl", "set_ver")
	mkRules := func(n int, port uint64) []Rule {
		var rs []Rule
		for i := 0; i < n; i++ {
			rs = append(rs, Rule{
				Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}, Action: "fwd", Data: []uint64{port},
			})
		}
		return rs
	}
	s.Spawn("cp", func(p *sim.Proc) {
		if err := tp.Install(p, mkRules(10, 1)); err != nil {
			t.Error(err)
			return
		}
		if err := tp.Install(p, mkRules(10, 2)); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if tp.version != 2 {
		t.Fatalf("version = %d", tp.version)
	}
	// Config 2: 10 installs + flip; plus deletion of config 1's rules.
	// Total ops: (10+1) + (10+1+10) = 32.
	if tp.Ops != 32 {
		t.Fatalf("ops = %d, want 32", tp.Ops)
	}
	entries, _ := drv.Switch().Entries("rules")
	if len(entries) != 10 {
		t.Fatalf("stale entries remain: %d", len(entries))
	}
}

// TestTwoPhaseCostVsDelta quantifies the §5.1.2 argument: for a
// one-entry change in an N-entry configuration, two-phase pays O(N)
// while a delta-based scheme would pay O(1).
func TestTwoPhaseCostVsDelta(t *testing.T) {
	s, drv := twoPhaseRig(t)
	tp := NewTwoPhase(drv, "rules", "ver_tbl", "set_ver")
	rules := make([]Rule, 50)
	for i := range rules {
		rules[i] = Rule{Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}, Action: "fwd", Data: []uint64{1}}
	}
	var opsFirst, opsSecond uint64
	s.Spawn("cp", func(p *sim.Proc) {
		tp.Install(p, rules)
		opsFirst = tp.Ops
		rules[0].Data = []uint64{9} // change ONE entry
		tp.Install(p, rules)
		opsSecond = tp.Ops - opsFirst
	})
	s.Run()
	if opsSecond < 100 {
		t.Fatalf("one-entry change cost %d ops, expected ~2N+1 = 101", opsSecond)
	}
}
