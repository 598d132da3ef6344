package usecases

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/rmt"
	"repro/internal/workload"
)

func TestAllUseCasesCompile(t *testing.T) {
	for _, src := range []string{DosP4R, GrayP4R, HashPolarP4R, RLECNP4R, BaseRouterP4R} {
		plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if err := plan.Prog.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
}

// TestFig15DosMitigation is the headline DoS scenario: goodput
// collapses under the flood, Mantis blocks the attacker within ~100µs,
// and the benign flows recover.
func TestFig15DosMitigation(t *testing.T) {
	res, err := RunFig15(DefaultFig15Config(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockedAt == 0 {
		t.Fatal("attacker never blocked")
	}
	// The paper reports ~100µs from first malicious packet to rule
	// install; allow up to 300µs for the scaled scenario.
	if res.DetectionLatency > 300*time.Microsecond {
		t.Fatalf("detection latency %v, want ~100µs scale", res.DetectionLatency)
	}
	if res.DetectionLatency < 10*time.Microsecond {
		t.Fatalf("detection latency %v implausibly fast", res.DetectionLatency)
	}
	// Benign goodput: healthy before, recovered after.
	if res.PreGbps < 1.0 {
		t.Fatalf("pre-flood goodput %.2f Gbps, want ~2", res.PreGbps)
	}
	if res.PostGbps < res.PreGbps*0.6 {
		t.Fatalf("post-mitigation goodput %.2f Gbps did not recover toward %.2f", res.PostGbps, res.PreGbps)
	}
	// Exactly one sender blocked (no benign collateral).
	if len(res.Goodput.T) == 0 {
		t.Fatal("no goodput samples")
	}
}

func TestDosNoFalsePositivesWithoutAttack(t *testing.T) {
	cfg := DefaultFig15Config()
	cfg.AttackBps = 0 // configured but never started
	routes := map[uint32]int{0xD0000001: 31}
	rig, err := BuildDos(1, routes)
	if err != nil {
		t.Fatal(err)
	}
	rig.Agent.Start()
	rig.Sim.RunFor(2 * time.Millisecond)
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	for _, ev := range rig.Events {
		if ev.Kind == EventDosBlock {
			t.Fatalf("blocked %#x without any traffic", ev.Key)
		}
	}
}

// TestPrologueRouteHandlesRepeat: two builds with one seed install the
// same route under the same entry handle. The prologues used to range a
// Go map, so the handle → key listing changed from run to run.
func TestPrologueRouteHandlesRepeat(t *testing.T) {
	routes := map[uint32]int{}
	for i := uint32(0); i < 16; i++ {
		routes[0xD0000000+i*7919%251] = int(i)
	}
	listings := map[string]func() (string, error){
		"dos": func() (string, error) {
			rig, err := BuildDos(1, routes)
			if err != nil {
				return "", err
			}
			rig.Agent.Start()
			rig.Sim.RunFor(time.Millisecond)
			return routeListing(rig.Sw)
		},
		"rlecn": func() (string, error) {
			rig, err := BuildRL(1, 50*time.Microsecond, 10e9)
			if err != nil {
				return "", err
			}
			rig.Agent.Start()
			rig.Sim.RunFor(time.Millisecond)
			return routeListing(rig.Sw)
		},
	}
	for name, list := range listings {
		first, err := list()
		if err != nil || first == "" {
			t.Fatalf("%s: listing %q, %v", name, first, err)
		}
		for i := 0; i < 4; i++ {
			if again, _ := list(); again != first {
				t.Fatalf("%s: route handles differ between builds:\n %s\n %s", name, first, again)
			}
		}
	}
}

// routeListing renders the route table as handle → key, in handle order.
func routeListing(sw *rmt.Switch) (string, error) {
	es, err := sw.Entries("route")
	var sb strings.Builder
	for _, e := range es {
		fmt.Fprintf(&sb, "%d→%#x ", e.Handle, e.Keys[0].Value)
	}
	return sb.String(), err
}

// TestFig16GrayFailure checks detection + reroute lands in the
// 100-200µs band the paper reports for small T_d.
func TestFig16GrayFailure(t *testing.T) {
	res, err := RunFig16(1, 3, 500*time.Microsecond, 30*time.Microsecond, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("gray failure not detected")
	}
	if res.FalsePositives != 0 {
		t.Fatalf("false positives: %d", res.FalsePositives)
	}
	if res.ReactionTime > 400*time.Microsecond {
		t.Fatalf("reaction time %v, want 100-200µs scale", res.ReactionTime)
	}
	if res.ReactionTime < 20*time.Microsecond {
		t.Fatalf("reaction time %v implausible (< one window)", res.ReactionTime)
	}
}

// TestFig16ReactionScalesWithTd: larger measurement windows mean slower
// detection — the Fig. 16a trend.
func TestFig16ReactionScalesWithTd(t *testing.T) {
	fast, err := RunFig16(1, 2, 300*time.Microsecond, 20*time.Microsecond, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunFig16(1, 2, 300*time.Microsecond, 200*time.Microsecond, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Detected || !slow.Detected {
		t.Fatal("detection failed")
	}
	if fast.ReactionTime >= slow.ReactionTime {
		t.Fatalf("T_d=20µs: %v vs T_d=200µs: %v; larger windows must react slower",
			fast.ReactionTime, slow.ReactionTime)
	}
}

// TestFig16EtaRobustness: a lower eta tolerates more heartbeat loss
// but still detects a real failure; the impact on reaction time is
// minor (the Fig. 16b observation).
func TestFig16EtaRobustness(t *testing.T) {
	for _, eta := range []float64{0.2, 0.5, 0.9} {
		res, err := RunFig16(1, 2, 300*time.Microsecond, 50*time.Microsecond, eta)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected || res.FalsePositives != 0 {
			t.Fatalf("eta=%v: detected=%v fps=%d", eta, res.Detected, res.FalsePositives)
		}
	}
}

// TestHashPolarization: a polarized workload triggers the MAD detector,
// the reaction shifts the hash input, and traffic spreads out.
func TestHashPolarization(t *testing.T) {
	res, err := RunPolar(1, 50*time.Microsecond, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shifted {
		t.Fatal("reaction never shifted the hash input")
	}
	if res.MADBefore < 0.9 {
		t.Fatalf("pre-shift MAD ratio %.2f, want ~1 (fully polarized)", res.MADBefore)
	}
	if res.MADAfter > res.MADBefore/2 {
		t.Fatalf("post-shift MAD %.2f vs pre %.2f; shift should balance", res.MADAfter, res.MADBefore)
	}
	// After shifting to srcAddr, every path should carry some traffic.
	for i, share := range res.PortShares {
		if share == 0 {
			t.Fatalf("path %d carried nothing: %v", i, res.PortShares)
		}
	}
}

// TestRLECNTuning: the learner must run, adapt the threshold, and not
// degrade the reward.
func TestRLECNTuning(t *testing.T) {
	res, err := RunRL(1, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates < 100 {
		t.Fatalf("only %d TD updates", res.Updates)
	}
	if res.DeliveredBytes < 1_000_000 {
		t.Fatalf("goodput collapsed: %d bytes", res.DeliveredBytes)
	}
	if res.LateReward < res.EarlyReward-0.2 {
		t.Fatalf("reward degraded: early %.3f late %.3f", res.EarlyReward, res.LateReward)
	}
	// The learned threshold for moderate queues should be a real member
	// of the action space.
	found := false
	for _, th := range []uint64{2, 4, 8, 16, 32, 64, 128} {
		if res.FinalGreedyThreshold == th {
			found = true
		}
	}
	if !found {
		t.Fatalf("greedy threshold %d not in action space", res.FinalGreedyThreshold)
	}
}

// TestRunRLRepeats: the body explores with rand, which draws from the
// simulator's seeded RNG, so one seed gives one outcome.
func TestRunRLRepeats(t *testing.T) {
	first, err := RunRL(1, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunRL(1, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("two runs of one seed differ:\n %+v\n %+v", *first, *second)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check the malleable inventory against the paper's Table 1
	// shape: DoS has a malleable table; hash polarization has malleable
	// fields; RL has a malleable value.
	if rows[0].MblTables == 0 {
		t.Fatalf("DoS use case has no malleable table: %+v", rows[0])
	}
	if rows[2].MblFields == 0 {
		t.Fatalf("hash polarization has no malleable field: %+v", rows[2])
	}
	if rows[3].MblValues == 0 {
		t.Fatalf("RL has no malleable value: %+v", rows[3])
	}
	for _, r := range rows {
		if r.P4RLoC == 0 || r.P4LoC == 0 {
			t.Fatalf("LoC missing: %+v", r)
		}
		if r.P4LoC <= r.P4RLoC {
			t.Fatalf("%s: generated P4 (%d) should exceed P4R (%d)", r.Name, r.P4LoC, r.P4RLoC)
		}
		if r.MetadataBits <= 0 {
			t.Fatalf("%s: no generated metadata", r.Name)
		}
	}
	if rows[3].Name != "Reinforcement Learning" {
		t.Fatalf("row 3 is %q, want the RL use case", rows[3].Name)
	}
}

// TestDosEstimatorOnSwitchMatchesTraceLevel replays a small trace
// through the real agent loop (switch registers, mv-gated polling,
// delta attribution) and checks that the per-sender byte estimates sum
// to the injected total and are individually sane — validating that
// the trace-level Fig. 14 sampler models the real loop.
func TestDosEstimatorOnSwitchMatchesTraceLevel(t *testing.T) {
	tr := workload.Generate(workload.TraceConfig{
		Flows: 200, TotalPackets: 5000, Duration: 5 * time.Millisecond,
		ZipfS: 1.1, MinPktSize: 64, MaxPktSize: 1500, Sources: 32, Seed: 5,
	})
	const victim = 0xD0000001
	rig, err := BuildDos(1, map[uint32]int{victim: 31})
	if err != nil {
		t.Fatal(err)
	}
	// A block would drop a sender's later bytes before they are counted,
	// so the Go detector runs with its threshold parked, as on the
	// reroute fabric's leaves; its estimates arrive as hh.estimate events.
	det := NewDosDetector(DosConfig{ThresholdBps: 1e18, MinDuration: time.Second})
	if err := rig.Agent.RegisterNativeReaction("dos_react", det.React); err != nil {
		t.Fatal(err)
	}
	rig.Agent.Start()
	for _, p := range tr.Packets {
		p := p
		rig.Sim.Schedule(p.Time+50*time.Microsecond, func() {
			pkt := rig.Plan.Prog.Schema.New()
			pkt.Size = p.Size
			pkt.SetName("ipv4.srcAddr", uint64(p.Flow.Src))
			pkt.SetName("ipv4.dstAddr", victim)
			rig.Sw.Inject(int(p.Flow.Src)%30, pkt)
		})
	}
	rig.Sim.RunFor(6 * time.Millisecond)
	rig.Agent.Stop()
	rig.Sim.Run()
	if err := rig.Agent.Err(); err != nil {
		t.Fatal(err)
	}

	// A sender's hh.estimate events grow; its last one is its estimate.
	estimates := make(map[uint64]uint64)
	for _, ev := range rig.Events {
		if ev.Kind == EventHHEstimate {
			estimates[ev.Key] = ev.Val
		}
	}
	var estSum, actSum uint64
	for _, v := range estimates {
		estSum += v
	}
	actual := tr.SenderBytes()
	for _, v := range actual {
		actSum += v
	}
	// Attribution conserves bytes up to the final un-polled window.
	if estSum > actSum || estSum < actSum*95/100 {
		t.Fatalf("estimated %d of %d actual bytes", estSum, actSum)
	}
	// Large senders (elephants) are individually accurate within 2x.
	for src, act := range actual {
		if act < actSum/10 {
			continue
		}
		est := estimates[uint64(src)]
		if est < act/2 || est > act*2 {
			t.Fatalf("sender %#x: est %d vs actual %d", src, est, act)
		}
	}
}

// TestFig15Deterministic: the full DoS scenario — switch, driver, agent,
// TCP flows, flood — is exactly reproducible from its seed.
func TestFig15Deterministic(t *testing.T) {
	cfg := DefaultFig15Config()
	cfg.Tail = time.Millisecond
	a, err := RunFig15(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig15(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.BlockedAt != b.BlockedAt || a.PreGbps != b.PreGbps || a.Goodput.Len() != b.Goodput.Len() {
		t.Fatalf("nondeterministic: %+v vs %+v", a.BlockedAt, b.BlockedAt)
	}
}
