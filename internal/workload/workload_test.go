package workload

import (
	"sort"
	"testing"
	"time"
)

func smallCfg() TraceConfig {
	return TraceConfig{
		Flows: 500, TotalPackets: 20000, Duration: 100 * time.Millisecond,
		ZipfS: 1.1, MinPktSize: 64, MaxPktSize: 1500, Sources: 64, Seed: 7,
	}
}

func TestGenerateShape(t *testing.T) {
	tr := Generate(smallCfg())
	if len(tr.Flows) != 500 {
		t.Fatalf("flows = %d", len(tr.Flows))
	}
	if n := len(tr.Packets); n < 19000 || n > 21000 {
		t.Fatalf("packets = %d, want approximately TotalPackets (20000)", n)
	}
	// Time-sorted.
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].Time < tr.Packets[i-1].Time {
			t.Fatal("packets not time-sorted")
		}
	}
	// All packets within duration.
	last := tr.Packets[len(tr.Packets)-1]
	if last.Time >= 100*time.Millisecond {
		t.Fatalf("packet at %v beyond duration", last.Time)
	}
}

func TestHeavyTail(t *testing.T) {
	tr := Generate(smallCfg())
	byBytes := append([]*Flow(nil), tr.Flows...)
	sort.Slice(byBytes, func(i, j int) bool { return byBytes[i].Bytes > byBytes[j].Bytes })
	var topBytes uint64
	for _, f := range byBytes[:50] { // top 10% of flows
		topBytes += f.Bytes
	}
	frac := float64(topBytes) / float64(tr.TotalBytes())
	if frac < 0.5 {
		t.Fatalf("top 10%% flows carry %.2f of bytes, want heavy tail > 0.5", frac)
	}
	// Every flow sends at least one packet.
	for _, f := range tr.Flows {
		if f.Packets < 1 {
			t.Fatal("flow with zero packets")
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a := Generate(smallCfg())
	b := Generate(smallCfg())
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("nondeterministic packet count")
	}
	for i := range a.Packets {
		if a.Packets[i].Time != b.Packets[i].Time || a.Packets[i].Size != b.Packets[i].Size ||
			a.Packets[i].Flow.ID != b.Packets[i].Flow.ID {
			t.Fatal("nondeterministic trace")
		}
	}
	cfg := smallCfg()
	cfg.Seed = 99
	c := Generate(cfg)
	same := true
	for i := range a.Packets {
		if i < len(c.Packets) && a.Packets[i].Time != c.Packets[i].Time {
			same = false
			break
		}
	}
	if same && len(a.Packets) == len(c.Packets) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestAggregations(t *testing.T) {
	tr := Generate(smallCfg())
	var sum uint64
	for _, b := range tr.SenderBytes() {
		sum += b
	}
	if sum != tr.TotalBytes() {
		t.Fatal("SenderBytes does not partition total")
	}
	// Flow bytes match packet sizes.
	perFlow := map[int]uint64{}
	for _, p := range tr.Packets {
		perFlow[p.Flow.ID] += uint64(p.Size)
	}
	for _, f := range tr.Flows {
		if f.Bytes != perFlow[f.ID] {
			t.Fatalf("flow %d: bytes %d != packet sum %d", f.ID, f.Bytes, perFlow[f.ID])
		}
	}
}

func TestSourcesBound(t *testing.T) {
	tr := Generate(smallCfg())
	srcs := map[uint32]bool{}
	for _, f := range tr.Flows {
		srcs[f.Src] = true
	}
	if len(srcs) > 64 {
		t.Fatalf("distinct sources = %d, want <= 64", len(srcs))
	}
}

func TestDegenerateConfigs(t *testing.T) {
	if tr := Generate(TraceConfig{}); len(tr.Packets) != 0 {
		t.Fatal("zero config should be empty")
	}
	tr := Generate(TraceConfig{Flows: 3, TotalPackets: 9, Duration: time.Millisecond, Seed: 1})
	if len(tr.Packets) == 0 {
		t.Fatal("tiny trace empty")
	}
	for _, p := range tr.Packets {
		if p.Size < 64 {
			t.Fatalf("default min size not applied: %d", p.Size)
		}
	}
}

func TestDefaultTraceConfigScale(t *testing.T) {
	cfg := DefaultTraceConfig()
	if cfg.Flows == 0 || cfg.TotalPackets/cfg.Flows < 10 {
		t.Fatalf("default config implausible: %+v", cfg)
	}
}
