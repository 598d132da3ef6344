// Package workload generates synthetic traffic traces with the
// statistical shape of the CAIDA ISP-backbone trace used in the paper's
// Figure 14 experiment: a heavy-tailed (Zipf) flow size distribution
// where a few flows carry most bytes and a long tail of mice carries
// few packets each. The paper's 20-second blocks hold ~8.9 M packets
// across ~370 K flows; Generate reproduces that shape at any
// configurable scale so experiments stay laptop-sized.
package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Flow is one 5-tuple flow in a trace.
type Flow struct {
	ID      int
	Src     uint32
	Dst     uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	// Packets and Bytes are the flow's totals over the trace.
	Packets int
	Bytes   uint64
}

// Packet is one trace record.
type Packet struct {
	Flow *Flow
	Time time.Duration
	Size int
}

// TraceConfig parameterizes Generate.
type TraceConfig struct {
	// Flows is the number of distinct flows.
	Flows int
	// TotalPackets is the approximate packet count (exact count may vary
	// slightly because every flow sends at least one packet).
	TotalPackets int
	// Duration is the trace length; packets spread uniformly within it.
	Duration time.Duration
	// ZipfS is the Zipf skew (weight of rank r is r^-s). Typical
	// backbone traffic fits s in [1.0, 1.3].
	ZipfS float64
	// MinPktSize/MaxPktSize bound packet sizes (bytes).
	MinPktSize int
	MaxPktSize int
	// Sources is the number of distinct source addresses; flows are
	// assigned sources round-robin weighted by rank so heavy flows
	// concentrate on few senders (the DoS use case's per-sender view).
	Sources int
	Seed    int64
}

// DefaultTraceConfig is a laptop-scale stand-in for one CAIDA block:
// same flow-size shape, ~24x fewer packets.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Flows:        15000,
		TotalPackets: 370000,
		Duration:     time.Second,
		ZipfS:        1.1,
		MinPktSize:   64,
		MaxPktSize:   1500,
		Sources:      2048,
		Seed:         1,
	}
}

// Trace is a generated packet trace, time-sorted.
type Trace struct {
	Flows   []*Flow
	Packets []Packet
}

// Generate builds a trace per cfg. Output is deterministic per seed.
func Generate(cfg TraceConfig) *Trace {
	if cfg.Flows <= 0 || cfg.TotalPackets <= 0 {
		return &Trace{}
	}
	if cfg.MinPktSize <= 0 {
		cfg.MinPktSize = 64
	}
	if cfg.MaxPktSize < cfg.MinPktSize {
		cfg.MaxPktSize = cfg.MinPktSize
	}
	if cfg.Sources <= 0 {
		cfg.Sources = cfg.Flows
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 1.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Zipf weights over flow ranks.
	weights := make([]float64, cfg.Flows)
	sum := 0.0
	for r := 0; r < cfg.Flows; r++ {
		weights[r] = math.Pow(float64(r+1), -cfg.ZipfS)
		sum += weights[r]
	}

	tr := &Trace{Flows: make([]*Flow, cfg.Flows)}
	for r := 0; r < cfg.Flows; r++ {
		pkts := int(weights[r] / sum * float64(cfg.TotalPackets))
		if pkts < 1 {
			pkts = 1
		}
		tr.Flows[r] = &Flow{
			ID:      r,
			Src:     uint32(0x0A000000 + rng.Intn(cfg.Sources)),
			Dst:     uint32(0xC0A80000 + rng.Intn(1<<16)),
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: uint16([]int{80, 443, 53, 123, 8080}[rng.Intn(5)]),
			Proto:   [2]uint8{6, 17}[rng.Intn(2)],
			Packets: pkts,
		}
	}

	total := 0
	for _, f := range tr.Flows {
		total += f.Packets
	}
	tr.Packets = make([]Packet, 0, total)
	for _, f := range tr.Flows {
		for i := 0; i < f.Packets; i++ {
			size := cfg.MinPktSize
			if cfg.MaxPktSize > cfg.MinPktSize {
				size += rng.Intn(cfg.MaxPktSize - cfg.MinPktSize + 1)
			}
			f.Bytes += uint64(size)
			tr.Packets = append(tr.Packets, Packet{
				Flow: f,
				Time: time.Duration(rng.Int63n(int64(cfg.Duration))),
				Size: size,
			})
		}
	}
	// Not a stable sort: equal times keep the pdqsort order that
	// TestGenerateOrderPinned pins.
	slices.SortFunc(tr.Packets, func(a, b Packet) int { return cmp.Compare(a.Time, b.Time) })
	return tr
}

// SenderBytes aggregates trace bytes per source address.
func (tr *Trace) SenderBytes() map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for _, f := range tr.Flows {
		out[f.Src] += f.Bytes
	}
	return out
}

// TotalBytes sums all packet bytes in the trace.
func (tr *Trace) TotalBytes() uint64 {
	var b uint64
	for _, f := range tr.Flows {
		b += f.Bytes
	}
	return b
}
