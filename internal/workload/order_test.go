package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// traceDigest hashes every packet's (flow id, time, size) in trace order.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var buf [24]byte
	for _, p := range tr.Packets {
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.Flow.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.Time))
		binary.LittleEndian.PutUint64(buf[16:], uint64(p.Size))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGenerateOrderPinned pins the packet order, ties included, to
// digests captured when Generate still sorted with sort.Slice: the
// trace is an input to every benchmark and experiment that replays it,
// so a sort that broke ties differently would move their numbers. The
// configurations are the repository benchmark's dataplane trace and
// DefaultTraceConfig.
func TestGenerateOrderPinned(t *testing.T) {
	dataplane := TraceConfig{
		Flows: 50000, TotalPackets: 200000, Duration: 200000 * 200 * time.Nanosecond,
		ZipfS: 1.1, MinPktSize: 64, MaxPktSize: 1500, Sources: 2048,
	}
	cases := []struct {
		name string
		cfg  TraceConfig
		want map[int64]string
	}{
		{"dataplane", dataplane, map[int64]string{
			1: "d14d6875e95babec", 2: "5da1cdaaffc246d0", 3: "6d54200a0838745a", 7919: "88f790ecf1fd5579",
		}},
		{"default", DefaultTraceConfig(), map[int64]string{
			1: "9efce6f114b7410d", 2: "fe7f3dd9d02bbd11", 3: "a16ae65695f916c9", 7919: "358efae28be2f1ed",
		}},
	}
	for _, c := range cases {
		for seed, want := range c.want {
			cfg := c.cfg
			cfg.Seed = seed
			if got := traceDigest(Generate(cfg)); got != want {
				t.Errorf("%s seed %d: digest %s, want %s", c.name, seed, got, want)
			}
		}
	}
}
