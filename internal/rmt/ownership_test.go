package rmt

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestDropsReturnPacketsToPool drives every way a packet's life can end
// inside the switch and checks that each pooled packet goes back to
// sw.Pool exactly once: a missed release leaves idle < made, and a
// second release panics in Pool.Put.
func TestDropsReturnPacketsToPool(t *testing.T) {
	type rig struct {
		s  *sim.Simulator
		sw *Switch
	}
	forward := func(r rig, port uint64) {
		if _, err := r.sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{port}}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		cfg  func(*Config)
		// run sets the switch up and injects packets drawn from pool; it
		// returns the counter the case must have moved.
		run func(r rig, get func(dst uint64, size, prio int) *packet.Packet) *uint64
	}{
		{"admission backlog", func(c *Config) { c.IngressCapacityPPS = 1e6 }, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			forward(r, 2)
			for i := 0; i < 70; i++ {
				r.sw.Inject(0, get(1, 64, 0))
			}
			return &r.sw.stats.IngressDrops
		}},
		{"ingress drop", nil, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			r.sw.Inject(0, get(0xDEAD, 64, 0)) // forward misses: default do_drop
			return &r.sw.stats.IngressDrops
		}},
		{"egress port out of range", nil, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			forward(r, 40)
			r.sw.Inject(0, get(1, 64, 0))
			return &r.sw.stats.IngressDrops
		}},
		// One packet serializes and two fill the queue; the fourth arrival
		// is tail-dropped, or, outranking them, evicts one.
		{"tail drop", func(c *Config) { c.QueueCapacity, c.PortBandwidth = 2, 1e8 }, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			forward(r, 2)
			for i := 0; i < 4; i++ {
				r.sw.Inject(0, get(1, 1500, 0))
			}
			return &r.sw.stats.QueueDrops
		}},
		{"priority eviction", func(c *Config) { c.QueueCapacity, c.PortBandwidth = 2, 1e8 }, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			forward(r, 2)
			for i := 0; i < 3; i++ {
				r.sw.Inject(0, get(1, 1500, 0))
			}
			r.sw.Inject(0, get(1, 64, 7))
			return &r.sw.stats.QueueDrops
		}},
		{"egress drop", nil, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			forward(r, 2)
			if _, err := r.sw.AddEntry("recirc_tbl", Entry{Keys: []KeySpec{ExactKey(99)}, Action: "do_drop"}); err != nil {
				t.Fatal(err)
			}
			pkt := get(1, 64, 0)
			pkt.SetName("ipv4.protocol", 99)
			r.sw.Inject(0, pkt)
			return &r.sw.stats.IngressDrops
		}},
		{"transmit without Tx", nil, func(r rig, get func(uint64, int, int) *packet.Packet) *uint64 {
			forward(r, 2)
			r.sw.Inject(0, get(1, 64, 0))
			return &r.sw.stats.TxPackets
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			prog := testProgram(t)
			prog.Tables["recirc_tbl"].ActionNames = append(prog.Tables["recirc_tbl"].ActionNames, "do_drop")
			s := sim.New(1)
			sw, err := New(s, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sw.Pool = packet.NewPool(prog.Schema)
			get := func(dst uint64, size, prio int) *packet.Packet {
				pkt := sw.Pool.Get()
				pkt.SetName("ipv4.dstAddr", dst)
				pkt.Size, pkt.Priority = size, prio
				return pkt
			}
			counter := c.run(rig{s, sw}, get)
			s.Run()
			if *counter == 0 {
				t.Fatalf("the case's counter did not move: %+v", sw.Stats())
			}
			if made, idle := sw.Pool.Counts(); made == 0 || idle != made {
				t.Fatalf("pool made %d packets and holds %d after the run", made, idle)
			}
		})
	}
}

// TestTxOwnsTransmittedPacket: a switch with Tx hands the packet over
// and does not release it; Inject refuses a released packet, and a
// second release panics.
func TestTxOwnsTransmittedPacket(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.Pool = packet.NewPool(sw.Program().Schema)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var sent *packet.Packet
	sw.Tx = func(_ int, pkt *packet.Packet) { sent = pkt }
	pkt := sw.Pool.Get()
	pkt.SetName("ipv4.dstAddr", 1)
	pkt.Size = 64
	sw.Inject(0, pkt)
	s.Run()
	if sent != pkt || pkt.Released() {
		t.Fatal("the switch released a packet it handed to Tx")
	}
	sw.Pool.Put(pkt)
	for what, fn := range map[string]func(){
		"Inject of a released packet": func() { sw.Inject(0, pkt) },
		"second Put":                  func() { sw.Pool.Put(pkt) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", what)
				}
			}()
			fn()
		}()
	}
}
