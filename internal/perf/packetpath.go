package perf

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// fabricNet compiles one of the fabric's programs onto a switch inside
// its own netsim network, as fabric.buildNode does, minus the agent.
func fabricNet(tb testing.TB, s *sim.Simulator, src string) *netsim.Network {
	return netsim.New(s, newSwitch(tb, s, compile(tb, src).Prog), 25e9, time.Microsecond)
}

// trunkHop is one fabric probe's life: drawn from the spine's pool,
// injected at the trunk, carried one hop, translated into a packet from
// the leaf's pool, then counted and absorbed by the leaf's hb_tbl. Both
// packets go back to their pools.
func trunkHop(tb testing.TB) func(n int) {
	s := sim.New(1)
	spine, leaf := fabricNet(tb, s, fabric.SpineP4R), fabricNet(tb, s, fabric.LeafP4R)
	if _, err := leaf.Sw.AddEntry(fabric.HeartbeatTable, rmt.Entry{
		Keys: []rmt.KeySpec{rmt.ExactKey(fabric.HeartbeatProto)}, Action: fabric.HeartbeatAction,
	}); err != nil {
		tb.Fatal(err)
	}
	tr, err := netsim.ConnectTrunk(leaf, 4, spine, 0, time.Microsecond, faults.LinkNone(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	proto := spine.Sw.Program().Schema.MustID(usecases.FM.Proto)
	return warm(func(n int) {
		absorbed := leaf.Sw.Stats().IngressDrops
		for i := 0; i < n; i++ {
			pkt := spine.NewPacket()
			pkt.Size, pkt.Priority = 64, 7
			pkt.Set(proto, fabric.HeartbeatProto)
			tr.Inject(1, pkt)
			s.Run()
		}
		if got := leaf.Sw.Stats().IngressDrops - absorbed; got != uint64(n) {
			tb.Fatalf("leaf absorbed %d of %d probes", got, n)
		}
	})
}

// tcpSegmentBps paces tcpSegment's flow: one 1500 B segment every
// 12 µs, well under the 25 Gbps links, so pacing and not the window
// clocks the flow.
const tcpSegmentBps = 1e9

// tcpSegment is one paced TCP data segment and its ack, host to host
// through one leaf switch. Both come from the network's pool and go back
// to it at the receiving host.
func tcpSegment(tb testing.TB) func(n int) {
	s := sim.New(1)
	nw := fabricNet(tb, s, fabric.LeafP4R)
	for port, addr := range []uint32{1, 2} {
		h := nw.AddHost(port, addr)
		h.Rx = func(pkt *packet.Packet) {
			if f, ok := pkt.Payload.(*netsim.TCPFlow); ok {
				f.HandlePacket(pkt, h)
			}
		}
		if _, err := nw.Sw.AddEntry(fabric.RouteTable, rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(uint64(addr))}, Action: fabric.RouteAction, Data: []uint64{uint64(port)},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := netsim.DefaultTCPConfig()
	cfg.PacedRate = tcpSegmentBps
	flow := netsim.NewTCPFlow(nw.Host(0), usecases.FM, 2, cfg)
	flow.Start()
	tb.Cleanup(flow.Stop)
	s.RunFor(2 * time.Millisecond) // the window opens; from here pacing rules
	interval := time.Duration(1500 * 8 / tcpSegmentBps * float64(time.Second))
	return warm(func(n int) {
		before := flow.DeliveredBytes
		for i := 0; i < n; i++ {
			s.RunFor(interval)
		}
		if segs := (flow.DeliveredBytes - before) / 1500; segs+2 < uint64(n) {
			tb.Fatalf("%d segments delivered over %d paced intervals", segs, n)
		}
	})
}
