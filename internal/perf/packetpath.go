package perf

import (
	"testing"
	"time"

	"repro/internal/compiler"
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
func fabricNet(b *testing.B, s *sim.Simulator, src string) *netsim.Network {
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return netsim.New(s, sw, 25e9, time.Microsecond)
}

// benchTrunkHop measures one fabric probe's life: drawn from the spine's
// pool, injected at the trunk, carried one hop, translated into a packet
// from the leaf's pool, then counted and absorbed by the leaf's hb_tbl.
// Both packets go back to their pools, so steady state allocates
// nothing.
func benchTrunkHop(b *testing.B) {
	s := sim.New(1)
	spine, leaf := fabricNet(b, s, fabric.SpineP4R), fabricNet(b, s, fabric.LeafP4R)
	if _, err := leaf.Sw.AddEntry(fabric.HeartbeatTable, rmt.Entry{
		Keys: []rmt.KeySpec{rmt.ExactKey(fabric.HeartbeatProto)}, Action: fabric.HeartbeatAction,
	}); err != nil {
		b.Fatal(err)
	}
	tr, err := netsim.ConnectTrunk(leaf, 4, spine, 0, time.Microsecond, faults.LinkNone(), 1)
	if err != nil {
		b.Fatal(err)
	}
	proto := spine.Sw.Program().Schema.MustID(usecases.FM.Proto)
	hop := func() {
		pkt := spine.NewPacket()
		pkt.Size, pkt.Priority = 64, 7
		pkt.Set(proto, fabric.HeartbeatProto)
		tr.Inject(1, pkt)
		s.Run()
	}
	const warm = 100 // fills the pools and the event freelist
	for i := 0; i < warm; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
	b.StopTimer()
	if got := leaf.Sw.Stats().IngressDrops; got != uint64(warm+b.N) {
		b.Fatalf("leaf absorbed %d probes, want %d", got, warm+b.N)
	}
}

// tcpSegmentBps paces benchTCPSegment's flow: one 1500 B segment every
// 12 µs, well under the 25 Gbps links, so pacing and not the window
// clocks the flow.
const tcpSegmentBps = 1e9

// benchTCPSegment measures one paced TCP data segment and its ack, host
// to host through one leaf switch. Both come from the network's pool and
// go back to it at the receiving host.
func benchTCPSegment(b *testing.B) {
	s := sim.New(1)
	n := fabricNet(b, s, fabric.LeafP4R)
	for port, addr := range []uint32{1, 2} {
		h := n.AddHost(port, addr)
		h.Rx = func(pkt *packet.Packet) {
			if f, ok := pkt.Payload.(*netsim.TCPFlow); ok {
				f.HandlePacket(pkt, h)
			}
		}
		if _, err := n.Sw.AddEntry(fabric.RouteTable, rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(uint64(addr))}, Action: fabric.RouteAction, Data: []uint64{uint64(port)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	cfg := netsim.DefaultTCPConfig()
	cfg.PacedRate = tcpSegmentBps
	flow := netsim.NewTCPFlow(n.Host(0), usecases.FM, 2, cfg)
	flow.Start()
	s.RunFor(2 * time.Millisecond) // the window opens; from here pacing rules
	interval := time.Duration(1500 * 8 / tcpSegmentBps * float64(time.Second))
	before := flow.DeliveredBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(interval)
	}
	b.StopTimer()
	flow.Stop()
	if segs := (flow.DeliveredBytes - before) / 1500; segs+2 < uint64(b.N) {
		b.Fatalf("%d segments delivered over %d paced intervals", segs, b.N)
	}
}
