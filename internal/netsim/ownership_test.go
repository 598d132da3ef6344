package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rmt"
)

// TestEveryPacketReturnsToItsPool runs every way a packet can live and
// die in a network — host deliveries, a host with no Rx, a switch drop,
// a no-peer drop, each of a trunk's four loss branches, a flooder and a
// TCP flow across two trunks — and checks, once the simulator is
// quiesced, that every packet each network's pool ever made is back in
// it. A missed release leaves a pool short; a double release panics in
// Pool.Put.
func TestEveryPacketReturnsToItsPool(t *testing.T) {
	r := buildChain(t, []time.Duration{time.Microsecond, time.Microsecond},
		[]faults.LinkProfile{{Name: "lossy", Loss: 0.2}, faults.LinkNone()})
	for i, n := range r.nets { // acks back toward a
		port := 11
		if i == 0 {
			port = 0
		}
		if _, err := n.Sw.AddEntry("route", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(chainSrcAddr)}, Action: "fwd", Data: []uint64{uint64(port)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	wireFlow(r.a, r.b)
	head := r.nets[0]
	// Host 77 on port 4 has no Rx; port 5, where 78 is routed, has no peer.
	head.AddHost(4, 77)
	for addr, port := range map[uint64]uint64{77: 4, 78: 5} {
		if _, err := head.Sw.AddEntry("route", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(addr)}, Action: "fwd", Data: []uint64{port},
		}); err != nil {
			t.Fatal(err)
		}
	}
	send := func(dst uint64, n int) {
		for i := 0; i < n; i++ {
			pkt := head.NewPacket()
			pkt.Size = 200
			pkt.SetName(testFM.Src, chainSrcAddr)
			pkt.SetName(testFM.Dst, dst)
			r.a.Send(pkt)
		}
		r.sim.RunFor(time.Millisecond)
	}
	send(77, 5)  // host without Rx
	send(78, 5)  // no peer
	send(123, 5) // no route: the switch drops
	tr := r.trunks[0]
	tr.SetAdminDown(true)
	send(chainDstAddr, 20)
	tr.SetAdminDown(false)
	tr.SetPartitioned(true)
	send(chainDstAddr, 20)
	tr.SetPartitioned(false)
	tr.SetGray(0.5)
	send(chainDstAddr, 100) // gray and profile loss both draw
	tr.SetGray(0)

	flood := NewFlooder(r.a, testFM, chainDstAddr, 1e9, 1500)
	flood.Start()
	flow := NewTCPFlow(r.a, testFM, chainDstAddr, DefaultTCPConfig())
	flow.Start()
	r.sim.RunFor(3 * time.Millisecond)
	flood.Stop()
	flow.Stop()
	r.sim.Run()

	st := tr.Stats(0)
	if st.AdminDownDrops == 0 || st.PartitionDrops == 0 || st.GrayDrops == 0 || st.Lost == 0 || st.Delivered == 0 {
		t.Fatalf("a trunk branch was not exercised: %+v", st)
	}
	if head.Stats().DroppedNoPeer == 0 || head.Sw.Stats().IngressDrops == 0 {
		t.Fatalf("no-peer %d, switch drops %d: want both", head.Stats().DroppedNoPeer, head.Sw.Stats().IngressDrops)
	}
	if flow.DeliveredBytes == 0 || tr.Stats(1).Delivered == 0 {
		t.Fatalf("TCP delivered %d bytes, %d acks crossed back", flow.DeliveredBytes, tr.Stats(1).Delivered)
	}
	for i, n := range r.nets {
		if made, idle := n.pool.Counts(); made == 0 || idle != made {
			t.Errorf("network %d: pool made %d packets and holds %d", i, made, idle)
		}
	}
}

// TestSetGrayClampsRate pins SetGray's domain: a rate that is not above
// 0 — NaN included, which used to be stored and left the trunk silently
// healthy while reporting it gray — heals the link, and rates above 1
// drop everything.
func TestSetGrayClampsRate(t *testing.T) {
	tr := buildChain(t, []time.Duration{time.Microsecond}, []faults.LinkProfile{faults.LinkNone()}).trunks[0]
	for _, c := range []struct{ in, want float64 }{
		{0.3, 0.3}, {math.NaN(), 0}, {-0.5, 0}, {0, 0}, {1.5, 1}, {math.Inf(1), 1},
	} {
		tr.SetGray(c.in)
		if got := tr.GrayRate(); got != c.want {
			t.Errorf("SetGray(%g): GrayRate() = %g, want %g", c.in, got, c.want)
		}
	}
}
