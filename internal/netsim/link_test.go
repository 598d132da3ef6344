package netsim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// ---- Message link ----

func TestLinkDeliversOwnedCopies(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, time.Microsecond, faults.LinkNone(), 7)
	var got [][]byte
	// msg is the link's and only lent for the callback: keep a copy.
	l.SetRecv(LinkSideB, func(msg []byte) { got = append(got, append([]byte{}, msg...)) })

	buf := []byte{1, 2, 3}
	l.Send(LinkSideA, buf)
	buf[0] = 99 // caller reuses its buffer; the wire must have copied
	l.Send(LinkSideA, []byte{})
	l.Send(LinkSideA, nil)
	s.RunFor(10 * time.Microsecond)

	if len(got) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(got))
	}
	if got[0][0] != 1 {
		t.Fatalf("delivery aliases the sender's buffer: got %v", got[0])
	}
	// Zero-length messages are legal and travel like any other.
	if len(got[1]) != 0 || len(got[2]) != 0 {
		t.Fatalf("zero-length messages mangled: %v, %v", got[1], got[2])
	}
	st := l.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// ownershipMsg fills buf with message id: an 8-byte id, then a payload
// whose length and bytes follow from the id, so a receiver can check a
// frame against nothing but itself.
func ownershipMsg(buf []byte, id uint64) []byte {
	buf = buf[:0]
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(id>>(8*i)))
	}
	for j := uint64(0); j < id*37%200; j++ {
		buf = append(buf, byte(id+j))
	}
	return buf
}

// TestLinkFrameOwnership pins the ownership rules under every delivery
// perturbation at once (loss, duplication with skew, reordering): the
// sender overwrites its one buffer the moment Send returns, the receiver
// scribbles over each frame once it has read it, and still every
// delivery — duplicates and late arrivals included — carries exactly the
// bytes that were sent. In-flight frames therefore never share storage
// with the sender, with each other, or with a recycled buffer.
func TestLinkFrameOwnership(t *testing.T) {
	s := sim.New(1)
	prof := faults.LinkProfile{
		Name: "ownership", Loss: 0.02,
		Dup: 0.2, DupDelay: 7 * time.Microsecond,
		Reorder: 0.2, ReorderDelay: 9 * time.Microsecond,
	}
	l := NewLink(s, time.Microsecond, prof, 11)
	const n = 5000
	seen := make([]int, n)
	var want []byte
	l.SetRecv(LinkSideB, func(msg []byte) {
		if len(msg) < 8 {
			t.Fatalf("runt frame %x", msg)
		}
		var id uint64
		for i := 0; i < 8; i++ {
			id |= uint64(msg[i]) << (8 * i)
		}
		if id >= n {
			t.Fatalf("frame carries id %d: corrupted", id)
		}
		want = ownershipMsg(want, id)
		if string(msg) != string(want) {
			t.Fatalf("frame %d delivered as %x, sent as %x", id, msg, want)
		}
		seen[id]++
		for i := range msg {
			msg[i] = 0xEE
		}
	})
	buf := make([]byte, 0, 256)
	for i := 0; i < n; i++ {
		id := uint64(i)
		s.Schedule(time.Duration(i)*500*time.Nanosecond, func() {
			buf = ownershipMsg(buf, id)
			l.Send(LinkSideA, buf)
			for j := range buf {
				buf[j] = 0xFF
			}
		})
	}
	s.Run()

	st := l.Stats()
	var delivered, dups uint64
	for _, c := range seen {
		delivered += uint64(c)
		if c > 1 {
			dups++
		}
	}
	if delivered != st.Delivered || st.Delivered != n-st.Lost+st.Duplicated {
		t.Fatalf("checked %d deliveries; stats %+v", delivered, st)
	}
	if st.Lost == 0 || dups == 0 || st.Reordered == 0 {
		t.Fatalf("profile exercised nothing: %+v, %d duplicated ids", st, dups)
	}
}

// TestLinkRecyclesFrames: once its buffers have grown to the traffic, a
// send-and-deliver cycle allocates nothing.
func TestLinkRecyclesFrames(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, time.Microsecond, faults.LinkNone(), 7)
	var sum int
	l.SetRecv(LinkSideB, func(msg []byte) { sum += len(msg) })
	msg := make([]byte, 700)
	cycle := func() {
		l.Send(LinkSideA, msg)
		l.Send(LinkSideA, msg[:64])
		s.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("a warm send/deliver cycle allocates %v times", n)
	}
	if sum == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestLinkLossAndDupAccounting(t *testing.T) {
	s := sim.New(1)
	prof := faults.LinkProfile{Name: "test", Loss: 0.3, Dup: 0.3, DupDelay: time.Microsecond}
	l := NewLink(s, time.Microsecond, prof, 42)
	delivered := 0
	l.SetRecv(LinkSideB, func([]byte) { delivered++ })
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(LinkSideA, []byte{byte(i)})
	}
	s.RunFor(time.Millisecond)
	st := l.Stats()
	if st.Sent != n {
		t.Fatalf("Sent = %d, want %d", st.Sent, n)
	}
	if st.Lost == 0 || st.Duplicated == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}
	// Every send is either lost or delivered; duplicates add deliveries.
	if st.Delivered != uint64(delivered) || st.Delivered != st.Sent-st.Lost+st.Duplicated {
		t.Fatalf("accounting broken: %+v, receiver saw %d", st, delivered)
	}
}

func TestLinkPeriodicPartitionWindows(t *testing.T) {
	s := sim.New(1)
	prof := faults.LinkProfile{Name: "part", PartitionEvery: 100 * time.Microsecond, PartitionFor: 50 * time.Microsecond}
	l := NewLink(s, time.Microsecond, prof, 1)
	delivered := 0
	l.SetRecv(LinkSideB, func([]byte) { delivered++ })

	// t=10µs: link up; t=120µs: inside the [100,150) window.
	s.Schedule(10*time.Microsecond, func() {
		if l.Partitioned() {
			t.Error("link partitioned during up window")
		}
		l.Send(LinkSideA, []byte{1})
	})
	s.Schedule(120*time.Microsecond, func() {
		if !l.Partitioned() {
			t.Error("link up inside partition window")
		}
		l.Send(LinkSideA, []byte{2})
	})
	s.RunFor(200 * time.Microsecond)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (partition send dropped)", delivered)
	}
	if st := l.Stats(); st.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}
}

// TestLinkPartitionEdges pins the two delivery rules around a partition
// window: a message already in flight when the window opens dies at
// arrival time, while a message whose (reorder-delayed) arrival lands
// after the heal is delivered — the reorder-across-heal case the
// transport must survive.
func TestLinkPartitionEdges(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 10*time.Microsecond, faults.LinkNone(), 1)
	var got []byte
	l.SetRecv(LinkSideB, func(msg []byte) { got = append(got, msg[0]) })

	// Message "a": in flight when the window opens, due to arrive inside
	// it — dies with the partition.
	l.Send(LinkSideA, []byte{'a'})                                    // arrives t=10µs
	s.Schedule(5*time.Microsecond, func() { l.SetPartitioned(true) }) // window opens t=5µs
	s.Schedule(12*time.Microsecond, func() { l.SetPartitioned(false) })

	// Message "c": the window opens AND heals while it is in flight; its
	// arrival lands after the heal — delivered. This is the
	// reorder-across-heal shape: the wire held the message over a whole
	// partition window, and the transport above must cope with its
	// arrival as if nothing happened.
	s.Schedule(40*time.Microsecond, func() { l.Send(LinkSideA, []byte{'c'}) }) // arrives t=50µs
	s.Schedule(42*time.Microsecond, func() { l.SetPartitioned(true) })
	s.Schedule(48*time.Microsecond, func() { l.SetPartitioned(false) })

	s.RunFor(100 * time.Microsecond)
	if string(got) != "c" {
		t.Fatalf("delivered %q, want only %q", got, "c")
	}
	if st := l.Stats(); st.PartitionDrops != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want 1 partition drop and 1 delivery", st)
	}
}

// TestLinkPeerDown pins the dead-endpoint mode: messages toward a down
// side die at send time, in-flight messages die at arrival, traffic the
// other way is untouched, and the wire itself never reports partitioned.
func TestLinkPeerDown(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 10*time.Microsecond, faults.LinkNone(), 1)
	var toB, toA int
	l.SetRecv(LinkSideB, func([]byte) { toB++ })
	l.SetRecv(LinkSideA, func([]byte) { toA++ })

	// In flight toward B when B dies at t=5µs: dies at arrival.
	l.Send(LinkSideA, []byte{1})
	s.Schedule(5*time.Microsecond, func() { l.SetPeerDown(LinkSideB, true) })
	// Sent toward the dead B: dies at send.
	s.Schedule(20*time.Microsecond, func() { l.Send(LinkSideA, []byte{2}) })
	// The reverse direction still works — B's process is dead but A's is
	// not, and in this model a dead side going quiet is the transport's
	// job, not the wire's; the wire only kills what lands on the corpse.
	s.Schedule(20*time.Microsecond, func() { l.Send(LinkSideB, []byte{3}) })
	s.Schedule(40*time.Microsecond, func() {
		if l.Partitioned() {
			t.Error("peer-down must not read as a partition")
		}
		if !l.PeerDown(LinkSideB) || l.PeerDown(LinkSideA) {
			t.Error("PeerDown sides wrong")
		}
		l.SetPeerDown(LinkSideB, false)
		l.Send(LinkSideA, []byte{4})
	})
	s.RunFor(100 * time.Microsecond)
	if toB != 1 || toA != 1 {
		t.Fatalf("delivered toB=%d toA=%d, want 1 and 1", toB, toA)
	}
	if st := l.Stats(); st.PeerDownDrops != 2 || st.PartitionDrops != 0 {
		t.Fatalf("stats = %+v, want 2 peer-down drops, no partition drops", st)
	}
}

func TestLinkMaxDelayBoundsArrivals(t *testing.T) {
	s := sim.New(1)
	prof := faults.LinkProfile{
		Name: "skewed",
		Dup:  0.5, DupDelay: 3 * time.Microsecond,
		Reorder: 0.5, ReorderDelay: 2 * time.Microsecond,
		Jitter: time.Microsecond,
	}
	l := NewLink(s, time.Microsecond, prof, 99)
	if want := 7 * time.Microsecond; l.MaxDelay() != want {
		t.Fatalf("MaxDelay = %v, want %v", l.MaxDelay(), want)
	}
	var lastArrival sim.Time
	l.SetRecv(LinkSideB, func([]byte) { lastArrival = s.Now() })
	var lastSend sim.Time
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * 10 * time.Microsecond
		s.Schedule(at, func() {
			l.Send(LinkSideA, []byte{1})
		})
	}
	lastSend = sim.Time(0).Add(499 * 10 * time.Microsecond)
	s.RunFor(6 * time.Millisecond)
	if lastArrival > lastSend.Add(l.MaxDelay()) {
		t.Fatalf("arrival at %v exceeds send %v + MaxDelay %v", lastArrival, lastSend, l.MaxDelay())
	}
	// Every copy of every message must respect the bound; spot-check via
	// stats that dup/reorder actually exercised the skew paths.
	st := l.Stats()
	if st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("skew paths never exercised: %+v", st)
	}
}

// ---- TCP receiver edges ----
//
// These drive TCPFlow's receiver path directly with hand-crafted
// segments, pinning the edge cases an unreliable wire produces: the
// same segment arriving twice (retransmission raced the original), a
// hole filled only after later segments buffered (reordering across a
// partition heal), and frames that are not flow traffic at all.

// tcpEdgeRig builds a sender/receiver pair with ACKs routed back to the
// sender host, whose Rx records cumulative ACK values instead of
// feeding the congestion machinery.
func tcpEdgeRig(t *testing.T) (*netRig, *TCPFlow, *Host, *[]uint64) {
	t.Helper()
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	r.route(t, 1, 0)
	flow := NewTCPFlow(a, testFM, 2, DefaultTCPConfig())
	flow.Stop() // receiver-only: keep the sender machinery quiet
	acks := new([]uint64)
	a.Rx = func(pkt *packet.Packet) {
		if pkt.GetName(testFM.IsAck) == 1 {
			*acks = append(*acks, pkt.GetName(testFM.Ack))
		}
	}
	return r, flow, b, acks
}

func (r *netRig) dataSegment(f *TCPFlow, seq uint64) *packet.Packet {
	pkt := r.net.NewPacket()
	pkt.Size = tcpMSS
	pkt.SetName(testFM.Src, 2)
	pkt.SetName(testFM.Dst, 1)
	pkt.SetName(testFM.Proto, ProtoTCP)
	pkt.SetName(testFM.Seq, seq)
	pkt.SetName(testFM.IsAck, 0)
	pkt.Payload = f
	return pkt
}

// TestTCPDuplicateAfterRetransmit: a retransmission whose original was
// merely delayed means the receiver sees the same segment twice. The
// duplicate must not double-count delivered bytes, and both copies must
// be re-ACKed so the sender's cumulative state converges.
func TestTCPDuplicateAfterRetransmit(t *testing.T) {
	r, flow, b, acks := tcpEdgeRig(t)
	flow.HandlePacket(r.dataSegment(flow, 0), b)
	flow.HandlePacket(r.dataSegment(flow, 0), b) // the late original
	r.sim.RunFor(time.Millisecond)

	if want := uint64(tcpMSS); flow.DeliveredBytes != want {
		t.Fatalf("DeliveredBytes = %d, want %d (duplicate must not double-count)", flow.DeliveredBytes, want)
	}
	if len(*acks) != 2 || (*acks)[0] != 1 || (*acks)[1] != 1 {
		t.Fatalf("acks = %v, want [1 1] (duplicate still re-ACKed)", *acks)
	}
	if flow.rcvNext != 1 || len(flow.rcvBuf) != 0 {
		t.Fatalf("receiver state rcvNext=%d buf=%v", flow.rcvNext, flow.rcvBuf)
	}
}

// TestTCPReorderAcrossHeal: segments 1 and 2 arrive while segment 0 is
// stuck behind a partition; when the heal finally delivers 0, the whole
// run drains in order and the cumulative ACK jumps straight to 3.
func TestTCPReorderAcrossHeal(t *testing.T) {
	r, flow, b, acks := tcpEdgeRig(t)
	var order []uint64
	flow.OnDeliver = func(sim.Time, int) { order = append(order, flow.rcvNext) }

	flow.HandlePacket(r.dataSegment(flow, 1), b)
	flow.HandlePacket(r.dataSegment(flow, 2), b)
	if flow.DeliveredBytes != 0 {
		t.Fatalf("delivered %d bytes before the hole filled", flow.DeliveredBytes)
	}
	flow.HandlePacket(r.dataSegment(flow, 0), b) // the heal
	r.sim.RunFor(time.Millisecond)

	if want := uint64(3 * tcpMSS); flow.DeliveredBytes != want {
		t.Fatalf("DeliveredBytes = %d, want %d", flow.DeliveredBytes, want)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("delivery order = %v, want [0 1 2]", order)
	}
	// Two dup ACKs at 0 while buffering, then the jump to 3.
	if len(*acks) != 3 || (*acks)[0] != 0 || (*acks)[1] != 0 || (*acks)[2] != 3 {
		t.Fatalf("acks = %v, want [0 0 3]", *acks)
	}
	if len(flow.rcvBuf) != 0 {
		t.Fatalf("rcvBuf not drained: %v", flow.rcvBuf)
	}
}

// TestTCPIgnoresForeignTraffic: frames without a flow payload pass
// through a wireFlow'd host untouched — no crash, no state change.
func TestTCPIgnoresForeignTraffic(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	r.route(t, 1, 0)
	wireFlow(a, b)
	flow := NewTCPFlow(a, testFM, 2, DefaultTCPConfig())

	pkt := r.net.NewPacket()
	pkt.Size = 64
	pkt.SetName(testFM.Dst, 2)
	pkt.SetName(testFM.Seq, 5) // looks like data, but carries no flow
	a.Send(pkt)
	r.sim.RunFor(time.Millisecond)
	if flow.DeliveredBytes != 0 || flow.rcvNext != 0 {
		t.Fatalf("foreign packet mutated flow state: bytes=%d rcvNext=%d", flow.DeliveredBytes, flow.rcvNext)
	}
}
