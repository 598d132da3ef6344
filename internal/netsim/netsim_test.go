package netsim

import (
	"testing"
	"time"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

var testFM = FieldMap{
	Src: "ipv4.srcAddr", Dst: "ipv4.dstAddr", Proto: "ipv4.protocol",
	Seq: "tcp.seq", Ack: "tcp.ack", IsAck: "tcp.isAck",
}

// routerProgram forwards by exact destination address.
func routerProgram(t testing.TB) *p4.Program {
	t.Helper()
	p := p4.NewProgram("router")
	p.DefineStandardMetadata()
	p.Schema.Define("ipv4.srcAddr", 32)
	dst := p.Schema.Define("ipv4.dstAddr", 32)
	p.Schema.Define("ipv4.protocol", 8)
	p.Schema.Define("tcp.seq", 32)
	p.Schema.Define("tcp.ack", 32)
	p.Schema.Define("tcp.isAck", 1)
	egr := p.Schema.MustID(p4.FieldEgressSpec)
	p.AddAction(&p4.Action{
		Name:   "fwd",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}},
	})
	p.AddAction(&p4.Action{Name: "toss", Body: []p4.Primitive{p4.Drop{}}})
	p.AddTable(&p4.Table{
		Name:          "route",
		Keys:          []p4.MatchKey{{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: p4.MatchExact}},
		ActionNames:   []string{"fwd", "toss"},
		DefaultAction: &p4.ActionCall{Action: "toss"},
		Size:          64,
	})
	p.Ingress = []p4.ControlStmt{p4.Apply{Table: "route"}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

type netRig struct {
	sim *sim.Simulator
	sw  *rmt.Switch
	net *Network
}

func buildNet(t testing.TB, cfg rmt.Config) *netRig {
	t.Helper()
	s := sim.New(1)
	sw, err := rmt.New(s, routerProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(s, sw, 25e9, time.Microsecond)
	return &netRig{sim: s, sw: sw, net: n}
}

func (r *netRig) route(t testing.TB, addr uint32, port int) {
	t.Helper()
	if _, err := r.sw.AddEntry("route", rmt.Entry{
		Keys: []rmt.KeySpec{rmt.ExactKey(uint64(addr))}, Action: "fwd", Data: []uint64{uint64(port)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHostSendDelivery(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	var deliveredAt sim.Time
	b.Rx = func(pkt *packet.Packet) { deliveredAt = r.sim.Now() }
	pkt := r.net.NewPacket()
	pkt.Size = 1500
	pkt.SetName("ipv4.dstAddr", 2)
	a.Send(pkt)
	r.sim.Run()
	if deliveredAt == 0 {
		t.Fatal("packet not delivered")
	}
	// uplink ser (480ns) + prop (1µs) + pipeline (400ns) + egress ser
	// (480ns) + prop (1µs) ≈ 3.36µs
	if deliveredAt < sim.Time(3*time.Microsecond) || deliveredAt > sim.Time(4*time.Microsecond) {
		t.Fatalf("delivered at %v", deliveredAt)
	}
}

func TestHostLinkSerializes(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	var times []sim.Time
	b.Rx = func(pkt *packet.Packet) { times = append(times, r.sim.Now()) }
	for i := 0; i < 3; i++ {
		pkt := r.net.NewPacket()
		pkt.Size = 1500
		pkt.SetName("ipv4.dstAddr", 2)
		a.Send(pkt)
	}
	r.sim.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	// Back-to-back 1500B at 25Gbps: 480ns spacing.
	if gap < sim.Time(400*time.Nanosecond) || gap > sim.Time(600*time.Nanosecond) {
		t.Fatalf("inter-arrival %v", time.Duration(gap))
	}
}

func TestFlooderRate(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	f := NewFlooder(a, testFM, 2, 10e9, 1500)
	f.Start()
	r.sim.RunFor(time.Millisecond)
	f.Stop()
	// 10 Gbps of 1500B packets = ~833 packets/ms.
	if f.Sent < 750 || f.Sent > 900 {
		t.Fatalf("flooder sent %d packets in 1ms", f.Sent)
	}
}

func TestHeartbeater(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	sink := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	got := 0
	sink.Rx = func(pkt *packet.Packet) {
		if pkt.GetName("ipv4.protocol") == 0xFD {
			got++
		}
	}
	hb := NewHeartbeater(a, testFM, 2, time.Microsecond)
	hb.Start()
	r.sim.RunFor(100 * time.Microsecond)
	if hb.Sent < 95 || hb.Sent > 105 {
		t.Fatalf("sent %d heartbeats in 100µs at T_s=1µs", hb.Sent)
	}
	if got < 90 {
		t.Fatalf("delivered %d heartbeats", got)
	}
	// Gray failure: generator alive, signal gone. Let in-flight packets
	// drain before snapshotting.
	hb.Enabled = false
	r.sim.RunFor(10 * time.Microsecond)
	before := got
	r.sim.RunFor(50 * time.Microsecond)
	if got != before {
		t.Fatal("heartbeats delivered after gray failure")
	}
}

// wireFlow connects Rx handlers so data reaches the receiver flow logic
// and ACKs reach the sender.
func wireFlow(sender, receiver *Host) {
	dispatch := func(h *Host) func(*packet.Packet) {
		return func(pkt *packet.Packet) {
			if f, ok := pkt.Payload.(*TCPFlow); ok {
				f.HandlePacket(pkt, h)
			}
		}
	}
	sender.Rx = dispatch(sender)
	receiver.Rx = dispatch(receiver)
}

func TestTCPTransfersAndGrows(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	r.route(t, 1, 0)
	wireFlow(a, b)
	flow := NewTCPFlow(a, testFM, 2, DefaultTCPConfig())
	flow.Start()
	r.sim.RunFor(2 * time.Millisecond)
	flow.Stop()
	if flow.DeliveredBytes == 0 {
		t.Fatal("no bytes delivered")
	}
	// Clean path: no retransmissions, window grew past initial.
	if flow.Retransmits != 0 {
		t.Fatalf("retransmits = %d on loss-free path", flow.Retransmits)
	}
	if flow.cwnd <= tcpInitialCwnd {
		t.Fatalf("cwnd = %v never grew", flow.cwnd)
	}
	// Goodput should be a decent share of the 25 Gbps path over 2ms.
	gbps := float64(flow.DeliveredBytes*8) / (2e-3) / 1e9
	if gbps < 5 {
		t.Fatalf("goodput = %.1f Gbps, want > 5", gbps)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.QueueCapacity = 16
	r := buildNet(t, cfg)
	// Bottleneck: 1 Gbps egress to the receiver.
	r.sw.SetPortBandwidth(1, 1e9)
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	r.route(t, 1, 0)
	wireFlow(a, b)
	tcpCfg := DefaultTCPConfig()
	flow := NewTCPFlow(a, testFM, 2, tcpCfg)
	flow.Start()
	r.sim.RunFor(20 * time.Millisecond)
	flow.Stop()
	if r.sw.Stats().QueueDrops == 0 {
		t.Fatal("no queue drops despite 25:1 over-subscription")
	}
	if flow.Retransmits == 0 {
		t.Fatal("no retransmissions despite drops")
	}
	// Delivery continues at roughly the bottleneck rate: 1 Gbps over
	// 20ms = 2.5 MB; expect a decent fraction.
	if flow.DeliveredBytes < 1_000_000 {
		t.Fatalf("delivered %d bytes, want ~2.5MB area", flow.DeliveredBytes)
	}
}

func TestTwoTCPFlowsShare(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.QueueCapacity = 32
	r := buildNet(t, cfg)
	r.sw.SetPortBandwidth(2, 1e9)
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	dst := r.net.AddHost(2, 3)
	r.route(t, 3, 2)
	r.route(t, 1, 0)
	r.route(t, 2, 1)
	wireFlow(a, dst)
	// dst.Rx dispatches on payload, so both flows work through it; b
	// also needs ACK dispatch.
	b.Rx = a.Rx
	f1 := NewTCPFlow(a, testFM, 3, DefaultTCPConfig())
	f2 := NewTCPFlow(b, testFM, 3, DefaultTCPConfig())
	f1.Start()
	f2.Start()
	r.sim.RunFor(20 * time.Millisecond)
	if f1.DeliveredBytes == 0 || f2.DeliveredBytes == 0 {
		t.Fatalf("flows starved: %d / %d", f1.DeliveredBytes, f2.DeliveredBytes)
	}
	ratio := float64(f1.DeliveredBytes) / float64(f2.DeliveredBytes)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("unfair split: %d vs %d", f1.DeliveredBytes, f2.DeliveredBytes)
	}
}

// TestFloodStarvesThenRecovery is a miniature Fig. 15: a UDP flood
// collapses TCP goodput; once the flood stops, TCP recovers.
func TestFloodStarvesThenRecovery(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.QueueCapacity = 64
	r := buildNet(t, cfg)
	r.sw.SetPortBandwidth(2, 1e9) // 1 Gbps bottleneck
	a := r.net.AddHost(0, 1)
	atk := r.net.AddHost(1, 9)
	dst := r.net.AddHost(2, 3)
	r.route(t, 3, 2)
	r.route(t, 1, 0)
	r.route(t, 9, 1)
	wireFlow(a, dst)
	flow := NewTCPFlow(a, testFM, 3, DefaultTCPConfig())
	flow.Start()

	flood := NewFlooder(atk, testFM, 3, 20e9, 1500)
	r.sim.RunFor(5 * time.Millisecond)
	preFlood := flow.DeliveredBytes
	flood.Start()
	r.sim.RunFor(5 * time.Millisecond)
	duringFlood := flow.DeliveredBytes - preFlood
	flood.Stop()
	r.sim.RunFor(10 * time.Millisecond)
	postFlood := flow.DeliveredBytes - preFlood - duringFlood

	if duringFlood*5 > preFlood {
		t.Fatalf("flood did not suppress TCP: pre=%d during=%d", preFlood, duringFlood)
	}
	if postFlood < preFlood/2 {
		t.Fatalf("TCP did not recover: pre=%d (5ms) post=%d (10ms)", preFlood, postFlood)
	}
}

// dctcpRig builds a 1 Gbps bottleneck with ECN marking above a queue
// depth of 8.
func dctcpRig(t *testing.T, useDCTCP bool) (*sim.Simulator, *rmt.Switch, *TCPFlow) {
	t.Helper()
	prog := routerProgram(t)
	ecn := prog.Schema.Define("ipv4.ecn", 1)
	qd := prog.Schema.MustID(p4.FieldEnqQdepth)
	prog.AddAction(&p4.Action{Name: "mark", Body: []p4.Primitive{
		p4.ModifyField{Dst: ecn, DstName: "ipv4.ecn", Src: p4.ConstOp(1)},
	}})
	prog.AddTable(&p4.Table{
		Name:          "marker",
		ActionNames:   []string{"mark"},
		DefaultAction: &p4.ActionCall{Action: "mark"},
		Size:          1,
	})
	prog.Egress = []p4.ControlStmt{
		p4.If{
			Cond: p4.CondExpr{Left: p4.FieldOp(qd, p4.FieldEnqQdepth), Op: p4.CmpGT, Right: p4.ConstOp(8)},
			Then: []p4.ControlStmt{p4.Apply{Table: "marker"}},
		},
	}
	s := sim.New(1)
	cfg := rmt.DefaultConfig()
	cfg.QueueCapacity = 128
	sw, err := rmt.New(s, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetPortBandwidth(1, 1e9)
	n := New(s, sw, 25e9, time.Microsecond)
	r := &netRig{sim: s, sw: sw, net: n}
	a := n.AddHost(0, 1)
	b := n.AddHost(1, 2)
	r.route(t, 2, 1)
	r.route(t, 1, 0)
	wireFlow(a, b)
	fm := testFM
	fm.ECN = "ipv4.ecn"
	tcfg := DefaultTCPConfig()
	tcfg.DCTCP = useDCTCP
	flow := NewTCPFlow(a, fm, 2, tcfg)
	flow.Start()
	return s, sw, flow
}

// TestDCTCPRespondsToMarks: with the switch marking ECN above a queue
// threshold, a DCTCP flow reacts to marks and loses far fewer packets
// than a loss-driven TCP on the same path.
func TestDCTCPRespondsToMarks(t *testing.T) {
	s, sw, flow := dctcpRig(t, true)
	s.RunFor(20 * time.Millisecond)
	if flow.MarkedAcks == 0 {
		t.Fatal("no ECN-marked ACKs observed")
	}
	if flow.dctcpAlpha <= 0 {
		t.Fatal("DCTCP alpha never moved")
	}
	if flow.DeliveredBytes < 1_000_000 {
		t.Fatalf("delivered %d bytes", flow.DeliveredBytes)
	}
	// The DCTCP signature: steady-state queues hover near the marking
	// threshold instead of filling the buffer like loss-driven TCP.
	sampleDepth := func(s *sim.Simulator, sw *rmt.Switch) float64 {
		sum, n := 0, 0
		tk := s.Every(100*time.Microsecond, func() {
			sum += sw.QueueDepth(1)
			n++
		})
		s.RunFor(20 * time.Millisecond)
		tk.Stop()
		return float64(sum) / float64(n)
	}
	dctcpDepth := sampleDepth(s, sw)

	s2, sw2, flow2 := dctcpRig(t, false)
	s2.RunFor(20 * time.Millisecond) // warmup, same as DCTCP run
	plainDepth := sampleDepth(s2, sw2)
	if flow2.DeliveredBytes < 1_000_000 {
		t.Fatalf("plain TCP delivered %d bytes", flow2.DeliveredBytes)
	}
	if dctcpDepth >= plainDepth/2 {
		t.Fatalf("steady-state queue: DCTCP %.1f vs plain %.1f packets; marking should keep queues short", dctcpDepth, plainDepth)
	}
}
