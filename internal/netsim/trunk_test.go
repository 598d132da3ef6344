package netsim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// chainRig is a linear chain of switches: host a on the first switch,
// host b on the last, trunks in between.
//
//	a -- sw0 ==trunk0== sw1 ==trunk1== sw2 -- b
type chainRig struct {
	sim    *sim.Simulator
	nets   []*Network
	trunks []*Trunk
	a, b   *Host
}

const (
	chainDstAddr = 99
	chainSrcAddr = 1
)

// buildChain wires n switches in a line on one simulator. Trunk i gets
// delay delays[i] and profile profs[i]. Downlink port on each switch is
// even-numbered: a sits on sw0 port 0, b on the last switch port 2.
func buildChain(t testing.TB, delays []time.Duration, profs []faults.LinkProfile) *chainRig {
	t.Helper()
	n := len(delays) + 1
	s := sim.New(1)
	r := &chainRig{sim: s}
	for i := 0; i < n; i++ {
		sw, err := rmt.New(s, routerProgram(t), rmt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r.nets = append(r.nets, New(s, sw, 25e9, time.Microsecond))
	}
	for i := 0; i < n-1; i++ {
		// Uplink toward the tail is port 10, the downlink from the
		// previous switch lands on port 11.
		tr, err := ConnectTrunk(r.nets[i], 10, r.nets[i+1], 11, delays[i], profs[i], int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		r.trunks = append(r.trunks, tr)
	}
	// Route dst through every switch: intermediate hops forward out the
	// trunk port, the tail delivers to the host port.
	for i, net := range r.nets {
		port := 10
		if i == n-1 {
			port = 2
		}
		if _, err := net.Sw.AddEntry("route", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(chainDstAddr)}, Action: "fwd", Data: []uint64{uint64(port)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.a = r.nets[0].AddHost(0, chainSrcAddr)
	r.b = r.nets[n-1].AddHost(2, chainDstAddr)
	return r
}

func (r *chainRig) sendSeq(seq uint64) {
	pkt := r.nets[0].NewPacket()
	pkt.Size = 200
	pkt.SetName(testFM.Src, chainSrcAddr)
	pkt.SetName(testFM.Dst, chainDstAddr)
	pkt.SetName(testFM.Seq, seq)
	r.a.Send(pkt)
}

// TestDroppedNoPeer pins satellite 1: a packet routed out a port with
// neither host nor trunk is dropped and counted, never lost silently.
func TestDroppedNoPeer(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	r.route(t, 7, 5) // port 5 has no host and no trunk
	pkt := r.net.NewPacket()
	pkt.Size = 100
	pkt.SetName(testFM.Src, 1)
	pkt.SetName(testFM.Dst, 7)
	a.Send(pkt)
	r.sim.RunFor(time.Millisecond)
	if got := r.net.Stats().DroppedNoPeer; got != 1 {
		t.Fatalf("DroppedNoPeer = %d, want 1", got)
	}
}

// TestTrunkEndpointConflicts pins ConnectTrunk's wiring checks.
func TestTrunkEndpointConflicts(t *testing.T) {
	s := sim.New(1)
	swA, _ := rmt.New(s, routerProgram(t), rmt.DefaultConfig())
	swB, _ := rmt.New(s, routerProgram(t), rmt.DefaultConfig())
	a, b := New(s, swA, 25e9, time.Microsecond), New(s, swB, 25e9, time.Microsecond)
	a.AddHost(3, 1)
	if _, err := ConnectTrunk(a, 3, b, 0, time.Microsecond, faults.LinkNone(), 1); err == nil {
		t.Fatal("trunk on a host port: want error")
	}
	if _, err := ConnectTrunk(a, 4, b, 0, time.Microsecond, faults.LinkNone(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectTrunk(a, 4, b, 1, time.Microsecond, faults.LinkNone(), 1); err == nil {
		t.Fatal("second trunk on one port: want error")
	}
	other := sim.New(2)
	swC, _ := rmt.New(other, routerProgram(t), rmt.DefaultConfig())
	c := New(other, swC, 25e9, time.Microsecond)
	if _, err := ConnectTrunk(a, 5, c, 0, time.Microsecond, faults.LinkNone(), 1); err == nil {
		t.Fatal("trunk across simulators: want error")
	}
}

// TestChainDelayAccumulates pins that each hop's propagation delay
// lands on the sim clock: the same send through the same 3-switch chain
// arrives later by exactly the sum of the trunk delays.
func TestChainDelayAccumulates(t *testing.T) {
	arrivalWith := func(d1, d2 time.Duration) sim.Time {
		r := buildChain(t, []time.Duration{d1, d2}, []faults.LinkProfile{faults.LinkNone(), faults.LinkNone()})
		var at sim.Time
		r.b.Rx = func(pkt *packet.Packet) { at = r.sim.Now() }
		r.sendSeq(1)
		r.sim.RunFor(10 * time.Millisecond)
		if at == 0 {
			t.Fatal("packet never arrived")
		}
		return at
	}
	base := arrivalWith(0, 0)
	d1, d2 := 5*time.Microsecond, 9*time.Microsecond
	got := arrivalWith(d1, d2)
	if want := base.Add(d1 + d2); got != want {
		t.Fatalf("arrival with %v+%v trunk delay = %v, want %v (base %v)", d1, d2, got, want, base)
	}
}

// TestChainFIFOPerLink pins that a trunk preserves send order when its
// delay is uniform: packets injected back-to-back arrive in sequence
// after two hops.
func TestChainFIFOPerLink(t *testing.T) {
	r := buildChain(t, []time.Duration{5 * time.Microsecond, 5 * time.Microsecond},
		[]faults.LinkProfile{faults.LinkNone(), faults.LinkNone()})
	var got []uint64
	r.b.Rx = func(pkt *packet.Packet) { got = append(got, pkt.GetName(testFM.Seq)) }
	const n = 20
	for i := uint64(1); i <= n; i++ {
		r.sendSeq(i)
	}
	r.sim.RunFor(10 * time.Millisecond)
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("position %d: seq %d, want %d (FIFO violated)", i, seq, i+1)
		}
	}
}

// TestTrunkAdminDown pins the administrative down/up cycle: packets
// sent while the trunk is down are counted as AdminDownDrops (not Lost
// or PartitionDrops), and delivery resumes after SetAdminDown(false).
func TestTrunkAdminDown(t *testing.T) {
	r := buildChain(t, []time.Duration{5 * time.Microsecond},
		[]faults.LinkProfile{faults.LinkNone()})
	delivered := 0
	r.b.Rx = func(pkt *packet.Packet) { delivered++ }

	r.trunks[0].SetAdminDown(true)
	if !r.trunks[0].AdminDown() {
		t.Fatal("AdminDown() = false after SetAdminDown(true)")
	}
	const down = 10
	for i := uint64(1); i <= down; i++ {
		r.sendSeq(i)
	}
	r.sim.RunFor(time.Millisecond)
	st := r.trunks[0].Stats(0)
	if st.AdminDownDrops != down || st.Lost != 0 || st.PartitionDrops != 0 || delivered != 0 {
		t.Fatalf("down window: stats %+v delivered %d, want %d admin drops only", st, delivered, down)
	}

	r.trunks[0].SetAdminDown(false)
	const up = 5
	for i := uint64(1); i <= up; i++ {
		r.sendSeq(i)
	}
	r.sim.RunFor(time.Millisecond)
	st = r.trunks[0].Stats(0)
	if st.AdminDownDrops != down || st.Delivered != up || delivered != up {
		t.Fatalf("after restore: stats %+v delivered %d, want %d delivered", st, delivered, up)
	}
}

// TestTrunkGrayComposesWithLoss pins gray-mode accounting: gray drops
// are partial, counted separately from profile loss, and SetGray(0)
// heals the link completely.
func TestTrunkGrayComposesWithLoss(t *testing.T) {
	lossy := faults.LinkProfile{Name: "lossy", Loss: 0.2}
	r := buildChain(t, []time.Duration{5 * time.Microsecond},
		[]faults.LinkProfile{lossy})
	delivered := 0
	r.b.Rx = func(pkt *packet.Packet) { delivered++ }

	r.trunks[0].SetGray(0.5)
	const n = 400
	for i := uint64(1); i <= n; i++ {
		r.sendSeq(i)
	}
	r.sim.RunFor(10 * time.Millisecond)
	st := r.trunks[0].Stats(0)
	if st.GrayDrops == 0 || st.GrayDrops == n {
		t.Fatalf("GrayDrops = %d of %d, want partial silent drop", st.GrayDrops, n)
	}
	if st.Lost == 0 {
		t.Fatalf("Lost = 0, want profile loss composing with gray (stats %+v)", st)
	}
	if got := st.GrayDrops + st.Lost + st.Delivered; got != n {
		t.Fatalf("drop reasons don't partition sends: %d+%d+%d = %d, want %d",
			st.GrayDrops, st.Lost, st.Delivered, got, n)
	}
	// Gray rate ~0.5 of sends: bound it loosely to catch the rate being
	// applied to the wrong population.
	if st.GrayDrops < n/4 || st.GrayDrops > 3*n/4 {
		t.Fatalf("GrayDrops = %d of %d, want ~%d at rate 0.5", st.GrayDrops, n, n/2)
	}

	// Heal: no further gray drops.
	r.trunks[0].SetGray(0)
	before := st.GrayDrops
	for i := uint64(1); i <= 100; i++ {
		r.sendSeq(i)
	}
	r.sim.RunFor(10 * time.Millisecond)
	if st = r.trunks[0].Stats(0); st.GrayDrops != before {
		t.Fatalf("GrayDrops grew after heal: %d -> %d", before, st.GrayDrops)
	}
}

// TestChainLossIsolation pins that a lossy profile on one trunk leaves
// the other trunk untouched: traffic entering past the lossy hop is
// delivered in full, and everything surviving the lossy hop crosses the
// clean hop.
func TestChainLossIsolation(t *testing.T) {
	lossy := faults.LinkProfile{Name: "lossy", Loss: 0.5}
	r := buildChain(t, []time.Duration{5 * time.Microsecond, 5 * time.Microsecond},
		[]faults.LinkProfile{lossy, faults.LinkNone()})
	delivered := 0
	r.b.Rx = func(pkt *packet.Packet) { delivered++ }

	const n = 200
	for i := uint64(1); i <= n; i++ {
		r.sendSeq(i)
	}
	// A second source on the middle switch only crosses the clean trunk.
	mid := r.nets[1].AddHost(0, 50)
	sendMid := func() {
		pkt := r.nets[1].NewPacket()
		pkt.Size = 200
		pkt.SetName(testFM.Src, 50)
		pkt.SetName(testFM.Dst, chainDstAddr)
		mid.Send(pkt)
	}
	const m = 50
	for i := 0; i < m; i++ {
		sendMid()
	}
	r.sim.RunFor(20 * time.Millisecond)

	s0, s1 := r.trunks[0].Stats(0), r.trunks[1].Stats(0)
	if s0.Lost == 0 || s0.Lost == s0.Sent {
		t.Fatalf("lossy trunk: Lost = %d of Sent = %d, want partial loss", s0.Lost, s0.Sent)
	}
	if s1.Lost != 0 {
		t.Fatalf("clean trunk lost %d packets, want 0", s1.Lost)
	}
	// Everything surviving trunk0 plus all mid-switch traffic crosses trunk1.
	if want := s0.Delivered + m; s1.Sent != want {
		t.Fatalf("clean trunk Sent = %d, want %d (trunk0 delivered %d + %d mid)", s1.Sent, want, s0.Delivered, m)
	}
	if want := int(s0.Delivered) + m; delivered != want {
		t.Fatalf("host received %d, want %d", delivered, want)
	}
}
