package fabric

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// TestFabricBuild pins topology construction: node/trunk counts, the
// schema-compatibility gate, and a clean start/stop with every agent's
// prologue running over its own control channel.
func TestFabricBuild(t *testing.T) {
	s := sim.New(1)
	f, err := Build(s, Config{Leaves: 2, Spines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Leaves) != 2 || len(f.Spines) != 2 {
		t.Fatalf("got %d leaves, %d spines", len(f.Leaves), len(f.Spines))
	}
	if len(f.Trunks) != 2 || len(f.Trunks[0]) != 2 {
		t.Fatalf("trunk matrix %dx%d, want 2x2", len(f.Trunks), len(f.Trunks[0]))
	}
	// Leaf agents need their native reaction before starting.
	for _, leaf := range f.Leaves {
		det := usecases.NewDosDetector(usecases.DefaultDosConfig())
		if err := leaf.Agent.RegisterNativeReaction("dos_react", det.React); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	s.RunFor(2 * time.Millisecond)
	f.Stop()
	s.RunFor(200 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range f.Nodes() {
		if n.Agent.Stats().Iterations == 0 {
			t.Fatalf("%s: agent never iterated", n.Name)
		}
	}
}

// TestFabricSchemaGate pins that Build refuses programs whose packet
// schemas lay fields out differently.
func TestFabricSchemaGate(t *testing.T) {
	s := sim.New(1)
	_, err := Build(s, Config{
		Leaves: 1, Spines: 1, Seed: 1,
		// dstAddr before srcAddr: same names, different slots.
		SpineProgram: `
header_type ipv4_t { fields { dstAddr : 32; srcAddr : 32; protocol : 8; ecn : 1; } }
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;
action drop_pkt() { drop(); }
action route_pkt(port) { modify_field(standard_metadata.egress_spec, port); }
table route { reads { ipv4.dstAddr : exact; } actions { route_pkt; drop_pkt; } default_action : drop_pkt; size : 64; }
reaction r() { }
control ingress { apply(route); }
`,
	})
	if err == nil {
		t.Fatal("mismatched schemas accepted")
	}
}

// TestFabricCrossLeafDelivery sends a packet from a leaf-0 host to a
// leaf-1 host and pins the leaf→spine→leaf path.
func TestFabricCrossLeafDelivery(t *testing.T) {
	s := sim.New(1)
	f, err := Build(s, Config{Leaves: 2, Spines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range f.Leaves {
		det := usecases.NewDosDetector(usecases.DefaultDosConfig())
		if err := leaf.Agent.RegisterNativeReaction("dos_react", det.React); err != nil {
			t.Fatal(err)
		}
	}
	src := f.Leaves[0].Net.AddHost(0, HostAddr(0, 0))
	dst := f.Leaves[1].Net.AddHost(1, HostAddr(1, 1))
	got := 0
	dst.Rx = func(pkt *packet.Packet) { got++ }

	// Meter data-plane trunk crossings, ignoring the probe heartbeats
	// the fabric injects for gray-failure detection (proto 0xFD).
	up, down, probes := uint64(0), uint64(0), uint64(0)
	for l := range f.Trunks {
		for sp := range f.Trunks[l] {
			f.Trunks[l][sp].Tap = func(from int, pkt *packet.Packet) {
				if pkt.GetName(usecases.FM.Proto) == uint64(HeartbeatProto) {
					probes++
					return
				}
				if from == 0 {
					up++
				} else {
					down++
				}
			}
		}
	}

	f.Start()
	s.RunFor(time.Millisecond) // prologues install routes over ctlchan

	schema := f.Leaves[0].Plan.Prog.Schema
	pkt := schema.New()
	pkt.Size = 200
	pkt.SetName(usecases.FM.Src, uint64(src.Addr))
	pkt.SetName(usecases.FM.Dst, uint64(dst.Addr))
	src.Send(pkt)
	s.RunFor(time.Millisecond)
	f.Stop()
	s.RunFor(200 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("cross-leaf delivery: got %d packets, want 1", got)
	}
	// The packet must have crossed exactly one leaf→spine trunk and one
	// spine→leaf trunk; probe heartbeats must be flowing alongside it.
	if up != 1 || down != 1 {
		t.Fatalf("trunk crossings up=%d down=%d, want 1/1", up, down)
	}
	if probes == 0 {
		t.Fatal("no probe heartbeats crossed the trunks")
	}
	if drops := f.Leaves[0].Net.Stats().DroppedNoPeer + f.Spines[0].Net.Stats().DroppedNoPeer; drops != 0 {
		t.Fatalf("unexpected DroppedNoPeer: %d", drops)
	}
}

// TestDosFabricEscalation is the end-to-end tentpole check: a flood
// entering at a spine border port is detected by the victim leaf's
// agent, the coordinator escalates filters to every other switch, and
// attack traffic on the victim leaf's trunks drops ≥90%.
func TestDosFabricEscalation(t *testing.T) {
	s := sim.New(1)
	d, err := NewDosFabric(s, DosFabricConfig{Fabric: Config{Leaves: 2, Spines: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(2*time.Millisecond, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	esc := d.Escalation()
	if esc == nil {
		t.Fatal("attacker never escalated")
	}
	if esc.DetectedBy != "leaf0" {
		t.Fatalf("detected by %s, want leaf0 (the victim leaf)", esc.DetectedBy)
	}
	if !esc.Complete() {
		t.Fatalf("escalation incomplete: %d/%d installed", len(esc.Installed), esc.targets)
	}
	// Every node except the detector holds exactly one filter entry.
	for _, n := range d.F.Nodes() {
		entries, err := n.Drv.Switch().Entries(FilterTable)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if n.Name == esc.DetectedBy {
			want = 0
		}
		if len(entries) != want {
			t.Fatalf("%s: %d filter entries, want %d", n.Name, len(entries), want)
		}
	}
	sup, err := d.Suppression(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sup < 0.9 {
		t.Fatalf("suppression %.3f, want ≥ 0.9", sup)
	}
	// The local block at the detecting leaf must also be in place.
	if _, ok := d.Detectors["leaf0"].Blocked[AttackerAddr]; !ok {
		t.Fatal("victim leaf never blocked the attacker locally")
	}
	// Heavy hitters: every benign sender reported, view sorted.
	top := d.F.Coord.TopK(len(d.DeliveredBySrc) + 4)
	if len(top) == 0 {
		t.Fatal("empty heavy-hitter view")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Bytes > top[i-1].Bytes {
			t.Fatal("top-k not sorted")
		}
	}
}

// routePort reads n's route-table entry for dst and returns its egress
// port.
func routePort(t *testing.T, n *Node, dst uint32) uint64 {
	t.Helper()
	entries, err := n.Drv.Switch().Entries(RouteTable)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Keys) == 1 && e.Keys[0].Value == uint64(dst) {
			return e.Data[0]
		}
	}
	t.Fatalf("%s: no route for %#x", n.Name, dst)
	return 0
}

// registerDos gives every leaf its required dos_react native.
func registerDos(t *testing.T, f *Fabric) {
	t.Helper()
	for _, leaf := range f.Leaves {
		det := usecases.NewDosDetector(usecases.DefaultDosConfig())
		if err := leaf.Agent.RegisterNativeReaction("dos_react", det.React); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFabricGrayRerouteAndHeal runs the tentpole loop on a single gray
// trunk: leaf0's detector latches the uplink, the coordinator excludes
// the spine from leaf0's ECMP set and moves its affected destinations,
// traffic flows around the gray link, and on heal everything returns.
func TestFabricGrayRerouteAndHeal(t *testing.T) {
	s := sim.New(1)
	f, err := Build(s, Config{Leaves: 3, Spines: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	registerDos(t, f)
	f.Start()
	s.RunFor(time.Millisecond) // prologues install routes

	// A destination on another leaf whose ECMP home is the trunk we
	// will gray.
	dst := HostAddr(1, 1)
	sp := f.SpineFor(dst)
	grayPort := uint64(f.UplinkPort(sp))
	if got := routePort(t, f.Leaves[0], dst); got != grayPort {
		t.Fatalf("initial route for %#x: port %d, want %d", dst, got, grayPort)
	}

	f.Trunks[0][sp].SetGray(1.0)
	s.RunFor(500 * time.Microsecond)

	up := f.UplinkPort(sp)
	if _, failed := f.Leaves[0].GrayDet.FailedPorts[up]; !failed {
		t.Fatalf("leaf0 detector never latched uplink %d", up)
	}
	h := f.Coord.Health(sp)
	if h.State != SpineGray || !h.Suspects["leaf0"] || len(h.Suspects) != 1 {
		t.Fatalf("spine %d health %v suspects %v, want gray/{leaf0}", sp, h.State, h.Suspects)
	}
	rrs := f.Coord.Reroutes()
	if len(rrs) == 0 {
		t.Fatal("no reroute recorded")
	}
	rr := rrs[0]
	if !rr.Exclude || rr.Leaf != "leaf0" || rr.Spine != sp {
		t.Fatalf("reroute %+v, want exclude leaf0/spine%d", rr, sp)
	}
	if rr.Moves == 0 || rr.DoneAt == 0 {
		t.Fatalf("reroute incomplete: moves=%d done=%v", rr.Moves, rr.DoneAt)
	}
	if got := routePort(t, f.Leaves[0], dst); got == grayPort {
		t.Fatalf("route for %#x still on gray uplink %d", dst, got)
	}

	// Traffic now crosses a healthy spine end to end.
	src := f.Leaves[0].Net.AddHost(0, HostAddr(0, 0))
	rx := f.Leaves[1].Net.AddHost(1, HostAddr(1, 1))
	got := 0
	rx.Rx = func(pkt *packet.Packet) { got++ }
	schema := f.Leaves[0].Plan.Prog.Schema
	for i := 0; i < 10; i++ {
		pkt := schema.New()
		pkt.Size = 200
		pkt.SetName(usecases.FM.Src, uint64(src.Addr))
		pkt.SetName(usecases.FM.Dst, uint64(rx.Addr))
		src.Send(pkt)
	}
	s.RunFor(100 * time.Microsecond)
	if got != 10 {
		t.Fatalf("rerouted delivery %d/10", got)
	}

	// Heal: probes flow again, the detector unlatches after its
	// hysteresis, and the coordinator moves the destinations home.
	f.Trunks[0][sp].SetGray(0)
	s.RunFor(500 * time.Microsecond)
	if h := f.Coord.Health(sp); h.State != SpineHealthy || len(h.Suspects) != 0 {
		t.Fatalf("post-heal health %v suspects %v, want healthy/none", h.State, h.Suspects)
	}
	if got := routePort(t, f.Leaves[0], dst); got != grayPort {
		t.Fatalf("post-heal route for %#x: port %d, want home %d", dst, got, grayPort)
	}
	rrs = f.Coord.Reroutes()
	last := rrs[len(rrs)-1]
	if last.Exclude || last.DoneAt == 0 {
		t.Fatalf("restore reroute %+v, want completed restore", last)
	}

	f.Stop()
	s.RunFor(200 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Coord.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFabricSpineCrashHealthDead pins whole-switch failure: every leaf
// latches the crashed spine's trunk, the merged evidence classifies it
// dead, every leaf is rerouted off it, and a restore heals it back to
// healthy with routes home.
func TestFabricSpineCrashHealthDead(t *testing.T) {
	s := sim.New(1)
	f, err := Build(s, Config{Leaves: 2, Spines: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	registerDos(t, f)
	f.Start()
	s.RunFor(time.Millisecond)

	const victim = 1
	if err := f.Crash("spine1"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(500 * time.Microsecond)

	h := f.Coord.Health(victim)
	if h.State != SpineDead || len(h.Suspects) != len(f.Leaves) {
		t.Fatalf("crashed spine health %v suspects %v, want dead/all", h.State, h.Suspects)
	}
	// Every leaf's remote destinations must route via spine0 now.
	for _, leaf := range f.Leaves {
		for dst := range leaf.RouteHandles {
			if got := routePort(t, leaf, dst); got != uint64(f.UplinkPort(0)) {
				t.Fatalf("%s: route %#x on port %d during crash, want %d", leaf.Name, dst, got, f.UplinkPort(0))
			}
		}
	}
	// Cross-leaf traffic survives on the remaining spine.
	src := f.Leaves[0].Net.AddHost(0, HostAddr(0, 0))
	rx := f.Leaves[1].Net.AddHost(0, HostAddr(1, 0))
	got := 0
	rx.Rx = func(pkt *packet.Packet) { got++ }
	schema := f.Leaves[0].Plan.Prog.Schema
	for i := 0; i < 5; i++ {
		pkt := schema.New()
		pkt.Size = 200
		pkt.SetName(usecases.FM.Src, uint64(src.Addr))
		pkt.SetName(usecases.FM.Dst, uint64(rx.Addr))
		src.Send(pkt)
	}
	s.RunFor(100 * time.Microsecond)
	if got != 5 {
		t.Fatalf("delivery during crash %d/5", got)
	}

	if err := f.Restore("spine1"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(500 * time.Microsecond)
	if h := f.Coord.Health(victim); h.State != SpineHealthy {
		t.Fatalf("post-restore health %v, want healthy", h.State)
	}
	for _, leaf := range f.Leaves {
		for dst := range leaf.RouteHandles {
			want := uint64(f.UplinkPort(f.SpineFor(dst)))
			if got := routePort(t, leaf, dst); got != want {
				t.Fatalf("%s: post-restore route %#x on port %d, want %d", leaf.Name, dst, got, want)
			}
		}
	}

	f.Stop()
	s.RunFor(200 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Coord.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDosFabricDeterministic pins that two identically-seeded runs
// produce the identical escalation timeline and packet counts.
func TestDosFabricDeterministic(t *testing.T) {
	type snapshot struct {
		detectedAt, spinesDone, allDone sim.Time
		arrivals                        int
		events                          uint64
		top                             []HHEntry
	}
	run := func() snapshot {
		s := sim.New(1)
		d, err := NewDosFabric(s, DosFabricConfig{Fabric: Config{Leaves: 3, Spines: 2, Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(2*time.Millisecond, 3*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		esc := d.Escalation()
		if esc == nil {
			t.Fatal("no escalation")
		}
		return snapshot{
			detectedAt: esc.DetectedAt, spinesDone: esc.SpinesDoneAt, allDone: esc.AllDoneAt,
			arrivals: len(d.AttackArrivals), events: d.F.Coord.Stats().Events,
			top: d.F.Coord.TopK(8),
		}
	}
	a, b := run(), run()
	if a.detectedAt != b.detectedAt || a.spinesDone != b.spinesDone || a.allDone != b.allDone {
		t.Fatalf("timeline diverged: %+v vs %+v", a, b)
	}
	if a.arrivals != b.arrivals || a.events != b.events {
		t.Fatalf("counts diverged: %+v vs %+v", a, b)
	}
	if len(a.top) != len(b.top) {
		t.Fatalf("top-k diverged: %v vs %v", a.top, b.top)
	}
	for i := range a.top {
		if a.top[i] != b.top[i] {
			t.Fatalf("top-k[%d] diverged: %v vs %v", i, a.top[i], b.top[i])
		}
	}
}
