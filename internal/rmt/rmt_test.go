package rmt

import (
	"testing"
	"testing/quick"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

// testProgram builds a small but representative program: an exact-match
// forwarding table, a ternary ACL, a byte counter register, and an
// ECMP-style hash.
func testProgram(t testing.TB) *p4.Program {
	t.Helper()
	p := p4.NewProgram("rmt-test")
	p.DefineStandardMetadata()
	dst := p.Schema.Define("ipv4.dstAddr", 32)
	src := p.Schema.Define("ipv4.srcAddr", 32)
	proto := p.Schema.Define("ipv4.protocol", 8)
	hashOut := p.Schema.Define("meta.ecmp", 16)
	egr := p.Schema.MustID(p4.FieldEgressSpec)
	inp := p.Schema.MustID(p4.FieldIngressPort)
	plen := p.Schema.MustID(p4.FieldPacketLen)

	p.AddRegister(&p4.Register{Name: "port_bytes", Width: 64, Instances: 32})
	p.AddHash(&p4.HashCalc{Name: "ecmp_hash", Fields: []packet.FieldID{src, dst}, Algo: p4.HashCRC32, Width: 16})

	p.AddAction(&p4.Action{
		Name:   "set_egress",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body: []p4.Primitive{
			p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")},
		},
	})
	p.AddAction(&p4.Action{Name: "do_drop", Body: []p4.Primitive{p4.Drop{}}})
	p.AddAction(&p4.Action{Name: "allow", Body: []p4.Primitive{p4.NoOp{}}})
	p.AddAction(&p4.Action{
		Name: "count_rx",
		Body: []p4.Primitive{
			p4.RegisterIncrement{Reg: "port_bytes", Index: p4.FieldOp(inp, p4.FieldIngressPort), By: p4.FieldOp(plen, p4.FieldPacketLen)},
		},
	})
	p.AddAction(&p4.Action{
		Name: "do_hash",
		Body: []p4.Primitive{
			p4.ModifyFieldWithHash{Dst: hashOut, DstName: "meta.ecmp", Hash: "ecmp_hash", Size: 4},
		},
	})
	p.AddAction(&p4.Action{Name: "do_recirc", Body: []p4.Primitive{p4.Recirculate{}}})

	p.AddTable(&p4.Table{
		Name:          "acl",
		Keys:          []p4.MatchKey{{FieldName: "ipv4.protocol", Field: proto, Width: 8, Kind: p4.MatchTernary}},
		ActionNames:   []string{"do_drop", "allow"},
		DefaultAction: &p4.ActionCall{Action: "allow"},
		Size:          16,
	})
	p.AddTable(&p4.Table{
		Name:          "forward",
		Keys:          []p4.MatchKey{{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: p4.MatchExact}},
		ActionNames:   []string{"set_egress", "do_drop"},
		DefaultAction: &p4.ActionCall{Action: "do_drop"},
		Size:          8,
	})
	p.AddTable(&p4.Table{
		Name:          "rx_counter",
		ActionNames:   []string{"count_rx"},
		DefaultAction: &p4.ActionCall{Action: "count_rx"},
		Size:          1,
	})
	p.AddTable(&p4.Table{
		Name:          "hash_tbl",
		ActionNames:   []string{"do_hash"},
		DefaultAction: &p4.ActionCall{Action: "do_hash"},
		Size:          1,
	})
	p.AddTable(&p4.Table{
		Name:        "recirc_tbl",
		Keys:        []p4.MatchKey{{FieldName: "ipv4.protocol", Field: proto, Width: 8, Kind: p4.MatchExact}},
		ActionNames: []string{"do_recirc"},
		Size:        4,
	})
	p.Ingress = []p4.ControlStmt{
		p4.Apply{Table: "acl"},
		p4.Apply{Table: "forward"},
		p4.Apply{Table: "rx_counter"},
		p4.Apply{Table: "hash_tbl"},
	}
	p.Egress = []p4.ControlStmt{p4.Apply{Table: "recirc_tbl"}}
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return p
}

func newTestSwitch(t testing.TB) (*sim.Simulator, *Switch) {
	t.Helper()
	s := sim.New(1)
	sw, err := New(s, testProgram(t), DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, sw
}

func mkPacket(sw *Switch, dst, src uint64, size int) *packet.Packet {
	pkt := sw.Program().Schema.New()
	pkt.SetName("ipv4.dstAddr", dst)
	pkt.SetName("ipv4.srcAddr", src)
	pkt.Size = size
	return pkt
}

func TestForwardingExactMatch(t *testing.T) {
	s, sw := newTestSwitch(t)
	if _, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(0x0A000001)}, Action: "set_egress", Data: []uint64{5},
	}); err != nil {
		t.Fatal(err)
	}
	var gotPort = -1
	sw.Tx = func(p int, pkt *packet.Packet) { gotPort = p }
	sw.Inject(0, mkPacket(sw, 0x0A000001, 1, 100))
	s.Run()
	if gotPort != 5 {
		t.Fatalf("egress port = %d, want 5", gotPort)
	}
	st := sw.Stats()
	if st.RxPackets != 1 || st.TxPackets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMissRunsDefaultDrop(t *testing.T) {
	s, sw := newTestSwitch(t)
	txed := false
	sw.Tx = func(int, *packet.Packet) { txed = true }
	sw.Inject(0, mkPacket(sw, 0xDEAD, 1, 100))
	s.Run()
	if txed {
		t.Fatal("missed packet was transmitted")
	}
	if sw.Stats().IngressDrops != 1 {
		t.Fatalf("IngressDrops = %d", sw.Stats().IngressDrops)
	}
}

func TestTernaryPriority(t *testing.T) {
	s, sw := newTestSwitch(t)
	// Low-priority wildcard allow, high-priority drop for proto 17.
	if _, err := sw.AddEntry("acl", Entry{
		Keys: []KeySpec{WildcardKey()}, Priority: 1, Action: "allow",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AddEntry("acl", Entry{
		Keys: []KeySpec{TernaryKey(17, 0xFF)}, Priority: 10, Action: "do_drop",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2},
	}); err != nil {
		t.Fatal(err)
	}
	var tx int
	sw.Tx = func(int, *packet.Packet) { tx++ }

	udp := mkPacket(sw, 1, 9, 100)
	udp.SetName("ipv4.protocol", 17)
	sw.Inject(0, udp)
	tcp := mkPacket(sw, 1, 9, 100)
	tcp.SetName("ipv4.protocol", 6)
	sw.Inject(0, tcp)
	s.Run()
	if tx != 1 {
		t.Fatalf("tx = %d, want 1 (UDP dropped by priority rule)", tx)
	}
}

// lpmKey returns a KeySpec matching the top prefixLen bits of v within a
// width-bit field.
func lpmKey(v uint64, prefixLen, width int) KeySpec {
	if prefixLen <= 0 {
		return KeySpec{}
	}
	if prefixLen > width {
		prefixLen = width
	}
	mask := (^uint64(0) << uint(width-prefixLen)) & ((1 << uint(width)) - 1)
	if width == 64 {
		mask = ^uint64(0) << uint(64-prefixLen)
	}
	return KeySpec{Value: v & mask, Mask: mask}
}

func TestLPMKeyMatching(t *testing.T) {
	k := lpmKey(0x0A000000, 8, 32)
	if !matchKey(p4.MatchLPM, k, 0x0A123456) {
		t.Fatal("10.0.0.0/8 should match 10.18.52.86")
	}
	if matchKey(p4.MatchLPM, k, 0x0B000000) {
		t.Fatal("10.0.0.0/8 should not match 11.0.0.0")
	}
	full := lpmKey(0xFFFFFFFF, 32, 32)
	if !matchKey(p4.MatchLPM, full, 0xFFFFFFFF) || matchKey(p4.MatchLPM, full, 0xFFFFFFFE) {
		t.Fatal("/32 prefix broken")
	}
	zero := lpmKey(5, 0, 32)
	if !matchKey(p4.MatchLPM, zero, 12345) {
		t.Fatal("/0 should match anything")
	}
}

func TestRangeKeyMatching(t *testing.T) {
	k := RangeKey(10, 20)
	for v, want := range map[uint64]bool{9: false, 10: true, 15: true, 20: true, 21: false} {
		if matchKey(p4.MatchRange, k, v) != want {
			t.Errorf("range [10,20] match %d = %v, want %v", v, !want, want)
		}
	}
}

func TestDuplicateExactEntryRejected(t *testing.T) {
	_, sw := newTestSwitch(t)
	e := Entry{Keys: []KeySpec{ExactKey(7)}, Action: "set_egress", Data: []uint64{1}}
	if _, err := sw.AddEntry("forward", e); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AddEntry("forward", e); err == nil {
		t.Fatal("duplicate exact entry accepted")
	}
}

func TestTableCapacity(t *testing.T) {
	_, sw := newTestSwitch(t)
	for i := 0; i < 8; i++ {
		if _, err := sw.AddEntry("forward", Entry{
			Keys: []KeySpec{ExactKey(uint64(i))}, Action: "set_egress", Data: []uint64{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(99)}, Action: "set_egress", Data: []uint64{1},
	}); err == nil {
		t.Fatal("add beyond capacity accepted")
	}
}

func TestEntryValidation(t *testing.T) {
	_, sw := newTestSwitch(t)
	if _, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1)}, Action: "allow",
	}); err == nil {
		t.Fatal("disallowed action accepted")
	}
	if _, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: nil,
	}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1), ExactKey(2)}, Action: "set_egress", Data: []uint64{1},
	}); err == nil {
		t.Fatal("wrong key count accepted")
	}
	if _, err := sw.AddEntry("ghost", Entry{}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestModifyEntry(t *testing.T) {
	s, sw := newTestSwitch(t)
	h, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.ModifyEntry("forward", h, "set_egress", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	var gotPort int
	sw.Tx = func(p int, pkt *packet.Packet) { gotPort = p }
	sw.Inject(0, mkPacket(sw, 1, 9, 64))
	s.Run()
	if gotPort != 7 {
		t.Fatalf("port after modify = %d, want 7", gotPort)
	}
	if err := sw.ModifyEntry("forward", EntryHandle(999), "set_egress", []uint64{1}); err == nil {
		t.Fatal("modify of missing handle accepted")
	}
}

func TestDeleteEntry(t *testing.T) {
	s, sw := newTestSwitch(t)
	h, _ := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2},
	})
	if err := sw.DeleteEntry("forward", h); err != nil {
		t.Fatal(err)
	}
	tx := false
	sw.Tx = func(int, *packet.Packet) { tx = true }
	sw.Inject(0, mkPacket(sw, 1, 9, 64))
	s.Run()
	if tx {
		t.Fatal("deleted entry still matches")
	}
	if err := sw.DeleteEntry("forward", h); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestSetDefaultAction(t *testing.T) {
	s, sw := newTestSwitch(t)
	if err := sw.SetDefaultAction("forward", &p4.ActionCall{Action: "set_egress", Data: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	var gotPort int
	sw.Tx = func(p int, pkt *packet.Packet) { gotPort = p }
	sw.Inject(0, mkPacket(sw, 0xBEEF, 9, 64))
	s.Run()
	if gotPort != 3 {
		t.Fatalf("default action port = %d, want 3", gotPort)
	}
	if err := sw.SetDefaultAction("forward", &p4.ActionCall{Action: "nope"}); err == nil {
		t.Fatal("unknown default action accepted")
	}
}

func TestRegisterDataPlaneAndControlPlane(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	sw.Inject(4, mkPacket(sw, 1, 9, 100))
	sw.Inject(4, mkPacket(sw, 1, 9, 150))
	s.Run()
	v, err := sw.RegRead("port_bytes", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 250 {
		t.Fatalf("port_bytes[4] = %d, want 250", v)
	}
	vals, err := sw.RegReadRangeInto("port_bytes", 0, 32, nil)
	if err != nil || len(vals) != 32 || vals[4] != 250 {
		t.Fatalf("range read: %v %v", vals, err)
	}
	if err := sw.RegWrite("port_bytes", 4, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.RegRead("port_bytes", 4); v != 0 {
		t.Fatal("control-plane write lost")
	}
	if _, err := sw.RegRead("port_bytes", 32); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := sw.RegRead("ghost", 0); err == nil {
		t.Fatal("unknown register accepted")
	}
}

func TestRegisterWidthMasking(t *testing.T) {
	ri := newRegisterInstance(&p4.Register{Name: "r", Width: 16, Instances: 4})
	ri.write(0, 0x1FFFF)
	if ri.read(0) != 0xFFFF {
		t.Fatalf("16-bit register holds %#x", ri.read(0))
	}
}

func TestQueueTailDrop(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.QueueCapacity = 4
	cfg.PortBandwidth = 1e9 // slow port: 1500B takes 12µs
	sw, err := New(s, testProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	for i := 0; i < 20; i++ {
		sw.Inject(0, mkPacket(sw, 1, 9, 1500))
	}
	s.Run()
	st := sw.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("no tail drops despite 20 packets into capacity-4 queue")
	}
	if st.TxPackets+st.QueueDrops != 20 {
		t.Fatalf("tx %d + drops %d != 20", st.TxPackets, st.QueueDrops)
	}
}

func TestEnqQdepthMetadata(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.PortBandwidth = 1e9
	sw, _ := New(s, testProgram(t), cfg)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var depths []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) {
		depths = append(depths, pkt.GetName(p4.FieldEnqQdepth))
	}
	for i := 0; i < 5; i++ {
		sw.Inject(0, mkPacket(sw, 1, 9, 1500))
	}
	s.Run()
	if len(depths) != 5 {
		t.Fatalf("tx count = %d", len(depths))
	}
	// All five packets enqueue before any finish serializing; the head
	// packet leaves the queue when its transmission starts, so the
	// observed depths are 0,0,1,2,3.
	want := []uint64{0, 0, 1, 2, 3}
	for i, d := range depths {
		if d != want[i] {
			t.Fatalf("depths = %v, want %v", depths, want)
		}
	}
}

func TestRecirculation(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	// proto 99 packets recirculate in egress.
	sw.AddEntry("recirc_tbl", Entry{Keys: []KeySpec{ExactKey(99)}, Action: "do_recirc"})
	var recircs int
	sw.Tx = func(_ int, pkt *packet.Packet) { recircs = pkt.Recirculations }
	pkt := mkPacket(sw, 1, 9, 64)
	pkt.SetName("ipv4.protocol", 99)
	sw.Inject(0, pkt)
	s.Run()
	if recircs != DefaultConfig().MaxRecirculations {
		t.Fatalf("recirculations = %d, want max %d", recircs, DefaultConfig().MaxRecirculations)
	}
	if sw.Stats().Recirculated == 0 {
		t.Fatal("Recirculated counter zero")
	}
}

func TestHashSeedShiftsOutput(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var hashes []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { hashes = append(hashes, pkt.GetName("meta.ecmp")) }

	sw.Inject(0, mkPacket(sw, 1, 0x01020304, 64))
	s.Run()
	if err := sw.SetHashSeed("ecmp_hash", 12345); err != nil {
		t.Fatal(err)
	}
	sw.Inject(0, mkPacket(sw, 1, 0x01020304, 64))
	s.Run()
	if len(hashes) != 2 {
		t.Fatalf("got %d packets", len(hashes))
	}
	// Same flow, different seed: the ECMP choice should (for this seed)
	// differ, demonstrating runtime hash reconfiguration.
	if hashes[0] == hashes[1] {
		t.Fatalf("hash unchanged by seed: %v", hashes)
	}
	if err := sw.SetHashSeed("ghost", 1); err == nil {
		t.Fatal("unknown hash accepted")
	}
}

func TestHashStableWithinSeed(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var hashes []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { hashes = append(hashes, pkt.GetName("meta.ecmp")) }
	for i := 0; i < 3; i++ {
		sw.Inject(0, mkPacket(sw, 1, 0xAABBCCDD, 64))
	}
	s.Run()
	if hashes[0] != hashes[1] || hashes[1] != hashes[2] {
		t.Fatalf("same flow hashed inconsistently: %v", hashes)
	}
}

func TestTableCounters(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	sw.Inject(0, mkPacket(sw, 1, 9, 64))
	sw.Inject(0, mkPacket(sw, 2, 9, 64))
	s.Run()
	if ti := sw.tables["forward"]; ti.Hits != 1 || ti.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", ti.Hits, ti.Misses)
	}
}

func TestEntriesSnapshot(t *testing.T) {
	_, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(2)}, Action: "do_drop"})
	es, err := sw.Entries("forward")
	if err != nil || len(es) != 2 {
		t.Fatalf("entries = %v err = %v", es, err)
	}
	if es[0].Handle >= es[1].Handle {
		t.Fatal("entries not sorted by handle")
	}
}

func TestPipelineLatencyApplied(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var txAt sim.Time
	sw.Tx = func(int, *packet.Packet) { txAt = s.Now() }
	sw.Inject(0, mkPacket(sw, 1, 9, 125)) // 125B at 25Gbps = 40ns serialize
	s.Run()
	want := sim.Time(400 + 40) // pipeline latency + serialization
	if txAt != want {
		t.Fatalf("tx at %v, want %v", txAt, want)
	}
}

// Property: in a TCAM table, lookup returns an entry with maximal
// priority among all matching entries.
func TestPropertyTCAMPriority(t *testing.T) {
	f := func(protoVals []uint8, prios []uint8, probe uint8) bool {
		if len(protoVals) > len(prios) {
			protoVals = protoVals[:len(prios)]
		}
		prog := p4.NewProgram("prop")
		prog.DefineStandardMetadata()
		fld := prog.Schema.Define("h.p", 8)
		prog.AddAction(&p4.Action{Name: "a", Params: []p4.Param{{Name: "id", Width: 32}}, Body: []p4.Primitive{p4.NoOp{}}})
		prog.AddTable(&p4.Table{
			Name:        "t",
			Keys:        []p4.MatchKey{{FieldName: "h.p", Field: fld, Width: 8, Kind: p4.MatchTernary}},
			ActionNames: []string{"a"},
		})
		ti := newTableInstance(prog, prog.Tables["t"])
		type ent struct {
			v    uint8
			prio int
		}
		var ents []ent
		for i, v := range protoVals {
			ents = append(ents, ent{v, int(prios[i])})
			ti.add(Entry{Keys: []KeySpec{TernaryKey(uint64(v), 0xFF)}, Priority: int(prios[i]), Action: "a", Data: []uint64{uint64(i)}})
		}
		got := ti.lookup([]uint64{uint64(probe)})
		best := -1
		for _, e := range ents {
			if e.v == probe && e.prio > best {
				best = e.prio
			}
		}
		if best == -1 {
			return got == nil
		}
		return got != nil && got.Priority == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsInvalidProgram(t *testing.T) {
	s := sim.New(1)
	bad := p4.NewProgram("bad")
	bad.Ingress = []p4.ControlStmt{p4.Apply{Table: "missing"}}
	if _, err := New(s, bad, DefaultConfig()); err == nil {
		t.Fatal("invalid program accepted")
	}
	good := p4.NewProgram("ok")
	good.DefineStandardMetadata()
	if _, err := New(s, good, Config{}); err == nil {
		t.Fatal("zero ports accepted")
	}
}

// TestPriorityQueueing: high-priority packets jump a congested queue
// and are never the ones tail-dropped — the property heartbeats rely on.
func TestPriorityQueueing(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.QueueCapacity = 8
	cfg.PortBandwidth = 1e9
	sw, err := New(s, testProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var order []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { order = append(order, pkt.GetName("ipv4.srcAddr")) }
	// Fill the queue with bulk traffic (priority 0, src = i), then inject
	// a priority-7 packet (src = 999).
	for i := 0; i < 10; i++ {
		sw.Inject(0, mkPacket(sw, 1, uint64(i), 1500))
	}
	hb := mkPacket(sw, 1, 999, 64)
	hb.Priority = 7
	sw.Inject(0, hb)
	s.Run()
	if sw.Stats().QueueDrops == 0 {
		t.Fatal("expected tail drops")
	}
	// The heartbeat must be transmitted, and before all but the packet
	// already in serialization when it arrived.
	pos := -1
	for i, src := range order {
		if src == 999 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatalf("high-priority packet dropped; order = %v", order)
	}
	if pos > 1 {
		t.Fatalf("high-priority packet at position %d of %v", pos, order)
	}
}

// TestPriorityEviction: when the queue is full of low-priority traffic,
// a high-priority arrival evicts rather than being dropped.
func TestPriorityEviction(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.QueueCapacity = 2
	cfg.PortBandwidth = 1e8 // very slow: queue stays full
	sw, _ := New(s, testProgram(t), cfg)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	var got []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { got = append(got, pkt.GetName("ipv4.srcAddr")) }
	for i := 0; i < 3; i++ {
		sw.Inject(0, mkPacket(sw, 1, uint64(i), 1500))
	}
	hb := mkPacket(sw, 1, 777, 64)
	hb.Priority = 7
	sw.Inject(0, hb)
	s.Run()
	found := false
	for _, src := range got {
		if src == 777 {
			found = true
		}
	}
	if !found {
		t.Fatalf("priority packet lost; delivered %v", got)
	}
}

// TestStaticMaskMatching: a masked read column matches on the masked
// portion of the field only.
func TestStaticMaskMatching(t *testing.T) {
	prog := p4.NewProgram("mask")
	prog.DefineStandardMetadata()
	f := prog.Schema.Define("h.x", 32)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	prog.AddAction(&p4.Action{
		Name:   "fwd",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}},
	})
	prog.AddTable(&p4.Table{
		Name:        "t",
		Keys:        []p4.MatchKey{{FieldName: "h.x", Field: f, Width: 32, Kind: p4.MatchExact, StaticMask: 0xFF}},
		ActionNames: []string{"fwd"},
		Size:        8,
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "t"}}
	s := sim.New(1)
	sw, err := New(s, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw.AddEntry("t", Entry{Keys: []KeySpec{ExactKey(0x42)}, Action: "fwd", Data: []uint64{3}})
	var gotPort = -1
	sw.Tx = func(p int, _ *packet.Packet) { gotPort = p }
	pkt := prog.Schema.New()
	pkt.Size = 64
	pkt.SetName("h.x", 0xABCD0042) // upper bits differ; masked low byte matches
	sw.Inject(0, pkt)
	s.Run()
	if gotPort != 3 {
		t.Fatalf("masked match failed: port = %d", gotPort)
	}
}
