package rmt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ---- Zero-allocation guarantees of the per-packet fast path ----

// TestExactLookupZeroAlloc: an exact-match lookup hashes the column
// words in place and allocates nothing.
func TestExactLookupZeroAlloc(t *testing.T) {
	_, sw := newTestSwitch(t)
	for i := 0; i < 8; i++ {
		if _, err := sw.AddEntry("forward", Entry{
			Keys: []KeySpec{ExactKey(uint64(i))}, Action: "set_egress", Data: []uint64{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ti := sw.tables["forward"]
	vals := []uint64{3}
	if ti.lookup(vals) == nil {
		t.Fatal("expected hit")
	}
	n := testing.AllocsPerRun(1000, func() {
		vals[0] = 5
		ti.lookup(vals)
	})
	if n != 0 {
		t.Fatalf("exact lookup allocates %v per op, want 0", n)
	}
}

// TestTernaryLookupZeroAlloc: the bucketed TCAM path is allocation-free
// too.
func TestTernaryLookupZeroAlloc(t *testing.T) {
	ti := buildTCAMTable(t, 64, true)
	vals := []uint64{10, 0}
	if ti.lookup(vals) == nil {
		t.Fatal("expected hit")
	}
	n := testing.AllocsPerRun(1000, func() { ti.lookup(vals) })
	if n != 0 {
		t.Fatalf("ternary lookup allocates %v per op, want 0", n)
	}
}

// TestPipelineZeroAlloc drives full ingress-to-egress passes with a
// packet pool and requires the whole per-packet path — lookup, compiled
// actions, queueing, event scheduling — to be allocation-free in steady
// state.
func TestPipelineZeroAlloc(t *testing.T) {
	s := sim.New(1)
	sw, err := New(s, testProgram(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	pool := packet.NewPool(sw.Program().Schema)
	tmpl := mkPacket(sw, 1, 9, 100)
	send := func() {
		p := pool.Get()
		tmpl.CloneInto(p)
		sw.Inject(0, p)
		s.Run()
		pool.Put(p)
	}
	for i := 0; i < 100; i++ {
		send() // warm the event freelist and port buffers
	}
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Fatalf("pipeline pass allocates %v per packet, want 0", n)
	}
	if got := sw.Stats().TxPackets; got == 0 {
		t.Fatal("no packets transmitted")
	}
}

// TestModifyEntryZeroAlloc: rebinding action data — the Mantis reaction
// fast path — reuses the entry's Data storage.
func TestModifyEntryZeroAlloc(t *testing.T) {
	_, sw := newTestSwitch(t)
	h, err := sw.AddEntry("forward", Entry{
		Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := []uint64{3}
	n := testing.AllocsPerRun(1000, func() {
		data[0]++
		if err := sw.ModifyEntry("forward", h, "set_egress", data); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("modify allocates %v per op, want 0", n)
	}
}

// TestModifyDoesNotAliasCallerData: the in-place Data reuse must never
// scribble over slices the control plane still holds (the bug class the
// serializability suites caught when add shared the caller's slice).
func TestModifyDoesNotAliasCallerData(t *testing.T) {
	_, sw := newTestSwitch(t)
	orig := []uint64{2}
	h, err := sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: orig})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.ModifyEntry("forward", h, "set_egress", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if orig[0] != 2 {
		t.Fatalf("modify mutated the caller's original Data slice: %v", orig)
	}
	es, _ := sw.Entries("forward")
	snap := es[0].Data
	if err := sw.ModifyEntry("forward", h, "set_egress", []uint64{9}); err != nil {
		t.Fatal(err)
	}
	if snap[0] != 7 {
		t.Fatalf("modify mutated an entries() snapshot: %v", snap)
	}
}

// ---- Buckets of the match index ----

// buildTCAMTable builds a two-column (exact proto, ternary addr) or
// pure-ternary TCAM table with n entries, one per proto value.
func buildTCAMTable(t testing.TB, n int, exactCol bool) *tableInstance {
	t.Helper()
	prog := p4.NewProgram("tcam")
	prog.DefineStandardMetadata()
	fp := prog.Schema.Define("h.proto", 16)
	fa := prog.Schema.Define("h.addr", 32)
	prog.AddAction(&p4.Action{Name: "a", Params: []p4.Param{{Name: "id", Width: 32}}, Body: []p4.Primitive{p4.NoOp{}}})
	kind := p4.MatchTernary
	if exactCol {
		kind = p4.MatchExact
	}
	prog.AddTable(&p4.Table{
		Name: "t",
		Keys: []p4.MatchKey{
			{FieldName: "h.proto", Field: fp, Width: 16, Kind: kind},
			{FieldName: "h.addr", Field: fa, Width: 32, Kind: p4.MatchTernary},
		},
		ActionNames: []string{"a"},
	})
	ti := newTableInstance(prog, prog.Tables["t"])
	for i := 0; i < n; i++ {
		key := KeySpec{Value: uint64(i), Mask: 0xFFFF}
		if exactCol {
			key = ExactKey(uint64(i))
		}
		if _, err := ti.add(Entry{
			Keys:     []KeySpec{key, TernaryKey(0, 0)},
			Priority: i % 7,
			Action:   "a",
			Data:     []uint64{uint64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ti
}

// TestBucketedPriorityWithinBucket: several entries sharing the exact
// column must still match by descending priority (handle breaks ties).
func TestBucketedPriorityWithinBucket(t *testing.T) {
	ti := buildTCAMTable(t, 0, true)
	// Three entries for proto 5 with different priorities and masks.
	low, _ := ti.add(Entry{Keys: []KeySpec{ExactKey(5), TernaryKey(0, 0)}, Priority: 1, Action: "a", Data: []uint64{100}})
	high, _ := ti.add(Entry{Keys: []KeySpec{ExactKey(5), TernaryKey(0xAA, 0xFF)}, Priority: 9, Action: "a", Data: []uint64{200}})
	if got := ti.lookup([]uint64{5, 0xAA}); got == nil || got.Data[0] != 200 {
		t.Fatalf("high-priority entry not preferred: %+v", got)
	}
	if got := ti.lookup([]uint64{5, 0xBB}); got == nil || got.Data[0] != 100 {
		t.Fatalf("fallback to low-priority wildcard failed: %+v", got)
	}
	if err := ti.del(high); err != nil {
		t.Fatal(err)
	}
	if got := ti.lookup([]uint64{5, 0xAA}); got == nil || got.Data[0] != 100 {
		t.Fatalf("after delete, remaining entry not found: %+v", got)
	}
	if err := ti.del(low); err != nil {
		t.Fatal(err)
	}
	if got := ti.lookup([]uint64{5, 0xAA}); got != nil {
		t.Fatalf("empty bucket still matches: %+v", got)
	}
	for _, s := range ti.slots {
		if ti.tuples != 0 || len(s.entries) != 0 {
			t.Fatalf("empty bucket not pruned: %d tuples left", ti.tuples)
		}
	}
}

// TestPureTernaryFallsBackToLinear: without an exact column there is
// nothing to partition on, and every entry shares the one bucket.
func TestPureTernaryFallsBackToLinear(t *testing.T) {
	ti := buildTCAMTable(t, 16, false)
	if len(ti.exact) != 0 || ti.tuples != 1 {
		t.Fatalf("pure-ternary table keyed by %v with %d buckets, want one", ti.exact, ti.tuples)
	}
	if got := ti.lookup([]uint64{3, 0}); got == nil || got.Data[0] != 3 {
		t.Fatalf("linear fallback lookup: %+v", got)
	}
}

// TestSixColumnExactKey: an exact key of six columns, wider than any
// shipped program's, is indexed on every column's word, so a difference
// in the last one is a different key.
func TestSixColumnExactKey(t *testing.T) {
	prog := p4.NewProgram("wide")
	prog.DefineStandardMetadata()
	var keys []p4.MatchKey
	for i := 0; i < 6; i++ {
		f := prog.Schema.Define(fmt.Sprintf("h.k%d", i), 32)
		keys = append(keys, p4.MatchKey{FieldName: fmt.Sprintf("h.k%d", i), Field: f, Width: 32, Kind: p4.MatchExact})
	}
	prog.AddAction(&p4.Action{Name: "a", Body: []p4.Primitive{p4.NoOp{}}})
	prog.AddTable(&p4.Table{Name: "t", Keys: keys, ActionNames: []string{"a"}})
	ti := newTableInstance(prog, prog.Tables["t"])
	spec := make([]KeySpec, len(keys))
	vals := make([]uint64, len(keys))
	for i := range spec {
		spec[i] = ExactKey(uint64(i + 1))
		vals[i] = uint64(i + 1)
	}
	if _, err := ti.add(Entry{Keys: spec, Action: "a"}); err != nil {
		t.Fatal(err)
	}
	if ti.lookup(vals) == nil {
		t.Fatal("six-column exact key missed")
	}
	vals[5] = 999
	if ti.lookup(vals) != nil {
		t.Fatal("six-column exact key false positive")
	}
	if _, err := ti.add(Entry{Keys: spec, Action: "a"}); err == nil {
		t.Fatal("six-column duplicate accepted")
	}
}

// ---- Index shape and lookup counters ----

// indexKind names how a lookup uses a table's match index: "exact" when
// every column is exact (a bucket holds one entry and a hit is its head),
// "bucketed" when some are (a lookup scans one bucket), "linear" when
// none are (every entry shares the one bucket a lookup scans).
func indexKind(ti *tableInstance) string {
	switch {
	case len(ti.rest) == 0:
		return "exact"
	case len(ti.exact) > 0:
		return "bucketed"
	}
	return "linear"
}

func TestTableStats(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}})
	sw.AddEntry("acl", Entry{Keys: []KeySpec{TernaryKey(17, 0xFF)}, Priority: 1, Action: "do_drop"})
	sw.Inject(0, mkPacket(sw, 1, 9, 64)) // forward hit
	sw.Inject(0, mkPacket(sw, 2, 9, 64)) // forward miss
	s.Run()
	fw := sw.tables["forward"]
	if indexKind(fw) != "exact" || len(fw.byHandle) != 1 || fw.Hits != 1 || fw.Misses != 1 {
		t.Fatalf("forward: %s index, %d entries, %d hits, %d misses", indexKind(fw), len(fw.byHandle), fw.Hits, fw.Misses)
	}
	acl := sw.tables["acl"]
	// acl's only key column is ternary: no exact column to bucket on.
	if indexKind(acl) != "linear" || len(acl.byHandle) != 1 {
		t.Fatalf("acl: %s index, %d entries", indexKind(acl), len(acl.byHandle))
	}
	if acl.Hits+acl.Misses != 2 {
		t.Fatalf("acl lookups = %d hits %d misses, want 2 total", acl.Hits, acl.Misses)
	}
	// recirc_tbl's single key is exact, so it uses the exact index.
	if k := indexKind(sw.tables["recirc_tbl"]); k != "exact" {
		t.Fatalf("recirc_tbl index = %q", k)
	}
}

func TestTableStatsBucketed(t *testing.T) {
	prog := p4.NewProgram("b")
	prog.DefineStandardMetadata()
	fp := prog.Schema.Define("h.proto", 16)
	fa := prog.Schema.Define("h.addr", 32)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	prog.AddAction(&p4.Action{
		Name:   "fwd",
		Params: []p4.Param{{Name: "port", Width: 16}},
		Body:   []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}},
	})
	prog.AddTable(&p4.Table{
		Name: "t",
		Keys: []p4.MatchKey{
			{FieldName: "h.proto", Field: fp, Width: 16, Kind: p4.MatchExact},
			{FieldName: "h.addr", Field: fa, Width: 32, Kind: p4.MatchTernary},
		},
		ActionNames: []string{"fwd"},
	})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "t"}}
	s := sim.New(1)
	sw, err := New(s, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sw.AddEntry("t", Entry{Keys: []KeySpec{ExactKey(uint64(i)), TernaryKey(0, 0)}, Action: "fwd", Data: []uint64{1}})
	}
	pkt := prog.Schema.New()
	pkt.Size = 64
	pkt.SetName("h.proto", 2)
	sw.Inject(0, pkt)
	s.Run()
	ti := sw.tables["t"]
	if indexKind(ti) != "bucketed" || ti.tuples != 4 || ti.Hits != 1 {
		t.Fatalf("%s index, %d buckets, %d hits", indexKind(ti), ti.tuples, ti.Hits)
	}
}

// ---- Strict-priority egress queue (satellite coverage) ----

// queueSwitch builds a switch with a tiny slow queue so packets pile up.
func queueSwitch(t testing.TB, capacity int) (*sim.Simulator, *Switch) {
	t.Helper()
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.QueueCapacity = capacity
	cfg.PortBandwidth = 1e8 // 1500B takes 120µs: queue stays full
	sw, err := New(s, testProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	return s, sw
}

// TestEnqueueEvictsLowestPriorityTailVictim: on a full queue the victim
// is the rearmost packet with priority strictly below the arrival's,
// and it is marked dropped and counted.
func TestEnqueueEvictsLowestPriorityTailVictim(t *testing.T) {
	s, sw := queueSwitch(t, 3)
	var order []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { order = append(order, pkt.GetName("ipv4.srcAddr")) }
	victims := make([]*packet.Packet, 0, 4)
	// One packet drains immediately; three fill the queue: srcs 1,2,3
	// with priorities 0,2,0 — so the queue orders [2(prio2), 1, 3].
	prios := []int{0, 0, 2, 0}
	for i := 0; i < 4; i++ {
		p := mkPacket(sw, 1, uint64(i), 1500)
		p.Priority = prios[i]
		victims = append(victims, p)
		sw.Inject(0, p)
	}
	s.RunFor(50 * time.Microsecond)
	// A priority-1 arrival must evict src 3 (the tail priority-0
	// packet), not src 2 (priority 2) and not src 1 (earlier same-prio).
	hb := mkPacket(sw, 1, 99, 64)
	hb.Priority = 1
	sw.Inject(0, hb)
	s.Run()
	if !victims[3].Dropped {
		t.Fatal("tail priority-0 packet not evicted")
	}
	if victims[1].Dropped || victims[2].Dropped {
		t.Fatalf("wrong victim evicted: p1=%v p2=%v", victims[1].Dropped, victims[2].Dropped)
	}
	if sw.Stats().QueueDrops != 1 {
		t.Fatalf("QueueDrops = %d, want 1", sw.Stats().QueueDrops)
	}
	for _, src := range order {
		if src == 3 {
			t.Fatalf("evicted packet transmitted; order = %v", order)
		}
	}
}

// TestEnqueueDropsWhenNoLowerPriorityVictim: equal priority does not
// evict — the arrival itself is tail-dropped.
func TestEnqueueDropsWhenNoLowerPriorityVictim(t *testing.T) {
	s, sw := queueSwitch(t, 2)
	for i := 0; i < 3; i++ {
		p := mkPacket(sw, 1, uint64(i), 1500)
		p.Priority = 5
		sw.Inject(0, p)
	}
	s.RunFor(50 * time.Microsecond)
	late := mkPacket(sw, 1, 99, 64)
	late.Priority = 5
	sw.Inject(0, late)
	s.Run()
	if !late.Dropped {
		t.Fatal("equal-priority arrival should be the drop victim")
	}
	if sw.Stats().QueueDrops != 1 {
		t.Fatalf("QueueDrops = %d, want 1", sw.Stats().QueueDrops)
	}
}

// TestEnqueueFIFOWithinPriority: same-priority packets leave in arrival
// order even when a higher-priority packet jumps between them.
func TestEnqueueFIFOWithinPriority(t *testing.T) {
	s, sw := queueSwitch(t, 8)
	var order []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { order = append(order, pkt.GetName("ipv4.srcAddr")) }
	// srcs 0..4 at priority 0, then srcs 10,11 at priority 3.
	for i := 0; i < 5; i++ {
		sw.Inject(0, mkPacket(sw, 1, uint64(i), 1500))
	}
	for i := 10; i < 12; i++ {
		p := mkPacket(sw, 1, uint64(i), 1500)
		p.Priority = 3
		sw.Inject(0, p)
	}
	s.Run()
	// src 0 is already serializing when the rest arrive; the queue then
	// orders priority 3 first (10 before 11), then 1..4 in FIFO order.
	want := []uint64{0, 10, 11, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("tx order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tx order = %v, want %v", order, want)
		}
	}
}

// TestEnqueueOutOfRangeEgressPortDrops: an egress_spec outside the
// port range is dropped at the traffic manager and counted as an
// ingress drop.
func TestEnqueueOutOfRangeEgressPortDrops(t *testing.T) {
	s, sw := newTestSwitch(t)
	sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{500}})
	tx := false
	sw.Tx = func(int, *packet.Packet) { tx = true }
	pkt := mkPacket(sw, 1, 9, 64)
	sw.Inject(0, pkt)
	s.Run()
	if tx {
		t.Fatal("packet with out-of-range egress port transmitted")
	}
	if !pkt.Dropped {
		t.Fatal("packet not marked dropped")
	}
	if sw.Stats().IngressDrops != 1 {
		t.Fatalf("IngressDrops = %d, want 1", sw.Stats().IngressDrops)
	}
}

// TestQueueWindowWrap exercises the sliding-window compaction: many
// cycles of fill and drain must preserve FIFO order with no loss.
func TestQueueWindowWrap(t *testing.T) {
	s, sw := queueSwitch(t, 4)
	var got []uint64
	sw.Tx = func(_ int, pkt *packet.Packet) { got = append(got, pkt.GetName("ipv4.srcAddr")) }
	next := uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			sw.Inject(0, mkPacket(sw, 1, next, 1500))
			next++
		}
		s.Run() // drain fully between bursts
	}
	if len(got) != int(next) {
		t.Fatalf("transmitted %d of %d packets", len(got), next)
	}
	for i, src := range got {
		if src != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
	if sw.Stats().QueueDrops != 0 {
		t.Fatalf("unexpected drops: %d", sw.Stats().QueueDrops)
	}
}
