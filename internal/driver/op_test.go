package driver

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// kindSample returns one filled-in op of kind k (nil for a kind this
// file does not know — which fails TestOpVocabularyIsExhaustive).
func kindSample(k OpKind) *Op {
	switch k {
	case OpAddEntry:
		return &Op{Kind: k, Table: "fw", Handle: 4, Priority: 2, Action: "fwd",
			Keys: []rmt.KeySpec{rmt.ExactKey(9)}, Data: []uint64{1}}
	case OpModifyEntry:
		return &Op{Kind: k, Table: "fw", Handle: 7, Action: "fwd", Data: []uint64{3}}
	case OpDeleteEntry:
		return &Op{Kind: k, Table: "fw", Handle: 7}
	case OpSetDefault:
		return &Op{Kind: k, Table: "fw", Call: &p4.ActionCall{Action: "fwd", Data: []uint64{5}}}
	case OpSetHashSeed:
		return &Op{Kind: k, Table: "ecmp", Val: 0xFEED}
	case OpRegWrite:
		return &Op{Kind: k, Table: "ctr", Idx: 3, Val: 42}
	case OpRegRead:
		return &Op{Kind: k, Table: "ctr", Idx: 3}
	case OpRead:
		return &Op{Kind: k, Reqs: []ReadReq{{Reg: "ctr", Lo: 0, Hi: 4}, {Reg: "wide", Lo: 1, Hi: 2}},
			Rows: make([][]uint64, 2)}
	case OpReadEntries, OpReadDefault:
		return &Op{Kind: k, Table: "fw"}
	}
	return nil
}

// TestOpVocabularyIsExhaustive walks every kind: each has its own name,
// an Apply arm, and an Adapter method that builds it back — Apply onto an
// Adapter must hand Do the op it started from, so the two conversions are
// inverses and a kind added without both fails here.
func TestOpVocabularyIsExhaustive(t *testing.T) {
	names := map[string]OpKind{}
	var (
		got  Op
		sent int
	)
	rec := NewAdapter(func(p *sim.Proc, op *Op) error { got = *op; sent++; return nil }, nil)
	for k := OpNone + 1; k < NumOpKinds; k++ {
		name := k.String()
		if prev, dup := names[name]; dup || name == "" || name == OpNone.String() {
			t.Errorf("kind %d: name %q missing or shared with kind %d", k, name, prev)
		}
		names[name] = k
		if want := k <= OpRegWrite; k.Mutating() != want {
			t.Errorf("%v.Mutating() = %v", k, !want)
		}
		op := kindSample(k)
		if op == nil {
			t.Errorf("kind %d (%v) has no sample op", k, k)
			continue
		}
		got = Op{}
		if err := Apply(&rec, nil, op); err != nil {
			t.Errorf("Apply(%v): %v", k, err)
		}
		if !reflect.DeepEqual(&got, op) {
			t.Errorf("%v through Apply then the Adapter:\n got %+v\nwant %+v", k, got, *op)
		}
		if k == OpRead {
			got, sent = Op{}, 0
			if _, err := rec.UnbatchedRead(nil, op.Reqs); err != nil || sent != len(op.Reqs) ||
				got.Kind != OpRead || !reflect.DeepEqual(got.Reqs, op.Reqs[len(op.Reqs)-1:]) {
				t.Errorf("UnbatchedRead sent %d ops, the last %+v, %v; want one single-range read per range", sent, got, err)
			}
		}
	}
	for _, k := range []OpKind{OpNone, NumOpKinds} {
		if k.Mutating() || Apply(&rec, nil, &Op{Kind: k}) == nil {
			t.Errorf("kind %d is outside the vocabulary but Apply accepted it", k)
		}
	}
}

// entryText renders entries by their exported fields (their cached action
// pointers differ between two switches).
func entryText(es []rmt.Entry) string {
	var out string
	for _, e := range es {
		out += fmt.Sprintf("{%d %v %d %s %v}", e.Handle, e.Keys, e.Priority, e.Action, e.Data)
	}
	return out
}

// channelScript drives every Channel method (and BatchReadInto) once or
// more, successes and failures, and returns what each call reported.
func channelScript(p *sim.Proc, ch Channel) []any {
	var out []any
	rec := func(vs ...any) {
		for _, v := range vs {
			if err, ok := v.(error); ok && err != nil {
				v = err.Error()
			}
			out = append(out, v)
		}
		out = append(out, p.Now())
	}
	h1, err := ch.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "fwd", Data: []uint64{2}})
	rec(h1, err)
	h2, err := ch.AddEntry(p, "fw", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(2)}, Action: "fwd", Data: []uint64{3}})
	rec(h2, err)
	_, err = ch.AddEntry(p, "nope", rmt.Entry{Action: "fwd"})
	rec(err)
	ch.Memoize("fw", h1)
	rec(ch.ModifyEntry(p, "fw", h1, "fwd", []uint64{7})) // memoized cost
	rec(ch.ModifyEntry(p, "fw", h2, "fwd", []uint64{8})) // cold cost
	rec(ch.ModifyEntry(p, "fw", 999, "fwd", []uint64{8}))
	rec(ch.DeleteEntry(p, "fw", h2))
	rec(ch.SetDefaultAction(p, "fw", &p4.ActionCall{Action: "fwd", Data: []uint64{5}}))
	call, err := ch.ReadDefaultAction(p, "fw")
	rec(call, err)
	rec(ch.SetDefaultAction(p, "fw", nil))
	call, err = ch.ReadDefaultAction(p, "fw")
	rec(call, err)
	rec(ch.SetHashSeed(p, "ecmp", 77))
	rec(ch.SetHashSeed(p, "nope", 1))
	for i := uint64(0); i < 6; i++ {
		rec(ch.RegWrite(p, "ctr", i, 100+i))
	}
	rec(ch.RegWrite(p, "ctr", 1<<20, 1))
	v, err := ch.RegRead(p, "ctr", 3)
	rec(v, err)
	reqs := []ReadReq{{Reg: "ctr", Lo: 0, Hi: 4}, {Reg: "wide", Lo: 1, Hi: 3}, {Reg: "ctr", Lo: 5, Hi: 6}}
	rows, err := ch.BatchRead(p, reqs)
	rec(rows, err)
	rows, err = ch.UnbatchedRead(p, reqs)
	rec(rows, err)
	dst := [][]uint64{make([]uint64, 0, 8), nil, {9, 9, 9}}
	rec(ch.(RangeReader).BatchReadInto(p, reqs, dst), dst)
	rec(ch.(RangeReader).BatchReadInto(p, reqs, dst[:2]))
	rows, err = ch.BatchRead(p, []ReadReq{{Reg: "ctr", Lo: 5, Hi: 2}})
	rec(rows, err)
	rows, err = ch.BatchRead(p, nil)
	rec(rows, err)
	rows, err = ch.UnbatchedRead(p, nil)
	rec(rows, err)
	es, err := ch.ReadEntries(p, "fw")
	rec(entryText(es), err)
	_, err = ch.ReadEntries(p, "nope")
	rec(err)
	return out
}

// TestAdapterMatchesDriver is the differential test of the seam: the
// same script through adapter → Do → Apply(*Driver) and straight on a
// *Driver must report the same completions at the same virtual times and
// leave the same driver counters and switch state.
func TestAdapterMatchesDriver(t *testing.T) {
	type result struct {
		trace   []any
		stats   Stats
		end     sim.Time
		entries string
		regs    []uint64
	}
	run := func(adapted bool) result {
		s := sim.New(1)
		sw := testSwitch(t, s)
		d := New(s, sw, DefaultCostModel())
		var ch Channel = d
		if adapted {
			a := NewAdapter(func(p *sim.Proc, op *Op) error { return Apply(d, p, op) }, d)
			ch = &a
		}
		var r result
		s.Spawn("cp", func(p *sim.Proc) { r.trace = channelScript(p, ch) })
		s.Run()
		r.stats, r.end = ch.Stats(), s.Now()
		if ch.Switch() != sw {
			t.Error("Switch() does not reach the driver's switch")
		}
		es, _ := sw.Entries("fw")
		r.entries = entryText(es)
		r.regs, _ = sw.RegReadRangeInto("ctr", 0, 8, nil)
		return r
	}
	direct, adapted := run(false), run(true)
	if len(direct.trace) != len(adapted.trace) {
		t.Fatalf("trace lengths %d vs %d", len(direct.trace), len(adapted.trace))
	}
	for i := range direct.trace {
		if !reflect.DeepEqual(direct.trace[i], adapted.trace[i]) {
			t.Errorf("step %d: direct %v, adapted %v", i, direct.trace[i], adapted.trace[i])
		}
	}
	direct.trace, adapted.trace = nil, nil
	if !reflect.DeepEqual(direct, adapted) {
		t.Errorf("end state differs:\n direct  %+v\n adapted %+v", direct, adapted)
	}
	if direct.stats.MemoizedOps == 0 || direct.stats.AuditReads == 0 || direct.stats.RegReads == 0 {
		t.Errorf("script missed a cost path: %+v", direct.stats)
	}
}
