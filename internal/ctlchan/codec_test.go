package ctlchan

import (
	"bytes"
	"encoding/hex"
	"testing"
	"unsafe"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/wire"
)

// sampleOps returns, for one verb, ops that fill every field its frame
// carries — two where a field is optional. A kind without a case here
// fails TestEveryKindHasACodecArm.
func sampleOps(k driver.OpKind) []driver.Op {
	switch k {
	case driver.OpAddEntry:
		return []driver.Op{{Table: "t1", Handle: 3, Priority: -2, Action: "set1",
			Keys: []rmt.KeySpec{{Value: 7, Mask: 0xFF}, {Lo: 1, Hi: 9}}, Data: []uint64{1, 2, 3}}}
	case driver.OpModifyEntry:
		return []driver.Op{
			{Table: "t2", Handle: 9, Action: "set2", Data: []uint64{42}},
			{Table: "t2", Handle: 9, Action: "noop"}, // zero-length data
		}
	case driver.OpDeleteEntry:
		return []driver.Op{{Table: "t1", Handle: 5}}
	case driver.OpSetDefault:
		return []driver.Op{
			{Table: "t1", Call: &p4.ActionCall{Action: "drop", Data: []uint64{0xDEAD}}},
			{Table: "t1"}, // nil call
		}
	case driver.OpSetHashSeed:
		return []driver.Op{{Table: "ecmp", Val: 0xFEEDFACE}}
	case driver.OpRegWrite:
		return []driver.Op{{Table: "cnt", Idx: 12, Val: ^uint64(0)}}
	case driver.OpRegRead:
		return []driver.Op{{Table: "cnt", Idx: 12}}
	case driver.OpRead:
		return []driver.Op{{Reqs: []driver.ReadReq{{Reg: "a", Lo: 0, Hi: 3}, {Reg: "b", Lo: 5, Hi: 5}}}}
	case driver.OpReadEntries, driver.OpReadDefault:
		return []driver.Op{{Table: "t2"}}
	case opMemoize:
		return []driver.Op{{Table: "t1", Handle: 77}}
	}
	return nil
}

// sampleRequests holds the sample frames of every verb, in verb order:
// the codec tests' cases and the fuzz targets' seed corpus.
func sampleRequests() []*request {
	var rs []*request
	for k := driver.OpNone + 1; k <= opMemoize; k++ {
		for _, op := range sampleOps(k) {
			op.Kind = k
			r := &request{Kind: frameRequest, ops: []driver.Op{op}}
			if k == opMemoize {
				r.Kind = frameDatagram
			}
			r.Session, r.Epoch, r.Seq, r.Ack = 0xA1B2C3D4, 3, uint64(len(rs))+1, uint64(len(rs))
			rs = append(rs, r)
		}
	}
	return rs
}

// goldenFrames are sampleRequests' frames as the codec encoded them
// before the verbs became driver.OpKinds: the wire format is pinned byte
// for byte.
var goldenFrames = []string{
	"c1d4c3b2a1030000000000000001000000000000000000000000000000010200000074310300000000000000feffffffffffffff0400000073657431020000000700000000000000ff0000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000000090000000000000003000000010000000000000002000000000000000300000000000000",
	"c1d4c3b2a10300000000000000020000000000000001000000000000000202000000743209000000000000000400000073657432010000002a00000000000000",
	"c1d4c3b2a1030000000000000003000000000000000200000000000000020200000074320900000000000000040000006e6f6f7000000000",
	"c1d4c3b2a1030000000000000004000000000000000300000000000000030200000074310500000000000000",
	"c1d4c3b2a103000000000000000500000000000000040000000000000004020000007431010400000064726f7001000000adde000000000000",
	"c1d4c3b2a10300000000000000060000000000000005000000000000000402000000743100",
	"c1d4c3b2a1030000000000000007000000000000000600000000000000050400000065636d70cefaedfe00000000",
	"c1d4c3b2a10300000000000000080000000000000007000000000000000603000000636e740c00000000000000ffffffffffffffff",
	"c1d4c3b2a10300000000000000090000000000000008000000000000000703000000636e740c00000000000000",
	"c1d4c3b2a103000000000000000a0000000000000009000000000000000802000000010000006100000000000000000300000000000000010000006205000000000000000500000000000000",
	"c1d4c3b2a103000000000000000b000000000000000a0000000000000009020000007432",
	"c1d4c3b2a103000000000000000c000000000000000b000000000000000a020000007432",
	"c3d4c3b2a103000000000000000d000000000000000c000000000000000b0200000074314d00000000000000",
}

// TestWireFormatPinned: every sample frame encodes to its golden bytes.
func TestWireFormatPinned(t *testing.T) {
	rs := sampleRequests()
	if len(rs) != len(goldenFrames) {
		t.Fatalf("%d sample requests for %d golden frames", len(rs), len(goldenFrames))
	}
	for i, r := range rs {
		if got := hex.EncodeToString(appendRequest(nil, r)); got != goldenFrames[i] {
			t.Errorf("verb %v: frame changed:\n got %s\nwant %s", r.ops[0].Kind, got, goldenFrames[i])
		}
	}
}

// TestEveryKindHasACodecArm: every driver.OpKind (and the wire's own
// Memoize) has samples, and each encodes to a frame that decodes back to
// the same kind — a kind added to the vocabulary without a codec arm
// fails here.
func TestEveryKindHasACodecArm(t *testing.T) {
	var got request
	for k := driver.OpNone + 1; k <= opMemoize; k++ {
		ops := sampleOps(k)
		if len(ops) == 0 {
			t.Errorf("kind %d (%v) has no sample op", k, k)
		}
		for _, op := range ops {
			op.Kind = k
			b := appendRequest(nil, &request{Kind: frameRequest, ops: []driver.Op{op}})
			if err := decodeRequest(&got, b, nil); err != nil {
				t.Errorf("kind %d (%v): %v", k, k, err)
			} else if len(got.ops) != 1 || got.ops[0].Kind != k || !bytes.Equal(appendRequest(nil, &got), b) {
				t.Errorf("kind %d (%v) does not survive the codec", k, k)
			}
		}
	}
}

// sampleResponses covers every result a response can carry, a run
// stopped part-way and a frame refused whole.
func sampleResponses() []*response {
	return []*response{
		{Session: 1, Seq: 2, Status: statusOK, Results: []result{
			{Kind: driver.OpAddEntry, Handle: 7},
			{Kind: driver.OpRegRead, Val: 99},
			{Kind: driver.OpRead, Vals: [][]uint64{{1, 2}, nil, {3}}},
			{Kind: driver.OpReadEntries, Entries: []rmt.Entry{{Handle: 1, Action: "a", Keys: []rmt.KeySpec{{Value: 4}}, Data: []uint64{8}}}},
			{Kind: driver.OpReadDefault, Call: &p4.ActionCall{Action: "fwd", Data: []uint64{1}}},
			{Kind: driver.OpReadDefault},
			{Kind: driver.OpModifyEntry},
		}},
		{Session: 1, Seq: 4, Status: statusOK, Results: []result{{Kind: driver.OpRead, Vals: [][]uint64{{5, 6, 7, 8}}}}},
		{Session: 9, Seq: 1, Status: statusError, ErrMsg: "unknown table \"zap\""},
		{Session: 9, Seq: 3, Status: statusStale},
		partialRunResponse(),
	}
}

// sampleRun is a 7-op run of route moves, the shape the fabric installer
// sends after a trunk fails.
func sampleRun() *request {
	r := &request{Kind: frameRequest, Session: 2, Epoch: 1, Seq: 41, Ack: 41}
	for i := 0; i < 7; i++ {
		r.ops = append(r.ops, driver.Op{Kind: driver.OpModifyEntry, Table: "route",
			Handle: rmt.EntryHandle(10 + i), Action: "fwd", Data: []uint64{uint64(i % 2)}})
	}
	return r
}

// partialRunResponse answers sampleRun with three ops applied and the
// fourth failed transiently.
func partialRunResponse() *response {
	return &response{Session: 2, Seq: 41, Status: statusTransient, ErrMsg: "busy",
		Results: []result{{Kind: driver.OpModifyEntry}, {Kind: driver.OpModifyEntry}, {Kind: driver.OpModifyEntry}}}
}

// requestDiff compares what two decoded requests carry, field by field,
// so a test can say which field kept residue. Slices are compared by
// content: a truncated slice and a nil one are the same request.
func requestDiff(t *testing.T, what string, got, want *request) {
	t.Helper()
	eqU64 := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	check := func(field string, ok bool) {
		if !ok {
			t.Errorf("%s: field %s differs:\n got %+v\nwant %+v", what, field, got, want)
		}
	}
	check("header", got.Kind == want.Kind && got.Session == want.Session && got.Epoch == want.Epoch &&
		got.Seq == want.Seq && got.Ack == want.Ack && len(got.ops) == len(want.ops))
	for i := range want.ops {
		if i < len(got.ops) {
			opDiff(check, &got.ops[i], &want.ops[i], eqU64)
		}
	}
}

func opDiff(check func(string, bool), g, w *driver.Op, eqU64 func(a, b []uint64) bool) {
	check("Kind", g.Kind == w.Kind)
	check("Table", g.Table == w.Table)
	check("Handle/Priority", g.Handle == w.Handle && g.Priority == w.Priority)
	check("Action", g.Action == w.Action)
	check("Data", eqU64(g.Data, w.Data))
	check("Keys", len(g.Keys) == len(w.Keys))
	for i := range w.Keys {
		if i < len(g.Keys) {
			check("Keys", g.Keys[i] == w.Keys[i])
		}
	}
	check("Call", (g.Call == nil) == (w.Call == nil))
	if g.Call != nil && w.Call != nil {
		check("Call", g.Call.Action == w.Call.Action && eqU64(g.Call.Data, w.Call.Data))
	}
	check("Idx/Val", g.Idx == w.Idx && g.Val == w.Val)
	check("Reqs", len(g.Reqs) == len(w.Reqs))
	for i := range w.Reqs {
		if i < len(g.Reqs) {
			check("Reqs", g.Reqs[i] == w.Reqs[i])
		}
	}
}

func TestCodecRequestRoundTrip(t *testing.T) {
	in := make(wire.Names)
	var got request // one request, reused for every frame like the server's
	for _, r := range sampleRequests() {
		b := appendRequest(nil, r)
		if err := decodeRequest(&got, b, in); err != nil {
			t.Fatalf("verb %v: decode: %v", r.ops[0].Kind, err)
		}
		requestDiff(t, "verb "+r.ops[0].Kind.String(), &got, r)
		if again := appendRequest(nil, &got); !bytes.Equal(again, b) {
			t.Fatalf("verb %s: re-encoding the decoded request changed the frame", r.ops[0].Kind.String())
		}
	}
}

func TestCodecResponseRoundTrip(t *testing.T) {
	in := make(wire.Names)
	var got response
	for _, r := range sampleResponses() {
		b := appendResponse(nil, r)
		if err := decodeResponse(&got, b, in); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if again := appendResponse(nil, &got); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding the decoded response changed the frame:\n got %+v\nwant %+v", &got, r)
		}
		if got.Session != r.Session || got.Seq != r.Seq || got.Status != r.Status || got.ErrMsg != r.ErrMsg ||
			len(got.Results) != len(r.Results) {
			t.Fatalf("roundtrip:\n got %+v\nwant %+v", &got, r)
		}
		for i, w := range r.Results {
			g := got.Results[i]
			if g.Kind != w.Kind || g.Handle != w.Handle || g.Val != w.Val || len(g.Vals) != len(w.Vals) ||
				len(g.Entries) != len(w.Entries) || (g.Call == nil) != (w.Call == nil) {
				t.Fatalf("roundtrip result %d:\n got %+v\nwant %+v", i, g, w)
			}
		}
	}
}

// TestCodecAppendsToCallerBuffer: encoding appends after what the buffer
// already holds and reuses its capacity.
func TestCodecAppendsToCallerBuffer(t *testing.T) {
	r := sampleRequests()[0]
	want := appendRequest(nil, r)
	buf := make([]byte, 3, 4096)
	copy(buf, "abc")
	out := appendRequest(buf, r)
	if string(out[:3]) != "abc" || !bytes.Equal(out[3:], want) {
		t.Fatal("appendRequest did not append after the buffer's contents")
	}
	if &out[0] != &buf[0] {
		t.Fatal("appendRequest reallocated a buffer with room to spare")
	}
	if n := testing.AllocsPerRun(100, func() { buf = appendRequest(buf[:0], r) }); n != 0 {
		t.Fatalf("encoding into a warm buffer allocates %v times", n)
	}
}

// TestCodecRejectsCorruptFrames truncates every valid frame at every
// length and appends trailing garbage: each variant must error, never
// misparse or panic.
func TestCodecRejectsCorruptFrames(t *testing.T) {
	var req request
	for _, r := range sampleRequests() {
		b := appendRequest(nil, r)
		for cut := 0; cut < len(b); cut++ {
			if err := decodeRequest(&req, b[:cut], nil); err == nil {
				t.Fatalf("verb %s: truncation at %d/%d decoded cleanly", r.ops[0].Kind.String(), cut, len(b))
			}
		}
		if err := decodeRequest(&req, append(append([]byte(nil), b...), 0), nil); err == nil {
			t.Fatalf("verb %s: trailing byte accepted", r.ops[0].Kind.String())
		}
	}
	var resp response
	for _, r := range sampleResponses() {
		b := appendResponse(nil, r)
		for cut := 0; cut < len(b); cut++ {
			if err := decodeResponse(&resp, b[:cut], nil); err == nil {
				t.Fatalf("response truncation at %d/%d decoded cleanly", cut, len(b))
			}
		}
	}
	if err := decodeRequest(&req, []byte{0x55}, nil); err == nil {
		t.Fatal("bad frame kind accepted")
	}
	if err := decodeRequest(&req, appendResponse(nil, &response{}), nil); err == nil {
		t.Fatal("response frame accepted as request")
	}
}

// oversizedFrames are frames whose first variable-length prefix claims
// more than the frame (or any frame) can hold.
func oversizedFrames() (reqs, resps [][]byte) {
	header := func(verb driver.OpKind) *wire.Enc {
		e := &wire.Enc{}
		e.U8(frameRequest)
		e.U32(1)
		e.U64(1)
		e.U64(1)
		e.U64(0)
		e.U8(uint8(verb))
		return e
	}
	for _, n := range []uint32{wire.MaxSliceLen + 1, 1 << 30, 1<<32 - 1, 1 << 16} {
		e := header(driver.OpReadEntries)
		e.U32(n) // table-name length
		reqs = append(reqs, e.B)

		e = header(driver.OpModifyEntry)
		e.Str("t")
		e.U64(1)
		e.Str("a")
		e.U32(n) // data length
		reqs = append(reqs, e.B)

		e = header(driver.OpRead)
		e.U32(n) // range count
		reqs = append(reqs, e.B)

		e = &wire.Enc{}
		e.U8(frameResponse)
		e.U32(1)
		e.U64(1)
		e.U8(statusOK)
		e.Str("")
		e.U32(1) // result count
		e.U8(uint8(driver.OpRead))
		e.U32(n) // row count
		resps = append(resps, e.B)
	}
	return reqs, resps
}

// TestCodecOversizedPrefixDoesNotAllocate: a length prefix above
// wire.MaxSliceLen, or above what the rest of the frame could hold, fails
// before the slice it describes is allocated.
func TestCodecOversizedPrefixDoesNotAllocate(t *testing.T) {
	reqs, resps := oversizedFrames()
	var req request
	var resp response
	for i, b := range reqs {
		var err error
		if n := testing.AllocsPerRun(10, func() { err = decodeRequest(&req, b, nil) }); n != 0 {
			t.Errorf("request %d: decoding an oversized prefix allocates %v times", i, n)
		}
		if err == nil {
			t.Errorf("request %d: oversized prefix accepted", i)
		}
	}
	for i, b := range resps {
		var err error
		if n := testing.AllocsPerRun(10, func() { err = decodeResponse(&resp, b, nil) }); n != 0 {
			t.Errorf("response %d: decoding an oversized prefix allocates %v times", i, n)
		}
		if err == nil {
			t.Errorf("response %d: oversized prefix accepted", i)
		}
	}
}

// aliases reports whether s's bytes lie inside buf.
func aliases(s string, buf []byte) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(&buf[0]))
	return p >= lo && p < lo+uintptr(cap(buf))
}

// TestCodecDecodeReuseLeavesNoResidue: decoding a short frame into a
// request (response) that last held a long BatchRead (ReadEntries) frame
// must equal decoding it into a fresh one, field for field, and the
// interned names must survive the frame buffer being overwritten.
func TestCodecDecodeReuseLeavesNoResidue(t *testing.T) {
	in := make(wire.Names)
	read := driver.Op{Kind: driver.OpRead}
	for i := 0; i < 64; i++ {
		read.Reqs = append(read.Reqs, driver.ReadReq{Reg: "a_rather_long_register_name", Lo: uint64(i), Hi: uint64(i) + 32})
	}
	long := &request{Kind: frameRequest, Session: 7, Epoch: 9, Seq: 100, Ack: 99, ops: []driver.Op{read}}
	longAdd := &request{Kind: frameRequest, ops: []driver.Op{{Kind: driver.OpAddEntry, Table: "big",
		Handle: 1, Priority: 5, Action: "wide", Keys: make([]rmt.KeySpec, 12), Data: make([]uint64, 40)}}}
	longMod := &request{Kind: frameRequest, ops: []driver.Op{{Kind: driver.OpModifyEntry, Table: "big", Handle: 4,
		Action: "wide", Data: make([]uint64, 40)}}}
	longDef := &request{Kind: frameRequest, ops: []driver.Op{{Kind: driver.OpSetDefault, Table: "big",
		Call: &p4.ActionCall{Action: "wide", Data: make([]uint64, 40)}}}}
	// A long run leaves every slot of the op array holding something.
	longRun := &request{Kind: frameRequest, ops: append(append(append([]driver.Op{}, longDef.ops...), longAdd.ops...), read, longMod.ops[0], longDef.ops[0])}

	for _, short := range append(sampleRequests(), sampleRun()) {
		var reused request
		for _, l := range []*request{long, longAdd, longMod, longDef, longRun} {
			if err := decodeRequest(&reused, appendRequest(nil, l), in); err != nil {
				t.Fatal(err)
			}
		}
		frame := appendRequest(nil, short)
		if err := decodeRequest(&reused, frame, in); err != nil {
			t.Fatal(err)
		}
		var fresh request
		if err := decodeRequest(&fresh, frame, nil); err != nil {
			t.Fatal(err)
		}
		requestDiff(t, "reused vs fresh, verb "+short.ops[0].Kind.String(), &reused, &fresh)

		for _, s := range []string{reused.ops[0].Table, reused.ops[0].Action} {
			if aliases(s, frame) {
				t.Fatalf("verb %s: decoded name %q aliases the frame buffer", short.ops[0].Kind.String(), s)
			}
		}
		// Overwrite the frame, as the link does when it recycles the
		// buffer: the decoded request must not change.
		before := appendRequest(nil, &reused)
		for i := range frame {
			frame[i] = 0xEE
		}
		if !bytes.Equal(appendRequest(nil, &reused), before) {
			t.Fatalf("verb %s: decoded request changed when its frame buffer was overwritten", short.ops[0].Kind.String())
		}
	}

	// Responses: a long ReadEntries/BatchRead answer, then short ones.
	longResp := &response{Session: 1, Seq: 50, Status: statusOK, ErrMsg: "long ago"}
	for i := 0; i < 8; i++ {
		entries := &result{Kind: driver.OpReadEntries}
		rows := &result{Kind: driver.OpRead}
		for j := 0; j < 32; j++ {
			entries.Entries = append(entries.Entries, rmt.Entry{Handle: rmt.EntryHandle(j + 1), Action: "wide",
				Keys: make([]rmt.KeySpec, 3), Data: make([]uint64, 4)})
			rows.Vals = append(rows.Vals, make([]uint64, 64))
		}
		longResp.Results = append(longResp.Results, *rows, *entries,
			result{Kind: driver.OpReadDefault, Call: &p4.ActionCall{Action: "wide", Data: make([]uint64, 8)}},
			result{Kind: driver.OpAddEntry, Handle: 9}, result{Kind: driver.OpRegRead, Val: 9})
	}
	for _, short := range sampleResponses() {
		var reused response
		if err := decodeResponse(&reused, appendResponse(nil, longResp), in); err != nil {
			t.Fatal(err)
		}
		frame := appendResponse(nil, short)
		if err := decodeResponse(&reused, frame, in); err != nil {
			t.Fatal(err)
		}
		if again := appendResponse(nil, &reused); !bytes.Equal(again, frame) {
			t.Fatalf("response seq %d decoded over a long one re-encodes differently: %+v", short.Seq, &reused)
		}
		if reused.ErrMsg != short.ErrMsg || len(reused.Results) != len(short.Results) {
			t.Fatalf("response seq %d kept residue: %+v", short.Seq, &reused)
		}
		for i, w := range short.Results {
			g := reused.Results[i]
			if g.Kind != w.Kind || g.Handle != w.Handle || g.Val != w.Val || len(g.Entries) != len(w.Entries) ||
				(g.Call == nil) != (w.Call == nil) || len(g.Vals) != len(w.Vals) {
				t.Fatalf("response seq %d result %d kept residue: %+v", short.Seq, i, g)
			}
		}
		if aliases(reused.ErrMsg, frame) {
			t.Fatal("decoded error text aliases the frame buffer")
		}
	}
}

// TestCodecDecodeIntoCallerRows: a batched read's response decodes into
// the rows it is handed, reusing their capacity.
func TestCodecDecodeIntoCallerRows(t *testing.T) {
	frame := appendResponse(nil, &response{Seq: 1, Results: []result{
		{Kind: driver.OpModifyEntry}, {Kind: driver.OpRead, Vals: [][]uint64{{1, 2, 3}, {4}}}}})
	rows := [][]uint64{make([]uint64, 0, 8), make([]uint64, 0, 8)}
	r := response{Results: []result{{}, {Vals: rows[:0]}}}
	if err := decodeResponse(&r, frame, nil); err != nil {
		t.Fatal(err)
	}
	vals := r.Results[1].Vals
	if len(vals) != 2 || &vals[0][0] != &rows[0][:1][0] || &vals[1][0] != &rows[1][:1][0] {
		t.Fatal("decodeResponse did not refill the caller's rows in place")
	}
	if vals[0][2] != 3 || vals[1][0] != 4 {
		t.Fatalf("rows = %v", vals)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Results[1].Vals = rows[:0]
		if err := decodeResponse(&r, frame, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decoding into warm rows allocates %v times", n)
	}
}

// FuzzDecodeRequest: arbitrary bytes never panic, and every accepted
// frame is canonical — encoding what was decoded reproduces it exactly.
// The request is reused across inputs, as the server reuses its own.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range sampleRequests() {
		f.Add(appendRequest(nil, r))
	}
	reqs, _ := oversizedFrames()
	for _, b := range reqs {
		f.Add(b)
	}
	f.Add(appendRequest(nil, sampleRun()))
	var r request
	in := make(wire.Names)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := decodeRequest(&r, b, in); err != nil {
			return
		}
		if again := appendRequest(nil, &r); !bytes.Equal(again, b) {
			t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", b, again)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the other direction.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range sampleResponses() {
		f.Add(appendResponse(nil, r))
	}
	_, resps := oversizedFrames()
	for _, b := range resps {
		f.Add(b)
	}
	var r response
	in := make(wire.Names)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := decodeResponse(&r, b, in); err != nil {
			return
		}
		if again := appendResponse(nil, &r); !bytes.Equal(again, b) {
			t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", b, again)
		}
		if seq, ok := responseSeq(b); !ok || seq != r.Seq {
			t.Fatalf("responseSeq = %d, %v for an accepted frame with seq %d", seq, ok, r.Seq)
		}
	})
}
