package journal_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/journal"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/wire"
)

// recordSrc gives a journaled agent something of every kind to record:
// two malleable tables, a malleable value and a polled register.
const recordSrc = `
header_type h_t { fields { k : 8; port : 8; o1 : 32; o2 : 32; } }
header h_t hdr;
register qd { width : 32; instance_count : 8; }
malleable value thresh { width : 16; init : 3; }
action meas() { register_write(qd, hdr.port, standard_metadata.packet_length); }
action set1(v) { modify_field(hdr.o1, v); }
action set2(v) { modify_field(hdr.o2, v); modify_field(standard_metadata.egress_spec, 1); }
action mark() { modify_field(hdr.o2, ${thresh}); modify_field(standard_metadata.egress_spec, 1); }
table m { actions { meas; } default_action : meas; size : 1; }
malleable table t1 { reads { hdr.k : exact; } actions { set1; } size : 8; }
malleable table t2 { reads { hdr.k : ternary; } actions { set2; mark; } size : 8; }
reaction bump(reg qd) { }
control ingress { apply(m); apply(t1); apply(t2); }
`

// written is one record a running agent handed its store: the encoded
// form, and the value as encoding/json — the format the journal used to
// speak — round-trips it.
type written struct {
	rec  []byte
	json any // *journal.Checkpoint or *journal.Intent
}

// captureStore records everything written through it.
type captureStore struct {
	journal.Store
	t    testing.TB
	enc  journal.Encoder
	cps  []written
	ints []written
}

func (c *captureStore) SaveCheckpoint(cp *journal.Checkpoint) error {
	c.cps = append(c.cps, written{c.enc.AppendCheckpoint(nil, cp), jsonRoundTrip(c.t, cp)})
	return c.Store.SaveCheckpoint(cp)
}

func (c *captureStore) WriteIntent(it *journal.Intent) error {
	c.ints = append(c.ints, written{c.enc.AppendIntent(nil, it), jsonRoundTrip(c.t, it)})
	return c.Store.WriteIntent(it)
}

func jsonRoundTrip[T any](t testing.TB, v *T) *T {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// agentRecords runs a journaled agent through adds, modifies, deletes and
// malleable writes and returns every checkpoint and intent it wrote.
func agentRecords(t testing.TB) (cps, ints []written) {
	t.Helper()
	plan, err := compiler.CompileSource(recordSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := &captureStore{Store: journal.NewMemStore(), t: t}
	var h1, h2, extra core.UserHandle
	iter := uint64(0)
	agent := core.NewAgent(s, driver.New(s, sw, driver.DefaultCostModel()), plan, core.Options{
		Journal:       &core.JournalConfig{Store: store},
		MaxIterations: 6,
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			t1, _ := a.Table("t1")
			t2, _ := a.Table("t2")
			var err error
			if h1, err = t1.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "set1", Data: []uint64{0}}); err != nil {
				return err
			}
			h2, err = t2.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.TernaryKey(4, 0xff)}, Priority: 2, Action: "mark"})
			return err
		},
	})
	if err := agent.RegisterNativeReaction("bump", func(ctx *core.Ctx) error {
		iter++
		t1, _ := ctx.Table("t1")
		t2, _ := ctx.Table("t2")
		var err error
		switch iter {
		case 2:
			extra, err = t1.AddEntry(core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(9)}, Action: "set1", Data: []uint64{9}})
		case 3:
			err = ctx.SetMbl("thresh", 40+iter)
		case 4:
			err = t1.DeleteEntry(extra)
		}
		if err != nil {
			return err
		}
		if err := t1.ModifyEntry(h1, "set1", []uint64{iter}); err != nil {
			return err
		}
		if iter%2 == 0 {
			return t2.ModifyEntry(h2, "mark", []uint64{}) // no data, as empty and as nil
		}
		return t2.ModifyEntry(h2, "set2", []uint64{iter})
	}); err != nil {
		t.Fatal(err)
	}
	agent.Start()
	s.RunFor(time.Millisecond)
	if err := agent.Err(); err != nil {
		t.Fatal(err)
	}
	if len(store.cps) < 7 || len(store.ints) < 12 {
		t.Fatalf("agent wrote %d checkpoints and %d intents", len(store.cps), len(store.ints))
	}
	return store.cps, store.ints
}

// emptyToNil rewrites every empty slice and map under v to nil: the
// record encoding is canonical (length 0 either way), JSON's is not.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			emptyToNil(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			emptyToNil(v.Field(i))
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				emptyToNil(v.Index(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			emptyToNil(v.Index(i))
		}
	}
}

// TestRecordMatchesJSONRoundTrip: for every record a running agent
// writes, decode(encode(r)) is what the encoding/json round trip of the
// same r gives, nil-versus-empty aside.
func TestRecordMatchesJSONRoundTrip(t *testing.T) {
	cps, ints := agentRecords(t)
	for i, w := range cps {
		got, err := journal.DecodeCheckpoint(w.rec)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		emptyToNil(reflect.ValueOf(w.json))
		if !reflect.DeepEqual(got, w.json) {
			t.Errorf("checkpoint %d: binary round trip\n%+v\nJSON round trip\n%+v", i, got, w.json)
		}
	}
	sawOps, sawMbl := false, false
	for i, w := range ints {
		got, err := journal.DecodeIntent(w.rec)
		if err != nil {
			t.Fatalf("intent %d: %v", i, err)
		}
		emptyToNil(reflect.ValueOf(w.json))
		if !reflect.DeepEqual(got, w.json) {
			t.Errorf("intent %d: binary round trip\n%+v\nJSON round trip\n%+v", i, got, w.json)
		}
		sawOps = sawOps || len(got.Ops) >= 3
		sawMbl = sawMbl || len(got.PendingMbl) > 0
	}
	if !sawOps || !sawMbl {
		t.Fatalf("the corpus never exercised ops (%v) or pending malleables (%v)", sawOps, sawMbl)
	}
}

func decodeBoth(b []byte) (cp *journal.Checkpoint, it *journal.Intent, cpErr, itErr error) {
	cp, cpErr = journal.DecodeCheckpoint(b)
	it, itErr = journal.DecodeIntent(b)
	return
}

// TestRecordDamageIsDetected: every truncation, every extension and
// every single-bit flip of a valid record fails to decode — as either
// kind — with ErrCorrupt, instead of reading as a different record.
func TestRecordDamageIsDetected(t *testing.T) {
	cps, ints := agentRecords(t)
	recs := [][]byte{cps[0].rec, cps[len(cps)-1].rec, ints[0].rec}
	for _, w := range ints {
		if len(w.rec) > len(recs[2]) {
			recs[2] = w.rec // the largest intent: ops, malleables, init data
		}
	}
	check := func(what string, b []byte) {
		_, _, cpErr, itErr := decodeBoth(b)
		if !errors.Is(cpErr, journal.ErrCorrupt) || !errors.Is(itErr, journal.ErrCorrupt) {
			t.Fatalf("%s: decoded with errors %v / %v, want ErrCorrupt from both", what, cpErr, itErr)
		}
	}
	for ri, rec := range recs {
		for n := 0; n < len(rec); n++ {
			check("truncation", rec[:n])
		}
		check("extension", append(bytes.Clone(rec), 0))
		flipped := bytes.Clone(rec)
		for bit := 0; bit < 8*len(rec); bit++ {
			flipped[bit/8] ^= 1 << (bit % 8)
			check("bit flip", flipped)
			flipped[bit/8] ^= 1 << (bit % 8)
		}
		t.Logf("record %d: %d bytes, %d truncations and %d bit flips all detected", ri, len(rec), len(rec), 8*len(rec))
	}
}

// frame wraps body in a valid record header (the magic borrowed from a
// real record), so what a decoder rejects is the body, not the framing.
func frame(body []byte) []byte {
	var enc journal.Encoder
	w := wire.Enc{B: enc.AppendCheckpoint(nil, &journal.Checkpoint{})[:4]}
	w.U32(uint32(len(body)))
	w.U32(crc32.ChecksumIEEE(body))
	return append(w.B, body...)
}

// TestOversizedCountsDoNotAllocate: a well-framed record whose body
// claims more elements than its bytes could hold fails before the slice
// (or map) it describes is allocated.
func TestOversizedCountsDoNotAllocate(t *testing.T) {
	header := func(kind uint8, fixed int) *wire.Enc {
		w := &wire.Enc{}
		w.U8(kind)
		for i := 0; i < fixed; i++ {
			w.U64(1)
		}
		return w
	}
	var bodies [][]byte
	for _, n := range []uint32{wire.MaxSliceLen + 1, 1 << 30, 1<<32 - 1, 1 << 16} {
		w := header(1, 4) // checkpoint: iteration, vv, mv, saved_at
		w.U32(n)          // init-data rows
		bodies = append(bodies, w.B)

		w = header(1, 4)
		w.U32(0) // no init data
		w.U32(n) // malleables
		bodies = append(bodies, w.B)

		w = header(1, 4)
		w.U32(0)
		w.U32(0)
		w.U32(1) // one table
		w.Str("t")
		w.U64(1)
		w.U32(n) // entries
		bodies = append(bodies, w.B)

		w = header(2, 1) // intent: iteration
		w.Str("begun")
		w.U64(0)
		w.U64(1)
		w.U64(0)
		w.U32(n) // ops
		bodies = append(bodies, w.B)
	}
	// TotalAlloc is process-wide, so a goroutine the runtime or the
	// testing package runs meanwhile can add to one reading. The decoder's
	// own allocations recur on every call, so the fewest bytes over a few
	// calls is what decoding costs.
	const tries = 5
	for i, body := range bodies {
		rec := frame(body)
		least := ^uint64(0)
		for try := 0; try < tries; try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			_, _, cpErr, itErr := decodeBoth(rec)
			runtime.ReadMemStats(&ms1)
			if try == 0 && (!errors.Is(cpErr, journal.ErrCorrupt) || !errors.Is(itErr, journal.ErrCorrupt)) {
				t.Errorf("body %d: oversized count accepted (%v / %v)", i, cpErr, itErr)
			}
			least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if least > 4096 {
			t.Errorf("body %d: decoding a %d-byte record allocated %d bytes", i, len(rec), least)
		}
	}
}

// FuzzJournalRecord: arbitrary bytes — as they are, and as the body of
// a well-framed record, which gets the fuzzer past the checksum — never
// panic either decoder, fail only with ErrCorrupt, and whatever does
// decode is stable: it encodes to a record that decodes to the same
// value. Seeded with what a running agent writes.
func FuzzJournalRecord(f *testing.F) {
	cps, ints := agentRecords(f)
	for _, w := range append(cps, ints...) {
		f.Add(w.rec)
		f.Add(w.rec[:len(w.rec)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRecord(t, b)
		if len(b) > 12 {
			fuzzRecord(t, frame(b[12:]))
		}
	})
}

func fuzzRecord(t *testing.T, b []byte) {
	var enc journal.Encoder
	cp, it, cpErr, itErr := decodeBoth(b)
	for _, err := range []error{cpErr, itErr} {
		if err != nil && !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("decode failed with %v, not ErrCorrupt", err)
		}
	}
	if cpErr == nil {
		again, err := journal.DecodeCheckpoint(enc.AppendCheckpoint(nil, cp))
		if err != nil || !reflect.DeepEqual(again, cp) {
			t.Fatalf("checkpoint does not survive re-encoding: %v\n%+v\n%+v", err, cp, again)
		}
	}
	if itErr == nil {
		again, err := journal.DecodeIntent(enc.AppendIntent(nil, it))
		if err != nil || !reflect.DeepEqual(again, it) {
			t.Fatalf("intent does not survive re-encoding: %v\n%+v\n%+v", err, it, again)
		}
	}
}

// TestLoadsSeeOnlyWholeRecords: a standby loading in a loop while the
// primary writes sees each record whole — every field from the same
// write — never a mixture. Run under -race.
func TestLoadsSeeOnlyWholeRecords(t *testing.T) {
	st := journal.NewMemStore()
	record := func(n uint64) (*journal.Checkpoint, *journal.Intent) {
		data := make([]uint64, 1+n%7)
		for i := range data {
			data[i] = n
		}
		spec := journal.EntrySpec{Keys: []rmt.KeySpec{rmt.ExactKey(n)}, Action: "set1", Data: data}
		return &journal.Checkpoint{
				Iteration: n, VV: n % 2, InitData: [][]uint64{data, data},
				Mbl:    map[string]uint64{"a": n, "b": n},
				Tables: []journal.TableState{{Table: "t1", NextHandle: n, Entries: []journal.EntryState{{Handle: n, Spec: spec}}}},
			}, &journal.Intent{
				Iteration: n, Phase: journal.PhaseCommitStaged, StartVV: n % 2, TargetVV: (n + 1) % 2,
				Ops:            []journal.TableOp{{Table: "t1", Kind: journal.OpModify, Handle: n, Spec: spec}},
				TargetInitData: [][]uint64{data},
			}
	}
	const writes = 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() { // the primary
		defer wg.Done()
		defer close(done)
		for n := uint64(1); n <= writes; n++ {
			cp, it := record(n)
			if err := st.WriteIntent(it); err != nil {
				t.Error(err)
			}
			if err := st.SaveCheckpoint(cp); err != nil {
				t.Error(err)
			}
			if n%3 == 0 {
				_ = st.TruncateIntent()
			}
		}
	}()
	loads := 0
	go func() { // the standby
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			cp, err := st.LoadCheckpoint()
			if err != nil {
				t.Errorf("load checkpoint: %v", err)
				return
			}
			if cp != nil {
				want, _ := record(cp.Iteration)
				if !reflect.DeepEqual(cp, want) {
					t.Errorf("torn checkpoint: %+v", cp)
					return
				}
			}
			it, err := st.LoadIntent()
			if err != nil {
				t.Errorf("load intent: %v", err)
				return
			}
			if it != nil {
				if _, want := record(it.Iteration); !reflect.DeepEqual(it, want) {
					t.Errorf("torn intent: %+v", it)
					return
				}
			}
			loads++
		}
	}()
	wg.Wait()
	t.Logf("%d loads interleaved with %d writes", loads, writes)
}
