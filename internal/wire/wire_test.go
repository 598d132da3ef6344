package wire

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/rmt"
)

func TestRoundTrip(t *testing.T) {
	keys := []rmt.KeySpec{{Value: 7, Mask: 0xFF}, {Lo: 1, Hi: 9}}
	var e Enc
	e.U8(0xC1)
	e.U32(1 << 31)
	e.U64(1<<63 | 5)
	e.Str("t1")
	e.Str("")
	e.U64s([]uint64{1, 2, 3})
	e.U64s(nil)
	e.Keys(keys)

	d := Dec{B: e.B, Names: Names{}}
	if d.U8() != 0xC1 || d.U32() != 1<<31 || d.U64() != 1<<63|5 || d.Name() != "t1" || d.Text() != "" {
		t.Fatal("scalars and strings did not round-trip")
	}
	if got := d.U64s(make([]uint64, 9)); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("U64s = %v", got)
	}
	if got := d.U64s(nil); got != nil {
		t.Fatalf("an empty U64s into nil = %v, want nil", got)
	}
	if got := d.Keys(nil); !slices.Equal(got, keys) {
		t.Fatalf("Keys = %v", got)
	}
	if err := d.Leftover(); err != nil {
		t.Fatal(err)
	}
	if d.Names["t1"] != "t1" {
		t.Fatal("Name did not intern")
	}
}

// TestDecFailsSticky: running out of bytes, a length prefix the buffer
// cannot hold and trailing bytes all fail, and the first failure sticks.
func TestDecFailsSticky(t *testing.T) {
	var e Enc
	e.U64s([]uint64{1, 2})
	for n := 0; n < len(e.B); n++ {
		d := Dec{B: e.B[:n]}
		d.U64s(nil)
		if !errors.Is(d.Leftover(), ErrShort) {
			t.Fatalf("truncated to %d bytes: %v", n, d.Leftover())
		}
		if d.U8() != 0 || d.U64() != 0 || d.Text() != "" || !errors.Is(d.Err, ErrShort) {
			t.Fatalf("truncated to %d bytes: reads after the failure returned data", n)
		}
	}
	for _, count := range []uint32{3, MaxSliceLen + 1, 1<<32 - 1} {
		var e Enc
		e.U32(count)
		e.U64(1)
		e.U64(2)
		d := Dec{B: e.B}
		if n := testing.AllocsPerRun(10, func() { d = Dec{B: e.B}; d.U64s(nil) }); n != 0 || !errors.Is(d.Err, ErrShort) {
			t.Fatalf("count %d over 16 bytes: %v allocs, err %v", count, n, d.Err)
		}
	}
	d := Dec{B: append(e.B, 0)}
	d.U64s(nil)
	if err := d.Leftover(); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("trailing byte: %v", err)
	}
}
