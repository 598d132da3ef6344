package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*Nanosecond, func() { got = append(got, 3) })
	s.Schedule(10*Nanosecond, func() { got = append(got, 1) })
	s.Schedule(20*Nanosecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if s.Now() != Time(30) {
		t.Fatalf("clock = %v, want 30ns", s.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*Nanosecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var seq []string
	s.Schedule(10*Nanosecond, func() {
		seq = append(seq, "a")
		s.Schedule(5*Nanosecond, func() { seq = append(seq, "c") })
	})
	s.Schedule(12*Nanosecond, func() { seq = append(seq, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("got %v want %v", seq, want)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	id := s.Schedule(10*Nanosecond, func() { ran = true })
	s.Cancel(id)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	s.Schedule(100*Nanosecond, func() {})
	s.RunUntil(Time(50))
	if s.Now() != Time(50) {
		t.Fatalf("clock = %v, want 50ns", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.RunUntil(Time(200))
	if s.Now() != Time(200) || s.Pending() != 0 {
		t.Fatalf("clock = %v pending = %d", s.Now(), s.Pending())
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(10*Nanosecond, func() { n++ })
	s.RunFor(100 * Nanosecond)
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(10*Nanosecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunFor(1000 * Nanosecond)
	if n != 3 {
		t.Fatalf("ticks after stop = %d, want 3", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestStop(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(Nanosecond, func() {
		n++
		if n == 5 {
			s.Stop()
		}
	})
	s.Run()
	if n != 5 {
		t.Fatalf("events after Stop = %d, want 5", n)
	}
}

func TestSchedulePastClamped(t *testing.T) {
	s := New(1)
	s.Schedule(100*Nanosecond, func() {
		// Scheduling in the past must clamp to now, keeping the clock monotonic.
		s.At(Time(10), func() {
			if s.Now() != Time(100) {
				t.Errorf("clock ran backwards: %v", s.Now())
			}
		})
	})
	s.Run()
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestExecutedCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.Schedule(time.Duration(i)*Nanosecond, func() {})
	}
	s.Run()
	if s.Executed() != 7 {
		t.Fatalf("executed = %d, want 7", s.Executed())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []Time
		var max Time
		for _, d := range delays {
			dd := time.Duration(d) * Nanosecond
			if Time(dd) > max {
				max = Time(dd)
			}
			s.Schedule(dd, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1000)
	if tm.Add(500*Nanosecond) != Time(1500) {
		t.Fatal("Add")
	}
	if tm.Sub(Time(400)) != 600*Nanosecond {
		t.Fatal("Sub")
	}
	if tm.Duration() != time.Microsecond {
		t.Fatal("Duration")
	}
	if tm.String() != "1µs" {
		t.Fatalf("String = %q", tm.String())
	}
}

// cancelledEvents counts event structs carrying a cancellation mark,
// queued or free: the residue a mis-aimed Cancel would leave behind.
func cancelledEvents(s *Simulator) int {
	n := 0
	for _, e := range s.events {
		if e.cancelled {
			n++
		}
	}
	return n
}

// TestCancelFiredEventIsNoOp: cancelling an id whose event already ran —
// Ticker.Stop from inside its own tick, where pending names the event
// that is running — must leave no tombstone, and must not hit the event
// that has since reused the struct.
func TestCancelFiredEventIsNoOp(t *testing.T) {
	s := New(1)
	ticks := 0
	var tk *Ticker
	tk = s.Every(10*Nanosecond, func() {
		ticks++
		if ticks == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if ticks != 3 {
		t.Fatalf("ticker ran %d times, want 3", ticks)
	}
	if n := cancelledEvents(s); n != 0 || s.Pending() != 0 {
		t.Fatalf("after drain: %d cancelled events, %d pending; want 0, 0", n, s.Pending())
	}

	// A stale id must not cancel the struct's next use.
	stale := s.Schedule(Nanosecond, func() {})
	s.Run()
	ran := false
	s.Schedule(Nanosecond, func() { ran = true }) // reuses the freed struct
	s.Cancel(stale)
	s.Cancel(0)
	s.Cancel(EventID(1 << 62)) // a slot that was never allocated
	s.Run()
	if !ran {
		t.Fatal("a stale EventID cancelled the event that reused its struct")
	}
	if n := cancelledEvents(s); n != 0 {
		t.Fatalf("%d cancelled events left behind", n)
	}
}
