package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var times []Time
	s.Spawn("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(10 * Microsecond)
		times = append(times, p.Now())
		p.Sleep(5 * Microsecond)
		times = append(times, p.Now())
	})
	s.Run()
	want := []Time{0, Time(10 * Microsecond), Time(15 * Microsecond)}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleavesWithEvents(t *testing.T) {
	s := New(1)
	var order []string
	s.Schedule(5*Nanosecond, func() { order = append(order, "event@5") })
	s.Spawn("p", func(p *Proc) {
		order = append(order, "proc@0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "proc@10")
	})
	s.Run()
	if len(order) != 3 || order[0] != "proc@0" || order[1] != "event@5" || order[2] != "proc@10" {
		t.Fatalf("order = %v", order)
	}
}

func TestTwoProcsDeterministic(t *testing.T) {
	runOnce := func() []string {
		s := New(1)
		var order []string
		s.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, "a")
				p.Sleep(10 * Nanosecond)
			}
		})
		s.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, "b")
				p.Sleep(15 * Nanosecond)
			}
		})
		s.Run()
		return order
	}
	first := runOnce()
	for i := 0; i < 10; i++ {
		again := runOnce()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestProcWaitUntil(t *testing.T) {
	s := New(1)
	var at Time
	s.Spawn("p", func(p *Proc) {
		p.WaitUntil(Time(100))
		p.WaitUntil(Time(50)) // in the past: no-op
		at = p.Now()
	})
	s.Run()
	if at != Time(100) {
		t.Fatalf("at = %v, want 100ns", at)
	}
}

func TestProcYield(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("p", func(p *Proc) {
		s.Schedule(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "after-yield")
	})
	s.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "after-yield" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcSchedulingFromProc(t *testing.T) {
	s := New(1)
	hit := false
	s.Spawn("p", func(p *Proc) {
		p.sim.Schedule(20*Nanosecond, func() { hit = true })
		p.Sleep(30 * Nanosecond)
		if !hit {
			t.Error("event scheduled from proc did not run during sleep")
		}
	})
	s.Run()
	if !hit {
		t.Fatal("scheduled event never ran")
	}
}

func TestProcParkUnpark(t *testing.T) {
	s := New(1)
	var order []string
	parked := false
	var worker *Proc
	worker = s.Spawn("worker", func(p *Proc) {
		order = append(order, "work@"+p.Now().String())
		parked = true
		p.Park()
		parked = false
		order = append(order, "woken@"+p.Now().String())
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		if !parked {
			t.Error("worker not parked at wake time")
		}
		worker.Unpark()
		order = append(order, "unpark@"+p.Now().String())
	})
	s.Run()
	want := []string{"work@0s", "unpark@100ns", "woken@100ns"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcParkedProcDoesNotBlockDrain(t *testing.T) {
	// A parked process holds no pending events, so the simulation can
	// drain and finish around it.
	s := New(1)
	reached := false
	s.Spawn("parked", func(p *Proc) {
		p.Park()
		t.Error("parked proc resumed without Unpark")
	})
	s.Schedule(50*Nanosecond, func() { reached = true })
	s.Run()
	if !reached || s.Pending() != 0 {
		t.Fatalf("reached=%v pending=%d", reached, s.Pending())
	}
}

// twoDeep builds a chain two processes deep: "outer" parks, so the
// loop it runs resumes "inner", whose body is fn.
func twoDeep(s *Simulator, fn func(*Proc)) {
	s.Spawn("outer", func(p *Proc) { p.Park() })
	s.Spawn("inner", fn)
}

// TestBodyPanicReachesRunCaller: a panic two levels down the chain
// unwinds every process on it and comes out of Run, where the Run caller
// recovers the value.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	s := New(1)
	twoDeep(s, func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("Run caller recovered %v, want boom", r)
		}
	}()
	s.Run()
	t.Fatal("Run returned normally after a body panicked")
}

// TestGoexitInBodyUnwindsRunCaller: runtime.Goexit (what t.Fatal calls) in
// a body two levels down the chain ends the Run caller's goroutine too, so
// its deferred functions run instead of Run waiting forever.
func TestGoexitInBodyUnwindsRunCaller(t *testing.T) {
	exited := make(chan bool, 1)
	go func() {
		returned := false
		defer func() { exited <- returned }()
		s := New(1)
		twoDeep(s, func(*Proc) { runtime.Goexit() })
		s.Run()
		returned = true
	}()
	select {
	case returned := <-exited:
		if returned {
			t.Fatal("Run returned normally after a body called runtime.Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the Run caller's deferred functions did not run within 10 s: Run is stuck")
	}
}

func TestProcRunUntilPartial(t *testing.T) {
	s := New(1)
	steps := 0
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			steps++
			p.Sleep(10 * Nanosecond)
		}
	})
	s.RunUntil(Time(35 * time.Nanosecond))
	if steps != 4 { // at t=0,10,20,30
		t.Fatalf("steps = %d, want 4", steps)
	}
	s.Run()
	if steps != 10 {
		t.Fatalf("steps after full run = %d", steps)
	}
}
