package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated sequential process (e.g. a control-plane thread).
//
// The event loop of a discrete-event simulator is inconvenient for code
// that reads state, blocks for a device latency, then branches on the
// result — exactly the shape of the Mantis agent's dialogue loop and of
// a legacy control-plane application. Proc provides blocking-style
// execution on top of the event queue: the process body runs in its own
// goroutine, but exactly one goroutine — the Run caller or one process —
// holds control at any time, so execution remains deterministic. A
// process that blocks keeps control and runs the event loop itself
// (Simulator.loop) until its own wake-up comes up or control has to go to
// another goroutine.
//
// A Proc may only interact with the simulation between Spawn and the
// return of its body, and must block only via Sleep/WaitUntil/Park.
type Proc struct {
	sim  *Simulator
	name string
	// fn is the body until the first wake-up starts its goroutine; from
	// then on control reaches the blocked goroutine through wake.
	fn   func(*Proc)
	wake chan struct{}
	done bool
}

// Spawn starts fn as a simulated process at the current virtual time.
// fn begins executing when the scheduler reaches the spawn event, which
// is the process's first wake-up.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn, wake: make(chan struct{})}
	s.wakeAt(s.now, p)
	return p
}

// wakeAt schedules p's wake-up at t: an event that carries the process
// instead of a callback.
func (s *Simulator) wakeAt(t Time, p *Proc) {
	e := s.newEvent(t)
	e.proc = p
	s.push(e)
}

// resume hands control to p, whose wake-up the caller has just popped.
// The caller must not touch simulator state afterwards (see loop).
func (p *Proc) resume() {
	if p.done {
		panic(fmt.Sprintf("sim: wake of finished proc %q", p.name))
	}
	p.sim.transfers++
	if fn := p.fn; fn != nil {
		p.fn = nil
		go p.run(fn)
		return
	}
	p.wake <- struct{}{}
}

// run is the process goroutine. When the body returns, control goes
// back to the Run caller.
func (p *Proc) run(fn func(*Proc)) {
	fn(p)
	p.done = true
	p.sim.transfers++
	p.sim.main <- struct{}{}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Sim returns the underlying simulator. Scheduling events from within a
// running process is safe: the process holds control while it runs.
func (p *Proc) Sim() *Simulator { return p.sim }

// Sleep suspends the process for d of virtual time. Other events (data
// plane packets, other processes) run in the meantime.
func (p *Proc) Sleep(d time.Duration) {
	if p.done {
		panic(fmt.Sprintf("sim: Sleep on finished proc %q", p.name))
	}
	if d <= 0 {
		d = 0
	}
	p.sim.wakeAt(p.sim.now.Add(d), p)
	p.sim.loop(p)
}

// WaitUntil suspends the process until the absolute virtual time t. If
// t is in the past it returns immediately.
func (p *Proc) WaitUntil(t Time) {
	if t <= p.sim.Now() {
		return
	}
	p.Sleep(t.Sub(p.sim.Now()))
}

// Yield gives other same-time events a chance to run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }

// Park suspends the process indefinitely, until some other component —
// an event or another process — calls Unpark. Unlike Sleep, no wakeup
// is scheduled: a parked process consumes no events and the simulation
// may drain and finish around it (its goroutine is reclaimed at process
// exit only if it is eventually unparked).
//
// Park/Unpark is the blocking primitive service-style components are
// built from: a dispatcher parks while its queues are empty, and a
// requester parks while its request is in flight. The pairing
// discipline is the caller's responsibility: every Park must be matched
// by exactly one Unpark, and Unpark must never be called for a process
// that is not parked — trackers like an "idle" flag or a per-request
// waiter pointer make this trivial to maintain.
func (p *Proc) Park() {
	if p.done {
		panic(fmt.Sprintf("sim: Park on finished proc %q", p.name))
	}
	p.sim.loop(p)
}

// Unpark schedules a parked process to resume at the current virtual
// time (after already-queued same-time events). It must be called from
// simulator context: inside an event callback or from another running
// process. Unparking a process whose body has returned panics when the
// wake-up comes up.
func (p *Proc) Unpark() { p.sim.wakeAt(p.sim.now, p) }
