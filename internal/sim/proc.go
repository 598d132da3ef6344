//go:build go1.23

// The constraint gives this file the language version iter.Pull needs
// while go.mod stays at go 1.22 (README, "Quick start").

package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated sequential process (e.g. a control-plane thread).
//
// The event loop of a discrete-event simulator is inconvenient for code
// that reads state, blocks for a device latency, then branches on the
// result — exactly the shape of the Mantis agent's dialogue loop and of
// a legacy control-plane application. Proc provides blocking-style
// execution on top of the event queue: the process body runs as a
// coroutine (iter.Pull), but exactly one goroutine — the Run caller or
// one process — holds control at any time, so execution remains
// deterministic. A process that blocks keeps control and runs the event
// loop itself (Simulator.loop) until its own wake-up comes up or control
// has to go to another process, which is one coroutine switch.
//
// A Proc may only interact with the simulation between Spawn and the
// return of its body, and must block only via Sleep/WaitUntil/Park.
type Proc struct {
	sim  *Simulator
	name string
	// next resumes the body's coroutine (the first call starts it) and
	// returns when the body yields or returns; yield, captured when the
	// body starts, suspends it and hands control back to that next's
	// caller.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// chained is set while the process is on the chain: running, or
	// suspended inside a next() it made.
	chained bool
	done    bool
}

// Spawn starts fn as a simulated process at the current virtual time.
// fn begins executing when the scheduler reaches the spawn event, which
// is the process's first wake-up.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.done = true
		s.transfers++ // back to the resumer
	})
	s.wakeAt(s.now, p)
	return p
}

// wakeAt schedules p's wake-up at t: an event that carries the process
// instead of a callback.
func (s *Simulator) wakeAt(t Time, p *Proc) {
	s.newEvent(t).proc = p
}

// resume hands control to p, which is not on the chain and whose wake-up
// the caller has just popped. It returns when control comes back: p's
// body returned, or p yielded to pass control down the chain (see loop).
// A panic or runtime.Goexit in p's body comes out of here too.
func (p *Proc) resume() {
	if p.done {
		panic(fmt.Sprintf("sim: wake of finished proc %q", p.name))
	}
	p.sim.transfers++
	p.chained = true
	p.next()
	p.chained = false
}

// suspend hands control back to p's resumer. It returns when a later
// resume of p — the pop of p's own wake-up — brings control back.
func (p *Proc) suspend() {
	p.sim.transfers++
	p.yield(struct{}{})
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Sleep suspends the process for d of virtual time. Other events (data
// plane packets, other processes) run in the meantime.
func (p *Proc) Sleep(d time.Duration) {
	if p.done {
		panic(fmt.Sprintf("sim: Sleep on finished proc %q", p.name))
	}
	if d <= 0 {
		d = 0
	}
	s := p.sim
	t := s.now.Add(d)
	if !s.skipTo(t) {
		s.wakeAt(t, p)
		s.loop(p)
	}
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
