// Package sim provides a deterministic discrete-event simulation core.
//
// All Mantis components in this repository — the RMT switch model, the
// simulated PCIe driver, the network simulator, and the Mantis agent's
// dialogue loop — run against a shared virtual clock managed by a
// Simulator. Virtual time has nanosecond resolution, which is required to
// express the paper's latency scales faithfully: pipeline traversal is
// measured in 100s of nanoseconds, PCIe round trips in microseconds, and
// full reaction loops in 10s of microseconds.
//
// The simulator is intentionally single-threaded: events execute one at a
// time in (time, sequence) order, so every run is exactly reproducible
// given the same seed. Components that are conceptually concurrent (the
// data plane, the Mantis agent, a legacy control plane) interleave by
// scheduling events; a Proc gives one of them a coroutine for its stack,
// but only the goroutine that holds control ever runs, and control moves
// by coroutine switch, not through the Go scheduler (see loop).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback — either a plain closure fn, or an
// arg-passing afn(arg) pair (see ScheduleCall) — or the wake-up of a
// process, which carries the Proc and no callback. ScheduleCall lets hot
// paths schedule per-packet work without allocating a capturing
// closure; combined with the simulator's event freelist the schedule
// operation itself is allocation-free in steady state.
type event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run FIFO
	fn   func()
	afn  func(any)
	arg  any
	proc *Proc
	// next is the event queued after this one in its run.
	next *event
	// slot is the struct's fixed index in Simulator.events; gen counts
	// its uses. Together they are the EventID, so an id names one
	// scheduling of the struct and goes stale the moment that event runs.
	slot      uint32
	gen       uint64
	queued    bool
	cancelled bool
}

// before is the queue order: time, then scheduling sequence.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// The queue is a binary min-heap on before of runs: FIFO lists of
// events for one instant, linked by next, each represented in the heap
// by its first event. An event joins a run only while the run is
// remembered (Simulator.recent), and no run for an instant is started
// while one for it is remembered. A remembered run is therefore the
// latest started of its instant, and every event queued at that instant
// since its first is in it: the events of two runs of one instant never
// interleave in seq, so FIFO inside a run and before across runs is the
// (at, seq) order.

// recentRuns is how many of the latest started runs an event can join.
// Replaying fabric_reroute's queue operations, two took 0.24 heap
// insertions per event where one took 0.31 and left the heap twice as
// deep, and were the fastest; three and more only paid for the scan.
const recentRuns = 2

// remembered is a run an event can join: its instant and its last event,
// with that event's gen. The run has emptied, and can be joined no more,
// once that event has run and its gen has moved on.
type remembered struct {
	at   Time
	gen  uint64
	last *event
}

// push sifts e, the first event of a new run, into the heap.
func (s *Simulator) push(e *event) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	s.queue = q
}

// pop takes the first event of the head run. The run's next event takes
// its place in the heap, which keeps the heap's order since no other run
// has an event between the two; only when the run empties does the heap
// shrink.
func (s *Simulator) pop() *event {
	q := s.queue
	top := q[0]
	if top.next != nil {
		q[0], top.next = top.next, nil
		return top
	}
	n := len(q) - 1
	e := q[n]
	q[n] = nil
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	// Sift the former last run down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
	return top
}

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now Time
	// queue holds the first event of each run. recent holds the runs an
	// event can join, the earliest started at nextRecent.
	queue      []*event
	recent     [recentRuns]remembered
	nextRecent uint
	seq        uint64
	stopped    bool
	limit      Time // the current run executes events with timestamps <= limit
	rng        *rand.Rand
	executed   uint64
	// to is where control is unwinding to (nil: the Run caller; see
	// loop); transfers counts every coroutine switch — each next, each
	// yield, each body return (read by tests).
	to        *Proc
	transfers uint64
	// pushes counts events queued and starts runs put on the heap (read
	// by tests).
	pushes, starts uint64
	// events holds every event struct ever allocated, indexed by slot, so
	// Cancel can find the struct an EventID names. free recycles them so
	// steady-state scheduling does not allocate (one event is reused as
	// soon as it has run).
	events []*event
	free   []*event
}

// New returns a Simulator whose clock starts at 0 and whose deterministic
// RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventID identifies a scheduled event so it can be cancelled. The zero
// value names no event.
type EventID uint64

// genBits is the width of the use counter in an EventID; the slot index
// takes the bits above it.
const genBits = 40

func (e *event) eventID() EventID { return EventID(uint64(e.slot)<<genBits | e.gen) }

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (run as soon as the current event completes).
func (s *Simulator) Schedule(delay time.Duration, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now.Add(delay), fn)
}

// At runs fn at the absolute virtual time t. Scheduling in the past is an
// error in simulation logic; it is clamped to "now" to keep the clock
// monotonic, since a discrete-event clock must never run backwards.
func (s *Simulator) At(t Time, fn func()) EventID {
	e := s.newEvent(t)
	e.fn = fn
	return e.eventID()
}

// ScheduleCall runs fn(arg) after delay of virtual time. Unlike
// Schedule it takes the callback and its argument separately, so
// callers on per-packet paths can pass a preallocated func(any) plus
// the packet itself and avoid a closure allocation per event.
func (s *Simulator) ScheduleCall(delay time.Duration, fn func(any), arg any) EventID {
	if delay < 0 {
		delay = 0
	}
	return s.AtCall(s.now.Add(delay), fn, arg)
}

// AtCall runs fn(arg) at the absolute virtual time t (clamped to now,
// like At).
func (s *Simulator) AtCall(t Time, fn func(any), arg any) EventID {
	e := s.newEvent(t)
	e.afn, e.arg = fn, arg
	return e.eventID()
}

// newEvent takes an event from the freelist (or allocates one), stamps
// the next sequence number, and queues it at t clamped to now: at the
// end of the remembered run for t, or as a new run, which replaces the
// earliest started run in the memory.
func (s *Simulator) newEvent(t Time) *event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{slot: uint32(len(s.events)), gen: 1}
		s.events = append(s.events, e)
	}
	e.at, e.seq, e.queued = t, s.seq, true
	s.pushes++
	for i := range s.recent {
		if r := &s.recent[i]; r.at == t && r.last != nil && r.last.gen == r.gen {
			r.last.next = e
			r.last, r.gen = e, e.gen
			return e
		}
	}
	s.recent[s.nextRecent] = remembered{at: t, gen: e.gen, last: e}
	s.nextRecent = (s.nextRecent + 1) % recentRuns
	s.starts++
	s.push(e)
	return e
}

// release clears an executed (or cancelled) event and returns it to the
// freelist for reuse by the next schedule call. Bumping gen retires the
// EventID of the use that just ended.
func (s *Simulator) release(e *event) {
	*e = event{slot: e.slot, gen: (e.gen + 1) & (1<<genBits - 1)}
	s.free = append(s.free, e)
}

// Cancel prevents a pending event from running. Cancelling an event that
// already ran (or is running: a callback cancelling itself) is a no-op
// that leaves nothing behind.
func (s *Simulator) Cancel(id EventID) {
	slot := uint64(id) >> genBits
	if slot >= uint64(len(s.events)) {
		return
	}
	if e := s.events[slot]; e.queued && e.eventID() == id {
		e.cancelled = true
	}
}

// Pending reports the number of events waiting to run (including
// cancelled ones not yet drained). It walks every run, so it is for
// set-up and tests, not for a hot path.
func (s *Simulator) Pending() int {
	n := 0
	for _, e := range s.queue {
		for ; e != nil; e = e.next {
			n++
		}
	}
	return n
}

// Executed reports how many events have run so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Stop makes Run return after the current event finishes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. A panic
// or runtime.Goexit in a process body or in a callback comes out of Run,
// RunUntil and RunFor on their caller's goroutine; the Simulator is not
// reusable after that.
func (s *Simulator) Run() { s.run(math.MaxInt64) }

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if no event lands on it).
func (s *Simulator) RunUntil(t Time) {
	s.run(t)
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

func (s *Simulator) run(limit Time) {
	s.stopped, s.limit = false, limit
	s.loop(nil)
}

// loop is the event loop. Whichever goroutine holds control runs it: the
// Run caller (self == nil), or a process blocked in Sleep or Park, which
// runs the clock itself instead of giving control up to wait. Callbacks
// execute inline on that goroutine's stack. A wake-up for self is a plain
// return. The chain is the Run caller plus the processes running or
// suspended inside a resume they made, the holder last. A wake-up for a
// process off the chain resumes it (one coroutine switch); a wake-up for
// one further up the chain, or the end of the run — queue empty, Stop, or
// the next event beyond the RunUntil bound — unwinds to it or to the Run
// caller, one yield per level. A process that yields stays where it is
// until a later pop of its wake-up, in this run or a later one, resumes
// it; a body that returns hands control back to its resumer, which goes
// on with the loop.
//
// iter.Pull's switches are the only synchronisation: a goroutine that has
// handed control over touches no simulator state until control comes
// back to it.
func (s *Simulator) loop(self *Proc) {
	for len(s.queue) > 0 && !s.stopped && s.queue[0].at <= s.limit {
		e := s.pop()
		if e.cancelled {
			s.release(e)
			continue
		}
		if e.at > s.now {
			s.now = e.at
		}
		s.executed++
		// Copy the event out and recycle it before acting on it, so events
		// the callback schedules can reuse the struct immediately.
		fn, afn, arg, p := e.fn, e.afn, e.arg, e.proc
		s.release(e)
		switch {
		case afn != nil:
			afn(arg)
		case p == nil:
			fn()
		case p == self:
			return
		case p.chained:
			s.unwind(self, p)
			return
		default:
			p.resume()
			if !p.done { // p yielded: control is unwinding to s.to
				s.unwind(self, s.to)
				return
			}
		}
	}
	s.unwind(self, nil)
}

// skipTo is the holder's wake-up at t when it would be the next event
// the loop pops: nothing queued at or before t (a cancelled event
// counts, since the loop would drain it first), t within the bound, and
// no Stop pending. It advances the clock and counts the wake-up as
// scheduled and executed, exactly as that pop would, without queuing an
// event, and reports whether it did.
func (s *Simulator) skipTo(t Time) bool {
	if s.stopped || t > s.limit || len(s.queue) > 0 && s.queue[0].at <= t {
		return false
	}
	s.seq++
	s.executed++
	s.now = t
	return true
}

// unwind passes control down the chain to the process to (nil: the Run
// caller). If self is not the target it yields, and returns once its own
// wake-up comes up and resumes it.
func (s *Simulator) unwind(self, to *Proc) {
	if self != to {
		s.to = to
		self.suspend()
	}
}

// Every schedules fn to run repeatedly with the given period, starting
// after one period. The returned Ticker can be stopped. A period of zero
// or less panics: it would wedge the simulator at a single instant.
func (s *Simulator) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tick = t.run
	t.arm()
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim    *Simulator
	period time.Duration
	fn     func()
	// tick is the run method value, bound once so that re-arming does not
	// allocate a closure per tick.
	tick    func()
	pending EventID
	stopped bool
}

func (t *Ticker) arm() { t.pending = t.sim.Schedule(t.period, t.tick) }

func (t *Ticker) run() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.sim.Cancel(t.pending)
}
