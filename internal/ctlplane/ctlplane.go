// Package ctlplane is the runtime control-plane service between
// control-plane clients and the switch driver.
//
// The paper's agent shares the switch CPU with legacy control planes
// (§6, Fig. 12), but raw driver access gives every caller the same
// standing: operations serialize in arrival order, one aggressive bulk
// writer can starve the reaction loop, and nothing bounds how much work
// a client may have in flight. Real runtime-control stacks (P4Runtime,
// RBFRT) solve this with a mediating service, and this package is that
// layer for the simulated stack:
//
//   - Sessions with role arbitration: exactly one primary writer
//     (election ids break ties, higher wins and demotes the incumbent),
//     any number of read-only observers, and legacy bulk-writer
//     sessions for coexisting control planes.
//
//   - A request scheduler with bounded per-session queues, strict
//     priority of the dialogue class over the bulk class, round-robin
//     fairness within a class, and an optional global-FIFO policy that
//     serves as the no-scheduler baseline in the fig12x experiment.
//
//   - Explicit backpressure: a call on a session whose queue is full is
//     rejected with a typed error (ErrQueueFull), never dropped or
//     silently delayed.
//
// A Session implements driver.Channel, so existing clients — the
// Mantis agent, the fault-injection chaos suite, the experiment
// drivers — drop onto the service without code changes; the fault
// injector sits *below* the service (driver -> faults.Injector ->
// Service), so chaos profiles exercise the whole stack.
//
// The service is an arbiter, not a process: every client is a
// synchronous caller, so a call queues, parks until the scheduler hands
// it the service, runs its operation on the caller's own process, and
// hands the service to the next caller the policy picks. Service is
// non-preemptive at operation granularity, like the PCIe channel it
// fronts: a dialogue request never interrupts a bulk operation already
// in flight, it only jumps the queue ahead of bulk operations not yet
// started.
package ctlplane

import (
	"repro/internal/driver"
	"repro/internal/sim"
)

// Class is a scheduling class, derived from the session role: primaries
// are ClassDialogue, observers and legacy writers ClassBulk. The
// dialogue class is always served before the bulk class under the
// priority policy.
type Class int

const (
	// ClassDialogue is the high-priority class of the Mantis reaction
	// loop: short, latency-critical operation streams.
	ClassDialogue Class = iota
	// ClassBulk is the low-priority class of legacy control planes and
	// observers: throughput-oriented, tolerant of queueing.
	ClassBulk
)

// String names the class for stats output.
func (c Class) String() string {
	if c == ClassDialogue {
		return "dialogue"
	}
	return "bulk"
}

// classOrder is the strict priority order of the scheduler.
var classOrder = [...]Class{ClassDialogue, ClassBulk}

// Policy selects how the service picks the next caller.
type Policy int

const (
	// PolicyPriority serves classes in strict priority order and
	// sessions within a class round-robin. The default.
	PolicyPriority Policy = iota
	// PolicyFIFO serves requests in global arrival order regardless of
	// class — the naive single-queue behavior of the raw driver channel,
	// kept as the measurable baseline for the fig12x experiment.
	PolicyFIFO
)

// String names the policy for experiment tables.
func (p Policy) String() string {
	if p == PolicyFIFO {
		return "fifo"
	}
	return "priority"
}

// Options configures a Service.
type Options struct {
	// Policy is the scheduling policy (default PolicyPriority).
	Policy Policy
}

// MaxQueued bounds how many callers may wait on one session at once.
const MaxQueued = 64

// Stats counts service-wide scheduler activity. Per-session counters
// live in SessionStats.
type Stats struct {
	// DialogueOps and BulkOps count served requests per class.
	DialogueOps uint64
	BulkOps     uint64
	// ReadTransactions counts driver read transactions issued.
	ReadTransactions uint64
	// ReadsCoalesced is always 0: requests are no longer merged across
	// calls. The field stays because bench/ reads it, until a [benchmark]
	// PR drops ctlplane.reads_coalesced_per_kop.
	ReadsCoalesced uint64
	// WriteTransactions counts writes issued to the driver channel.
	WriteTransactions uint64
	// Rejections counts calls refused with ErrQueueFull.
	Rejections uint64
	// Demotions counts primaries displaced by a higher election id.
	Demotions uint64
}

// Service mediates control-plane access to one driver channel.
type Service struct {
	ch   driver.Channel
	opts Options

	sessions []*Session
	nextID   int
	seq      uint64 // global arrival sequence, for PolicyFIFO

	primary *Session // current primary writer, nil if none

	// held is set while some caller has the service: it is running its
	// operation, has been granted the service and not yet resumed, or is
	// the first arrival deciding whom to grant it to.
	held bool

	// rrNext[class] is the session index to start the round-robin scan
	// at for that class.
	rrNext map[Class]int

	// free keeps the steady-state path allocation-free.
	free []*waiter

	stats Stats
}

// New returns a control-plane service over ch. The service is not a
// process and keeps no clock of its own, so the simulator is unused; the
// parameter stays because bench/, which this package may not change,
// passes it.
func New(_ *sim.Simulator, ch driver.Channel, opts Options) *Service {
	return &Service{ch: ch, opts: opts, rrNext: make(map[Class]int)}
}

// Stats returns a copy of the service counters.
func (svc *Service) Stats() Stats { return svc.stats }

// RingStats is what is left of the driver submission ring's counters:
// a write is one op applied to the channel, so both equal
// Stats.WriteTransactions. The type and accessor stay because bench/
// reads them, until a [benchmark] PR drops ctlplane.writes_per_flush.
type RingStats struct {
	Flushes    uint64
	OpsFlushed uint64
}

// RingStats returns the write count under both of its legacy names.
func (svc *Service) RingStats() RingStats {
	n := svc.stats.WriteTransactions
	return RingStats{Flushes: n, OpsFlushed: n}
}

// Sessions returns the open sessions (closed ones are pruned).
func (svc *Service) Sessions() []*Session {
	var out []*Session
	for _, s := range svc.sessions {
		if !s.closed {
			out = append(out, s)
		}
	}
	return out
}

// Primary returns the current primary writer session, or nil.
func (svc *Service) Primary() *Session {
	if svc.primary != nil && svc.primary.closed {
		return nil
	}
	return svc.primary
}

// next picks the caller to serve — always the head of some session's
// queue, so per-session ordering is preserved under every policy.
func (svc *Service) next() *waiter {
	if svc.opts.Policy == PolicyFIFO {
		var best *waiter
		for _, s := range svc.sessions {
			if len(s.queue) > 0 && (best == nil || s.queue[0].seq < best.seq) {
				best = s.queue[0]
			}
		}
		return best
	}
	for _, class := range classOrder {
		if w := svc.nextInClass(class); w != nil {
			return w
		}
	}
	return nil
}

// nextInClass round-robins across the class's sessions with pending
// work, resuming after the last session served.
func (svc *Service) nextInClass(class Class) *waiter {
	n := len(svc.sessions)
	if n == 0 {
		return nil
	}
	start := svc.rrNext[class] % n
	for i := 0; i < n; i++ {
		s := svc.sessions[(start+i)%n]
		if s.class == class && len(s.queue) > 0 {
			svc.rrNext[class] = (start + i + 1) % n
			return s.queue[0]
		}
	}
	return nil
}

// grant hands the service to the caller the policy picks, or marks it
// free when nobody waits. The pick leaves its session's queue here, so
// closing the session no longer fails it: like a request in flight, it
// runs (a write re-checks its permission first).
func (svc *Service) grant() {
	w := svc.next()
	if w == nil {
		svc.held = false
		return
	}
	// Shift the remainder down rather than re-slicing from the front: the
	// queue keeps its capacity, so queueing does not reallocate it.
	q := w.sess.queue
	n := copy(q, q[1:])
	q[n] = nil
	w.sess.queue = q[:n]
	w.granted = true
	w.wake()
}

// serve runs the granted caller's operation on its own process, records
// it on the session and passes the service on — at the completion
// instant, before the caller returns, so a request it submits next queues
// behind the pick.
func (svc *Service) serve(p *sim.Proc, w *waiter, op *driver.Op) error {
	s := w.sess
	if s.class == ClassDialogue {
		svc.stats.DialogueOps++
	} else {
		svc.stats.BulkOps++
	}
	start := p.Now()
	var err error
	if op.Kind.Mutating() {
		err = svc.write(p, s, op)
	} else {
		svc.stats.ReadTransactions++
		err = driver.Apply(svc.ch, p, op)
	}

	st := &s.stats
	st.Completed++
	if err != nil {
		st.Failed++
	}
	wait := start.Sub(w.enqueuedAt)
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	st.TotalService += p.Now().Sub(start)
	svc.grant()
	if svc.held {
		// The next operation starts one event from now, on its own caller's
		// process. Resume behind it, so that whatever this caller schedules
		// next — a wake-up that may tie with that operation's completion —
		// is ordered after the completion. That order decides whether a
		// caller whose think time equals the next service time is in time
		// for the next pick; TestScheduleMatchesParent pins it.
		p.Yield()
	}
	return err
}

// write applies the caller's op to the channel. Permission is re-checked
// here, not only on admission: the session may have been demoted or
// closed while the caller waited.
func (svc *Service) write(p *sim.Proc, s *Session, op *driver.Op) error {
	if err := s.writable(); err != nil {
		return err
	}
	svc.stats.WriteTransactions++
	return driver.Apply(svc.ch, p, op)
}
