package ctlplane

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/sim"
)

// Role is a session's arbitration role.
type Role int

const (
	// RoleObserver sessions may only read (register reads and the
	// instantaneous Switch/Stats accessors); every write is rejected
	// with ErrReadOnly.
	RoleObserver Role = iota
	// RolePrimary sessions are exclusive writers elected by id: opening
	// a primary with a higher election id demotes the incumbent, whose
	// subsequent writes fail with ErrNotPrimary. The Mantis agent runs
	// as primary.
	RolePrimary
	// RoleLegacy sessions are bulk writers — coexisting legacy control
	// planes. Any number may be open; they share the bulk class.
	RoleLegacy
)

// String names the role for stats output.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleLegacy:
		return "legacy"
	default:
		return "observer"
	}
}

// SessionOptions configures one client session.
type SessionOptions struct {
	// Name labels the session in stats output.
	Name string
	// Role is the arbitration role (default RoleObserver — read-only is
	// the safe default).
	Role Role
	// ElectionID arbitrates primacy; only meaningful for RolePrimary.
	ElectionID uint64
}

// SessionStats counts one session's request activity.
type SessionStats struct {
	// Submitted counts calls accepted into the queue; Rejected counts
	// backpressure refusals (ErrQueueFull).
	Submitted uint64
	Rejected  uint64
	// Completed counts requests served or failed by Close; Failed is the
	// subset that completed with an error.
	Completed uint64
	Failed    uint64
	// MaxQueueDepth is the deepest the queue ever got.
	MaxQueueDepth int
	// TotalWait accumulates the time callers spent queued before their
	// operation started; MaxWait is the worst single wait. Mean wait =
	// TotalWait / Completed.
	TotalWait time.Duration
	MaxWait   time.Duration
	// TotalService accumulates start-to-completion channel time.
	TotalService time.Duration
}

// waiter is one caller queued for the service. Records are pooled on
// the service and live for exactly one Do, so a steady-state call
// allocates nothing.
type waiter struct {
	sess       *Session
	seq        uint64
	enqueuedAt sim.Time

	// granted: the scheduler picked this caller and it now holds the
	// service. failed: Close got to it first, while it was still queued.
	granted bool
	failed  error
	// parked is the caller's process while it is parked on this record;
	// whoever settles the record wakes it exactly once.
	parked *sim.Proc
}

func (w *waiter) wake() {
	if w.parked != nil {
		w.parked.Unpark()
		w.parked = nil
	}
}

func (svc *Service) getWaiter() *waiter {
	if n := len(svc.free); n > 0 {
		w := svc.free[n-1]
		svc.free = svc.free[:n-1]
		return w
	}
	return new(waiter)
}

func (svc *Service) putWaiter(w *waiter) {
	*w = waiter{}
	svc.free = append(svc.free, w)
}

// Session is one client's connection to the control-plane service. It
// implements driver.Channel (the embedded Adapter, over Do), so anything
// written against a raw driver (the Mantis agent, experiment harnesses)
// runs through a session unchanged. Memoize, Switch and Stats pass
// straight to the service's channel: they consume no channel time and
// need no scheduling.
type Session struct {
	driver.Adapter
	svc        *Service
	id         int
	name       string
	role       Role
	class      Class
	electionID uint64
	maxQueued  int // MaxQueued; a field so a test can fill a shallow queue

	queue   []*waiter
	demoted bool
	closed  bool

	stats SessionStats
}

var (
	_ driver.Channel     = (*Session)(nil)
	_ driver.RangeReader = (*Session)(nil)
)

// Open creates a session. Primary opens are arbitrated by election id:
// a higher id than the incumbent wins and demotes it; an equal or lower
// id is refused with ErrPrimacyHeld.
func (svc *Service) Open(opts SessionOptions) (*Session, error) {
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("session-%d", svc.nextID)
	}
	s := &Session{
		svc:        svc,
		id:         svc.nextID,
		name:       opts.Name,
		role:       opts.Role,
		class:      ClassBulk,
		electionID: opts.ElectionID,
		maxQueued:  MaxQueued,
	}
	s.Adapter = driver.NewAdapter(s.Do, svc.ch)
	if opts.Role == RolePrimary {
		s.class = ClassDialogue
		if cur := svc.Primary(); cur != nil {
			if opts.ElectionID <= cur.electionID {
				return nil, fmt.Errorf("ctlplane: open %q: %q holds election id %d >= %d: %w",
					opts.Name, cur.name, cur.electionID, opts.ElectionID, ErrPrimacyHeld)
			}
			cur.demoted = true
			svc.stats.Demotions++
		}
		svc.primary = s
	}
	svc.nextID++
	svc.sessions = append(svc.sessions, s)
	return s, nil
}

// Name returns the session label.
func (s *Session) Name() string { return s.name }

// Role returns the session's arbitration role.
func (s *Session) Role() Role { return s.role }

// Class returns the session's scheduling class.
func (s *Session) Class() Class { return s.class }

// ElectionID returns the id the session opened with.
func (s *Session) ElectionID() uint64 { return s.electionID }

// Demoted reports whether a newer primary displaced this session.
func (s *Session) Demoted() bool { return s.demoted }

// QueueDepth returns the number of callers waiting (not yet granted the
// service).
func (s *Session) QueueDepth() int { return len(s.queue) }

// SessionStats returns a copy of the session counters. (Stats() is the
// driver.Channel pass-through to the underlying driver counters.)
func (s *Session) SessionStats() SessionStats { return s.stats }

// Close closes the session. Callers still queued return immediately
// with ErrClosed; a closed primary relinquishes primacy so a successor
// of any election id can take over.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.queue {
		w.failed = fmt.Errorf("ctlplane: session %q: %w", s.name, ErrClosed)
		s.stats.Completed++
		s.stats.Failed++
		w.wake()
	}
	s.queue = nil
	if s.svc.primary == s {
		s.svc.primary = nil
	}
}

// writable classifies whether this session may write right now.
func (s *Session) writable() error {
	switch {
	case s.closed:
		return fmt.Errorf("ctlplane: session %q: %w", s.name, ErrClosed)
	case s.role == RoleObserver:
		return fmt.Errorf("ctlplane: session %q: %w", s.name, ErrReadOnly)
	case s.role == RolePrimary && s.demoted:
		return fmt.Errorf("ctlplane: session %q (election id %d): %w", s.name, s.electionID, ErrNotPrimary)
	}
	return nil
}

// admit decides whether op may queue. Rejection is always explicit: the
// typed error tells the caller whether to back off (ErrQueueFull wraps
// driver.ErrTransient) or stop (ErrReadOnly, ErrNotPrimary, ErrClosed).
func (s *Session) admit(op *driver.Op) error {
	if s.closed {
		return fmt.Errorf("ctlplane: session %q: %w", s.name, ErrClosed)
	}
	if op.Kind.Mutating() {
		if err := s.writable(); err != nil {
			return err
		}
	}
	if len(s.queue) >= s.maxQueued {
		s.stats.Rejected++
		s.svc.stats.Rejections++
		return fmt.Errorf("ctlplane: session %q: %d/%d requests pending: %w",
			s.name, len(s.queue), s.maxQueued, ErrQueueFull)
	}
	return nil
}

// Do runs one operation through the service and blocks until it
// completes: the whole driver.Channel surface. The caller queues, parks
// until the scheduler grants it the service, and runs op on its own
// process. The op is never copied — a write is applied as it is and reads
// land in the op's own rows — and the queue record is pooled, so a
// steady-state call allocates nothing.
func (s *Session) Do(p *sim.Proc, op *driver.Op) error {
	if err := s.admit(op); err != nil {
		return err
	}
	svc := s.svc
	w := svc.getWaiter()
	svc.seq++
	w.sess, w.seq, w.enqueuedAt = s, svc.seq, p.Now()
	s.queue = append(s.queue, w)
	s.stats.Submitted++
	if d := len(s.queue); d > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = d
	}

	if !svc.held {
		// The service is free, so this caller arbitrates — after yielding
		// once: every request arriving at this instant is queued before the
		// first pick, and the policy orders them, not the event queue. The
		// pick may be another caller, and is made even if Close failed this
		// one meanwhile.
		svc.held = true
		p.Yield()
		svc.grant()
	}
	for !w.granted && w.failed == nil {
		w.parked = p
		p.Park()
	}
	err := w.failed
	if w.granted {
		err = svc.serve(p, w, op)
	}
	svc.putWaiter(w)
	return err
}
