package ctlplane

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/rmt"
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
	// Class overrides the scheduling class; ClassAuto derives it from
	// the role (primary -> dialogue, observer/legacy -> bulk).
	Class Class
	// QueueLimit bounds this session's request queue; 0 uses the
	// service default.
	QueueLimit int
}

// SessionStats counts one session's request activity.
type SessionStats struct {
	// Submitted counts accepted submissions; Rejected counts
	// backpressure refusals (ErrQueueFull).
	Submitted uint64
	Rejected  uint64
	// Completed counts dispatched requests; Failed is the subset that
	// completed with an error.
	Completed uint64
	Failed    uint64
	// MaxQueueDepth is the deepest the queue ever got.
	MaxQueueDepth int
	// TotalWait accumulates enqueue-to-dispatch time; MaxWait is the
	// worst single wait. Mean wait = TotalWait / Completed.
	TotalWait time.Duration
	MaxWait   time.Duration
	// TotalService accumulates dispatch-to-completion channel time.
	TotalService time.Duration
}

// request is one queued control-plane operation: an op (the synchronous
// path's is the caller's own, valid while the caller is parked) or, from
// SubmitExec only, an opaque closure.
type request struct {
	sess       *Session
	seq        uint64
	class      Class
	write      bool
	enqueuedAt sim.Time

	op *driver.Op
	// exec runs an opaque operation against the channel (op is nil); the
	// closure could do anything, so it dispatches alone.
	exec func(p *sim.Proc, ch driver.Channel) error

	// superseded points at the newer same-entry write that replaced this
	// modify within one dispatch batch (write-behind newest-wins).
	superseded *request

	done   bool
	err    error
	waiter *sim.Proc
}

// lane is how the dispatcher executes a request, read off its op.
type lane int

const (
	// laneAlone requests are applied one at a time: audit reads, the
	// unbatched-read ablation (merging it would measure nothing) and
	// opaque closures (which could do anything).
	laneAlone lane = iota
	// laneRead requests are register reads; adjacent ones fold into one
	// driver transaction.
	laneRead
	// laneRing requests are writes; adjacent ones stage into the driver
	// submission ring and share one doorbell.
	laneRing
)

func (r *request) lane() lane {
	switch {
	case r.op == nil:
		return laneAlone
	case r.op.Kind.Mutating():
		return laneRing
	case r.op.Kind == driver.OpRegRead, r.op.Kind == driver.OpRead && r.op.Batched:
		return laneRead
	}
	return laneAlone
}

// sameEntry reports whether two modify requests target the same table
// entry with the same action (so the newer data can supersede).
func (r *request) sameEntry(o *request) bool {
	return r.op.Table == o.op.Table && r.op.Handle == o.op.Handle && r.op.Action == o.op.Action
}

// getReq hands out a request from the freelist (or a fresh one). Only
// the synchronous path (Do) recycles requests: it owns the full lifecycle
// (submit, wait, release), so a recycled request can never be observed
// through a stale Pending.
func (svc *Service) getReq() *request {
	if n := len(svc.free); n > 0 {
		r := svc.free[n-1]
		svc.free = svc.free[:n-1]
		return r
	}
	return new(request)
}

func (svc *Service) putReq(r *request) {
	*r = request{}
	svc.free = append(svc.free, r)
}

// Pending is a handle to an in-flight request (the asynchronous
// submission API). Synchronous callers never see one: Do submits and
// waits internally.
type Pending struct{ req *request }

// Done reports whether the request completed.
func (pn *Pending) Done() bool { return pn.req.done }

// Wait parks p until the request completes and returns its error.
func (pn *Pending) Wait(p *sim.Proc) error {
	for !pn.req.done {
		pn.req.waiter = p
		p.Park()
		pn.req.waiter = nil
	}
	return pn.req.err
}

// Values returns a completed read request's register values, aligned
// with the submitted ranges. Nil until done or on error.
func (pn *Pending) Values() [][]uint64 {
	if pn.req.op == nil {
		return nil
	}
	return pn.req.op.Rows
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
	queueLimit int

	queue   []*request
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
	if opts.Class == ClassAuto {
		if opts.Role == RolePrimary {
			opts.Class = ClassDialogue
		} else {
			opts.Class = ClassBulk
		}
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = svc.opts.DefaultQueueLimit
	}
	s := &Session{
		svc:        svc,
		id:         svc.nextID,
		name:       opts.Name,
		role:       opts.Role,
		class:      opts.Class,
		electionID: opts.ElectionID,
		queueLimit: opts.QueueLimit,
	}
	s.Adapter = driver.NewAdapter(s.Do, svc.ch)
	if opts.Role == RolePrimary {
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

// QueueDepth returns the number of requests waiting (not yet
// dispatched).
func (s *Session) QueueDepth() int { return len(s.queue) }

// SessionStats returns a copy of the session counters. (Stats() is the
// driver.Channel pass-through to the underlying driver counters.)
func (s *Session) SessionStats() SessionStats { return s.stats }

// Close closes the session. Requests still queued complete immediately
// with ErrClosed (waking their waiters); a closed primary relinquishes
// primacy so a successor of any election id can take over.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, r := range s.queue {
		r.err = fmt.Errorf("ctlplane: session %q: %w", s.name, ErrClosed)
		r.done = true
		s.stats.Completed++
		s.stats.Failed++
		if r.waiter != nil {
			r.waiter.Unpark()
		}
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

// enqueue queues r or rejects it. Rejection is always explicit: the
// typed error tells the caller whether to back off (ErrQueueFull wraps
// driver.ErrTransient) or stop (ErrReadOnly, ErrNotPrimary, ErrClosed).
func (s *Session) enqueue(r *request) error {
	if s.closed {
		return fmt.Errorf("ctlplane: session %q: %w", s.name, ErrClosed)
	}
	if r.op != nil {
		r.write = r.op.Kind.Mutating()
	}
	if r.write {
		if err := s.writable(); err != nil {
			return err
		}
	}
	if len(s.queue) >= s.queueLimit {
		s.stats.Rejected++
		s.svc.stats.Rejections++
		return fmt.Errorf("ctlplane: session %q: %d/%d requests pending: %w",
			s.name, len(s.queue), s.queueLimit, ErrQueueFull)
	}
	s.svc.seq++
	r.sess = s
	r.seq = s.svc.seq
	r.class = s.class
	r.enqueuedAt = s.svc.sim.Now()
	s.queue = append(s.queue, r)
	s.stats.Submitted++
	if d := len(s.queue); d > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = d
	}
	s.svc.kick()
	return nil
}

// submit enqueues r and wraps it in a Pending for asynchronous waiters.
func (s *Session) submit(r *request) (*Pending, error) {
	if err := s.enqueue(r); err != nil {
		return nil, err
	}
	return &Pending{req: r}, nil
}

// ---- Asynchronous submission API ----
//
// Pipelined clients submit several requests and Wait on the Pendings
// later; the bounded queue then does real work (a synchronous client
// never holds more than one slot).

// SubmitExec enqueues an opaque channel operation. write marks
// operations that mutate switch state, enforcing the session role.
func (s *Session) SubmitExec(write bool, fn func(p *sim.Proc, ch driver.Channel) error) (*Pending, error) {
	return s.submit(&request{write: write, exec: fn})
}

// SubmitRead enqueues a batched register read; the scheduler may merge
// it with adjacent queued reads into one driver transaction. The result
// rows are allocated at dispatch (Pending.Values).
func (s *Session) SubmitRead(reqs []driver.ReadReq) (*Pending, error) {
	return s.submit(&request{op: &driver.Op{Kind: driver.OpRead, Batched: true, Reqs: reqs}})
}

// SubmitModify enqueues a table-entry write; while it queues, a newer
// write to the same entry supersedes its data (write-behind).
func (s *Session) SubmitModify(table string, h rmt.EntryHandle, action string, data []uint64) (*Pending, error) {
	return s.submit(&request{op: &driver.Op{
		Kind: driver.OpModifyEntry, Table: table, Handle: h, Action: action,
		Data: append([]uint64(nil), data...),
	}})
}

// Do runs one operation through the session queue and blocks until it
// completes: the whole synchronous driver.Channel surface. The op rides
// a pooled request and is never copied here — the dispatcher copies a
// write into its ring slot and reads land in the op's own rows — so a
// steady-state call allocates nothing.
func (s *Session) Do(p *sim.Proc, op *driver.Op) error {
	r := s.svc.getReq()
	r.op = op
	err := s.enqueue(r)
	if err == nil {
		for !r.done {
			r.waiter = p
			p.Park()
			r.waiter = nil
		}
		err = r.err
	}
	s.svc.putReq(r)
	return err
}
