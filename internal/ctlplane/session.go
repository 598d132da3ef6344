package ctlplane

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/p4"
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

// requestKind tells the scheduler what it may coalesce.
type requestKind int

const (
	kindExec       requestKind = iota // opaque operation, never coalesced
	kindRead                          // batched register read, merges with adjacent reads
	kindModify                        // table-entry write, superseded by adjacent same-entry writes
	kindAdd                           // table-entry install (completion carries the new handle)
	kindDelete                        // table-entry removal
	kindSetDefault                    // table miss-action replacement
	kindHashSeed                      // hash-calculation reseed
	kindRegWrite                      // single register-cell write
)

// ringable reports whether the kind is a field-encoded write verb the
// dispatcher stages into the driver submission ring. kindExec writes
// stay opaque (the closure could do anything) and dispatch one at a
// time as before.
func (k requestKind) ringable() bool { return k >= kindModify }

// request is one queued control-plane operation.
type request struct {
	sess       *Session
	seq        uint64
	kind       requestKind
	class      Class
	write      bool
	pooled     bool // recyclable via Service.putReq (sync-path requests only)
	enqueuedAt sim.Time

	// exec runs an opaque kindExec operation against the channel.
	exec func(p *sim.Proc, ch driver.Channel) error
	// reads/out carry a kindRead request's ranges and results. On the
	// synchronous path out is the caller's row matrix, refilled in place;
	// an asynchronous read leaves it nil and the dispatcher allocates it.
	reads []driver.ReadReq
	out   [][]uint64

	// Field-encoded write verbs: ring descriptors in waiting. The
	// dispatcher copies these into ring slots, so a write costs no
	// closure and (on the pooled sync path) no allocation at all.
	// table doubles as the register or hash-calculation name;
	// table/handle/action also key same-entry write coalescing.
	table    string
	handle   rmt.EntryHandle
	action   string
	data     []uint64 // reused capacity when pooled
	keys     []rmt.KeySpec
	priority int
	idx, val uint64

	// newHandle carries a kindAdd's installed entry handle back.
	newHandle rmt.EntryHandle
	// superseded points at the newer same-entry write that replaced this
	// modify within one dispatch batch (write-behind newest-wins).
	superseded *request

	done   bool
	err    error
	waiter *sim.Proc
}

// sameEntry reports whether two modify requests target the same table
// entry with the same action (so the newer data can supersede).
func (r *request) sameEntry(o *request) bool {
	return r.table == o.table && r.handle == o.handle && r.action == o.action
}

// getReq hands out a request from the freelist (or a fresh poolable
// one). Only the synchronous Channel methods use pooled requests: they
// own the full lifecycle (submit, wait, extract, release), so a recycled
// request can never be observed through a stale Pending.
func (svc *Service) getReq() *request {
	if n := len(svc.free); n > 0 {
		r := svc.free[n-1]
		svc.free = svc.free[:n-1]
		return r
	}
	return &request{pooled: true}
}

// putReq recycles a pooled request, keeping its data/keys capacity so
// the steady-state write path stops allocating once warmed up.
func (svc *Service) putReq(r *request) {
	if !r.pooled {
		return
	}
	data, keys := r.data[:0], r.keys[:0]
	*r = request{pooled: true, data: data, keys: keys}
	svc.free = append(svc.free, r)
}

// Pending is a handle to an in-flight request (the asynchronous
// submission API). Synchronous callers never see one: the Channel
// methods submit and wait internally.
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
func (pn *Pending) Values() [][]uint64 { return pn.req.out }

// Session is one client's connection to the control-plane service. It
// implements driver.Channel, so anything written against a raw driver
// (the Mantis agent, experiment harnesses) runs through a session
// unchanged.
type Session struct {
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

// SessionStats returns a copy of the session counters. (Named to keep
// Stats() free for the driver.Channel pass-through.)
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

// syncRun enqueues r and parks until it completes. The caller still
// owns r afterwards (to extract results) and must release pooled
// requests via putReq.
func (s *Session) syncRun(p *sim.Proc, r *request) error {
	if err := s.enqueue(r); err != nil {
		return err
	}
	for !r.done {
		r.waiter = p
		p.Park()
		r.waiter = nil
	}
	return r.err
}

// ---- Asynchronous submission API ----
//
// Pipelined clients submit several requests and Wait on the Pendings
// later; the bounded queue then does real work (a synchronous client
// never holds more than one slot).

// SubmitExec enqueues an opaque channel operation. write marks
// operations that mutate switch state, enforcing the session role.
func (s *Session) SubmitExec(write bool, fn func(p *sim.Proc, ch driver.Channel) error) (*Pending, error) {
	return s.submit(&request{kind: kindExec, write: write, exec: fn})
}

// SubmitRead enqueues a batched register read; the scheduler may merge
// it with adjacent queued reads into one driver transaction.
func (s *Session) SubmitRead(reqs []driver.ReadReq) (*Pending, error) {
	return s.submit(&request{kind: kindRead, reads: reqs})
}

// SubmitModify enqueues a table-entry write; while it queues, a newer
// write to the same entry supersedes its data (write-behind).
func (s *Session) SubmitModify(table string, h rmt.EntryHandle, action string, data []uint64) (*Pending, error) {
	return s.submit(&request{
		kind: kindModify, write: true, table: table, handle: h, action: action,
		data: append([]uint64(nil), data...),
	})
}

// doSync submits one opaque operation and blocks until it completes.
func (s *Session) doSync(p *sim.Proc, write bool, fn func(dp *sim.Proc, ch driver.Channel) error) error {
	pn, err := s.SubmitExec(write, fn)
	if err != nil {
		return err
	}
	return pn.Wait(p)
}

// ---- driver.Channel implementation ----
//
// The write verbs are field-encoded onto pooled requests: the dispatcher
// copies the fields straight into driver submission-ring descriptors, so
// a steady-state synchronous write allocates nothing.

// AddEntry installs a table entry through the session queue.
func (s *Session) AddEntry(p *sim.Proc, table string, e rmt.Entry) (rmt.EntryHandle, error) {
	r := s.svc.getReq()
	r.kind, r.write = kindAdd, true
	r.table, r.action = table, e.Action
	r.keys = append(r.keys[:0], e.Keys...)
	r.priority = e.Priority
	r.data = append(r.data[:0], e.Data...)
	err := s.syncRun(p, r)
	h := r.newHandle
	s.svc.putReq(r)
	return h, err
}

// ModifyEntry rebinds an entry's action and data through the session
// queue (coalescible when pipelined).
func (s *Session) ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error {
	r := s.svc.getReq()
	r.kind, r.write = kindModify, true
	r.table, r.handle, r.action = table, h, action
	r.data = append(r.data[:0], data...)
	err := s.syncRun(p, r)
	s.svc.putReq(r)
	return err
}

// DeleteEntry removes an entry through the session queue.
func (s *Session) DeleteEntry(p *sim.Proc, table string, h rmt.EntryHandle) error {
	r := s.svc.getReq()
	r.kind, r.write = kindDelete, true
	r.table, r.handle = table, h
	err := s.syncRun(p, r)
	s.svc.putReq(r)
	return err
}

// SetDefaultAction replaces a table's miss action through the session
// queue.
func (s *Session) SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error {
	r := s.svc.getReq()
	r.kind, r.write = kindSetDefault, true
	r.table, r.action = table, call.Action
	r.data = append(r.data[:0], call.Data...)
	err := s.syncRun(p, r)
	s.svc.putReq(r)
	return err
}

// SetHashSeed reprograms a hash calculation through the session queue.
func (s *Session) SetHashSeed(p *sim.Proc, name string, seed uint64) error {
	r := s.svc.getReq()
	r.kind, r.write = kindHashSeed, true
	r.table, r.val = name, seed
	err := s.syncRun(p, r)
	s.svc.putReq(r)
	return err
}

// RegWrite writes one register cell through the session queue.
func (s *Session) RegWrite(p *sim.Proc, reg string, idx uint64, v uint64) error {
	r := s.svc.getReq()
	r.kind, r.write = kindRegWrite, true
	r.table, r.idx, r.val = reg, idx, v
	err := s.syncRun(p, r)
	s.svc.putReq(r)
	return err
}

// RegRead reads one register cell; as a single-range read it rides the
// coalescer like any other read.
func (s *Session) RegRead(p *sim.Proc, reg string, idx uint64) (uint64, error) {
	vals, err := s.BatchRead(p, []driver.ReadReq{{Reg: reg, Lo: idx, Hi: idx + 1}})
	if err != nil {
		return 0, err
	}
	return vals[0][0], nil
}

// BatchReadInto reads register ranges through the session queue into
// dst (one row per range, refilled in place); adjacent queued reads
// share one driver transaction. Like the write verbs it rides a pooled
// request, so a steady-state poll allocates nothing here.
func (s *Session) BatchReadInto(p *sim.Proc, reqs []driver.ReadReq, dst [][]uint64) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(dst) != len(reqs) {
		return fmt.Errorf("ctlplane: %d result rows for %d requests: %w", len(dst), len(reqs), driver.ErrBadBatch)
	}
	r := s.svc.getReq()
	r.kind, r.reads, r.out = kindRead, reqs, dst
	err := s.syncRun(p, r)
	s.svc.putReq(r)
	return err
}

// BatchRead is BatchReadInto with a fresh result matrix.
func (s *Session) BatchRead(p *sim.Proc, reqs []driver.ReadReq) ([][]uint64, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	return driver.ReadFresh(s, p, reqs)
}

// UnbatchedRead issues one transaction per range (the batching
// ablation); by design it bypasses the read coalescer, or the ablation
// would measure nothing.
func (s *Session) UnbatchedRead(p *sim.Proc, reqs []driver.ReadReq) ([][]uint64, error) {
	var vals [][]uint64
	err := s.doSync(p, false, func(dp *sim.Proc, ch driver.Channel) error {
		var err error
		vals, err = ch.UnbatchedRead(dp, reqs)
		return err
	})
	return vals, err
}

// ReadEntries dumps a table's installed entries through the session
// queue (the recovery audit path; reads are open to any role).
func (s *Session) ReadEntries(p *sim.Proc, table string) ([]rmt.Entry, error) {
	var out []rmt.Entry
	err := s.doSync(p, false, func(dp *sim.Proc, ch driver.Channel) error {
		var err error
		out, err = ch.ReadEntries(dp, table)
		return err
	})
	return out, err
}

// ReadDefaultAction reads back a table's miss action through the
// session queue.
func (s *Session) ReadDefaultAction(p *sim.Proc, table string) (*p4.ActionCall, error) {
	var out *p4.ActionCall
	err := s.doSync(p, false, func(dp *sim.Proc, ch driver.Channel) error {
		var err error
		out, err = ch.ReadDefaultAction(dp, table)
		return err
	})
	return out, err
}

// Memoize passes through: descriptor precomputation is control-plane
// local, consumes no channel time, and needs no scheduling.
func (s *Session) Memoize(table string, handle rmt.EntryHandle) { s.svc.ch.Memoize(table, handle) }

// Switch exposes the underlying switch (instantaneous, for wiring and
// tests).
func (s *Session) Switch() *rmt.Switch { return s.svc.ch.Switch() }

// Stats returns the underlying driver counters (the driver.Channel
// contract; session-level counters live in SessionStats).
func (s *Session) Stats() driver.Stats { return s.svc.ch.Stats() }
