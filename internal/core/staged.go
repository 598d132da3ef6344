package core

import (
	"repro/internal/journal"
	"repro/internal/sim"
)

// stagedOp is one slot of the agent's staged-op log: one user-level
// table operation a reaction staged this iteration. The log is the only
// record of what the iteration staged — in global staging order, across
// tables — and each phase is a walk over it: the prepares follow a body
// that only appended (prepareStaged), rollback undoes the slots
// backwards, the mirror phase re-applies them forwards, and the
// CommitStaged intent lists them (journalCommitStaged).
//
// Slots are reused from iteration to iteration: oldData and newData are
// the slot's own buffers, refilled in place, so staging allocates
// nothing. A slot dies with its iteration: a mirror or undo that fails
// leaves nothing queued behind it, only the resync (leaveToResync).
type stagedOp struct {
	kind journal.TableOpKind
	tm   *tableManager
	h    UserHandle
	ue   *userEntry
	// shadow is the version the prepare wrote (vv^1 at staging time);
	// the mirror writes shadow^1.
	shadow uint64
	// The spec before (modify, taken by its prepare) and after (add,
	// modify) the op.
	oldAction, newAction string
	oldData, newData     []uint64
}

// next extends s by one element, reusing capacity — and with it whatever
// the slot last held, whose buffers the caller refills in place.
func next[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// stage takes the log's next slot for an op on ue. The pointer is good
// until the next stage call.
func (a *Agent) stage(kind journal.TableOpKind, tm *tableManager, h UserHandle, ue *userEntry) *stagedOp {
	a.staged = next(a.staged)
	s := &a.staged[len(a.staged)-1]
	s.kind, s.tm, s.h, s.ue, s.shadow = kind, tm, h, ue, a.vv^1
	return s
}

func (s *stagedOp) setNew(action string, data []uint64) {
	s.newAction, s.newData = action, append(s.newData[:0], data...)
}

// tableOp is the slot's journal form. Spec aliases the slot and the
// entry: good for one synchronous WriteIntent.
func (s *stagedOp) tableOp() journal.TableOp {
	op := journal.TableOp{Table: s.tm.info.Table, Kind: s.kind, Handle: uint64(s.h)}
	if s.kind != journal.OpDelete {
		op.Spec = journal.EntrySpec{Keys: s.ue.spec.Keys, Priority: s.ue.spec.Priority, Action: s.newAction, Data: s.newData}
	}
	return op
}

// prepareStaged issues the prepares of the slots a reaction staged, from
// log position from on, in staging order, and delivers each held event
// once the slots staged before it are prepared: the timeline of a body
// that prepared inline. A failed prepare stays in the log for the
// rollback to undo, since it may have landed partway; the slots and
// events behind it are dropped, so every slot in the log was issued.
func (a *Agent) prepareStaged(p *sim.Proc, from int) error {
	for i, ev := from, 0; ; i++ {
		for ; ev < len(a.held) && a.held[ev].pos <= i; ev++ {
			h := &a.held[ev]
			a.opts.EventSink(Event{At: p.Now(), Agent: a.opts.Name, Kind: h.kind, Key: h.key, Val: h.val})
		}
		if i == len(a.staged) {
			a.held = a.held[:0]
			return nil
		}
		if err := a.staged[i].prepare(p); err != nil {
			a.dropStaged(i + 1)
			return err
		}
	}
}

// dropStaged takes the slots from log position n on, never prepared, off
// the log with the held events; an add gives its user handle back.
func (a *Agent) dropStaged(n int) {
	for i := len(a.staged) - 1; i >= n; i-- {
		if s := &a.staged[i]; s.kind == journal.OpAdd {
			s.tm.drop(s.h)
			s.tm.nextHandle = s.h - 1
		}
	}
	a.staged = a.staged[:n]
	a.held = a.held[:0]
}

// settle runs the op just staged outside a reaction, where no commit
// follows: it is prepared and mirrored at once — or undone, if its
// prepare failed — and the slot leaves the log again.
func (a *Agent) settle(p *sim.Proc) error {
	s := &a.staged[len(a.staged)-1]
	err := s.prepare(p)
	if err != nil {
		if s.undo(p) != nil {
			a.leaveToResync()
		}
	} else {
		err = s.mirror(p)
	}
	a.staged = a.staged[:len(a.staged)-1]
	return err
}

// prepare applies the op to the shadow copy, invisible to packets until
// the flip. All three phases are resumable: re-running one after a
// partial failure continues where it stopped.
func (s *stagedOp) prepare(p *sim.Proc) error {
	switch s.kind {
	case journal.OpAdd:
		return s.tm.install(p, s.ue, s.shadow)
	case journal.OpModify:
		s.oldAction, s.oldData = s.ue.spec.Action, append(s.oldData[:0], s.ue.spec.Data...)
		if err := s.tm.applyAll(p, s.ue, s.shadow, s.newAction, s.newData); err != nil {
			return err
		}
		s.ue.setSpec(s.newAction, s.newData)
		return nil
	default: // the old primary goes after the commit (§5.1.2)
		return s.tm.uninstall(p, s.ue, s.shadow)
	}
}

// undo reverts the slot's prepare, completed or not; an add gives its
// handle back. Undo and mirror bring the agent's image to its end state
// before they write the switch, so a write that fails leaves an image
// the resync can reconcile the switch against.
func (s *stagedOp) undo(p *sim.Proc) error {
	switch s.kind {
	case journal.OpAdd:
		s.tm.drop(s.h)
		s.tm.nextHandle = s.h - 1
		return s.tm.uninstall(p, s.ue, s.shadow)
	case journal.OpModify:
		s.ue.setSpec(s.oldAction, s.oldData)
		return s.tm.applyAll(p, s.ue, s.shadow, s.oldAction, s.oldData)
	default:
		return s.tm.install(p, s.ue, s.shadow)
	}
}

// mirror re-applies the committed op to the now-shadow copy (phase 3).
func (s *stagedOp) mirror(p *sim.Proc) error {
	switch s.kind {
	case journal.OpAdd:
		return s.tm.install(p, s.ue, s.shadow^1)
	case journal.OpModify:
		return s.tm.applyAll(p, s.ue, s.shadow^1, s.newAction, s.newData)
	default:
		s.tm.drop(s.h)
		return s.tm.uninstall(p, s.ue, s.shadow^1)
	}
}

// fillShadow runs the mirror phase over the log, in staging order. A
// mirror that keeps failing leaves the shadow to the resync instead of
// killing the agent, and the phase goes on: each mirror has brought the
// image to the committed state before its write, the flip already
// committed the change, and the unfinished shadow work is invisible to
// packets until the next flip, which the resync gates.
func (a *Agent) fillShadow(p *sim.Proc) {
	for i := range a.staged {
		if a.staged[i].mirror(p) != nil {
			a.leaveToResync()
		}
	}
}

// rollbackStaged reverts the iteration's prepares, newest first. An undo
// that still fails leaves the shadow to the resync. The undos use the
// retry-wrapped helpers, so a failure here means retries were already
// spent.
func (a *Agent) rollbackStaged(p *sim.Proc) {
	for i := len(a.staged) - 1; i >= 0; i-- {
		if a.staged[i].undo(p) != nil {
			a.leaveToResync()
		}
	}
	a.staged = a.staged[:0]
}
