package core

import (
	"repro/internal/journal"
	"repro/internal/sim"
)

// stagedOp is one slot of the agent's staged-op log: one user-level
// table operation a reaction staged this iteration. The log is the only
// record of what the iteration staged — in global staging order, across
// tables — and each phase is a walk over it: rollback undoes the slots
// backwards, the mirror phase re-applies the prepared ones forwards, and
// the CommitStaged intent lists them (journalCommitStaged).
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
	// prepared marks a slot whose shadow-side prepare completed: only
	// those are journaled and mirrored. Undo runs for every slot — a
	// prepare that failed partway still has to be reverted.
	prepared bool
	// The spec before (modify) and after (add, modify) the op.
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
	s.kind, s.tm, s.h, s.ue, s.shadow, s.prepared = kind, tm, h, ue, a.vv^1, false
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

// perform runs a freshly staged op's prepare. Inside a reaction that is
// all: the slot stays in the log for the commit to mirror or the rollback
// to undo. Outside one (prologue, ad-hoc) there is no commit to wait for,
// so the op is mirrored at once — or undone, if its prepare failed — and
// the slot leaves the log again.
func (a *Agent) perform(p *sim.Proc, s *stagedOp) error {
	err := s.prepare(p)
	s.prepared = err == nil
	if a.inReaction {
		return err
	}
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
		if err := s.tm.applyAll(p, s.ue, s.shadow, s.newAction, s.newData); err != nil {
			return err
		}
		s.ue.setSpec(s.newAction, s.newData)
		return nil
	default: // the old primary goes after the commit (§5.1.2)
		return s.tm.uninstall(p, s.ue, s.shadow)
	}
}

// undo reverts the slot's prepare, completed or not. Undo and mirror
// bring the agent's image to its end state before they write the
// switch, so a write that fails leaves an image the resync can
// reconcile the switch against.
func (s *stagedOp) undo(p *sim.Proc) error {
	switch s.kind {
	case journal.OpAdd:
		s.tm.drop(s.h)
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

// fillShadow runs the mirror phase over the log, in staging order. When
// recovery is enabled, a mirror that keeps failing leaves the shadow to
// the resync instead of killing the agent, and the phase goes on: each
// mirror has brought the image to the committed state before its write,
// the flip already committed the change, and the unfinished shadow work
// is invisible to packets until the next flip, which the resync gates.
func (a *Agent) fillShadow(p *sim.Proc) error {
	for i := range a.staged {
		s := &a.staged[i]
		if !s.prepared {
			continue
		}
		if err := s.mirror(p); err != nil {
			if !a.opts.Recovery.Enabled() {
				return err
			}
			a.leaveToResync()
		}
	}
	return nil
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
