package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/journal"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// retainingStore keeps the records it is handed, decoded from what it
// serialized at write time — what the Store contract requires — and, to
// prove the contract is what makes the agent's scratch reuse safe, also
// the pointers themselves.
type retainingStore struct {
	*journal.MemStore
	enc       journal.Encoder
	lastCP    *journal.Checkpoint
	lastCPRec []byte
}

func (s *retainingStore) SaveCheckpoint(cp *journal.Checkpoint) error {
	s.lastCP = cp
	s.lastCPRec = s.enc.AppendCheckpoint(nil, cp)
	return s.MemStore.SaveCheckpoint(cp)
}

// TestCheckpointScratchEncodesLikeFresh churns a journaled agent's
// tables (entries added in one iteration, deleted in a later one) so the
// recycled checkpoint record holds stale slots and capacity, and checks
// after every iteration that it encodes byte for byte like a record
// built from nothing — no residue from an earlier, larger configuration;
// the record encoding is canonical, so a table emptied back to zero
// entries needs no nil-versus-empty care — and that the cached sorted
// handle lists follow every add and delete.
func TestCheckpointScratchEncodesLikeFresh(t *testing.T) {
	store := &retainingStore{MemStore: journal.NewMemStore()}
	var h1 UserHandle
	var extra []UserHandle
	iter := 0
	checked := 0
	r := buildRig(t, check.TwoTableSrc, Options{
		Journal: &JournalConfig{Store: store},
		Prologue: func(p *sim.Proc, a *Agent) error {
			t1, _ := a.Table("t1")
			var err error
			h1, err = t1.AddEntry(p, UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}})
			return err
		},
		// This hook runs on the agent's simulated process, where t.Fatal
		// would strand the simulator: report, stop the agent, return.
		AfterIteration: func(p *sim.Proc, a *Agent) {
			if t.Failed() {
				a.Stop()
				return
			}
			var enc journal.Encoder
			reused := enc.AppendCheckpoint(nil, a.buildCheckpoint(p.Now()))
			if !bytes.Equal(reused, store.lastCPRec) {
				t.Errorf("iteration %d: the record handed to the store was\n%x\nrebuilt now it is\n%x", iter, store.lastCPRec, reused)
			}
			a.cpScratch = journal.Checkpoint{}
			fresh := enc.AppendCheckpoint(nil, a.buildCheckpoint(p.Now()))
			if !bytes.Equal(reused, fresh) {
				t.Errorf("iteration %d: recycled checkpoint encodes as\n%x\na fresh one as\n%x", iter, reused, fresh)
			}
			cp, err := journal.DecodeCheckpoint(fresh)
			if err != nil {
				t.Error(err)
				return
			}
			for _, ts := range cp.Tables {
				tm := a.tables[ts.Table]
				if len(ts.Entries) != len(tm.entries) {
					t.Errorf("iteration %d: table %s checkpoints %d entries, holds %d", iter, ts.Table, len(ts.Entries), len(tm.entries))
				}
				for i, es := range ts.Entries {
					if _, ok := tm.entries[UserHandle(es.Handle)]; !ok || (i > 0 && ts.Entries[i-1].Handle >= es.Handle) {
						t.Errorf("iteration %d: table %s checkpoints handles %+v", iter, ts.Table, ts.Entries)
					}
				}
			}
			checked++
		},
	})
	if err := r.agent.RegisterNativeReaction("bump", func(ctx *Ctx) error {
		iter++
		t1, _ := ctx.Table("t1")
		t2, _ := ctx.Table("t2")
		switch iter % 4 {
		case 1: // grow: two more entries in t1, one in t2
			for k := uint64(1); k <= 2; k++ {
				h, err := t1.AddEntry(UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(k)}, Action: "set1", Data: []uint64{k}})
				if err != nil {
					return err
				}
				extra = append(extra, h)
			}
			h, err := t2.AddEntry(UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(9)}, Action: "set2", Data: []uint64{9}})
			if err != nil {
				return err
			}
			extra = append(extra, h)
		case 3: // shrink back: t2 ends up empty
			if err := t1.DeleteEntry(extra[0]); err != nil {
				return err
			}
			if err := t1.DeleteEntry(extra[1]); err != nil {
				return err
			}
			if err := t2.DeleteEntry(extra[2]); err != nil {
				return err
			}
			extra = extra[:0]
		}
		return t1.ModifyEntry(h1, "set1", []uint64{uint64(iter)})
	}); err != nil {
		t.Fatal(err)
	}
	r.agent.Start()
	r.sim.RunFor(2 * time.Millisecond)
	r.agent.Stop()
	r.sim.RunFor(100 * time.Microsecond)
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if !t.Failed() && checked < 12 {
		t.Fatalf("only %d iterations checked", checked)
	}
	if store.lastCP != &r.agent.cpScratch {
		t.Fatal("the agent did not hand the store its recycled record")
	}
}
