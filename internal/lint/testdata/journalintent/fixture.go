// Fixture for the journalintent analyzer (analyzed as
// repro/internal/core; the vocabulary is the same in every package the
// analyzer matches).
package core

type opKind int

const (
	OpModifyEntry opKind = iota + 1
	OpRegWrite
	OpRead
)

type Op struct {
	Kind  opKind
	Table string
}

type channel struct{}

func (c *channel) ModifyEntry(t string, k int) error    { return nil }
func (c *channel) AddEntry(t string, k int) error       { return nil }
func (c *channel) RegWrite(r string, i, v uint64) error { return nil }
func (c *channel) BatchRead() int                       { return 0 }

func Apply(ch *channel, op *Op) error { return nil }

type agent struct {
	retry *channel
	drv   *channel
	op    Op
}

func (a *agent) journalBegin() error          { return nil }
func (a *agent) journalCommitStaged() error   { return nil }
func (a *agent) journalCheckpoint() error     { return nil }
func (a *agent) WriteIntent(rec string) error { return nil }
func (a *agent) drvDo(op *Op) error           { return nil }
func (a *agent) Do(op *Op) error              { return nil }

func (a *agent) goodCommit() {
	// Intent first, mutation second: the crash window is covered.
	_ = a.journalCommitStaged()
	_ = a.retry.ModifyEntry("t", 1)
}

func (a *agent) badCommit() {
	_ = a.retry.ModifyEntry("t", 1) // want "driver mutation ModifyEntry precedes the intent journal write"
	_ = a.journalCommitStaged()
}

func (a *agent) badBegin() {
	_ = a.drv.AddEntry("t", 2) // want "driver mutation AddEntry precedes the intent journal write"
	_ = a.journalBegin()
	_ = a.retry.ModifyEntry("t", 3)
}

func (a *agent) badReplay() {
	_ = a.drv.RegWrite("r", 0, 1) // want "driver mutation RegWrite precedes the intent journal write"
	_ = a.WriteIntent("write r")
}

func (a *agent) mutateOnly() {
	// No intent write in scope: reconciliation-style replay or ordinary
	// request dispatch, not flagged.
	_ = a.retry.AddEntry("t", 4)
	_ = a.retry.ModifyEntry("t", 5)
}

func (a *agent) checkpointAfter() {
	// Checkpoints summarize state after the fact; they are not intent
	// writes and impose no ordering.
	_ = a.retry.ModifyEntry("t", 6)
	_ = a.journalCheckpoint()
}

func (a *agent) readsDontCount() {
	_ = a.retry.BatchRead()
	_ = a.drvDo(&Op{Kind: OpRead})
	_ = a.journalBegin()
	_ = a.retry.ModifyEntry("t", 7)
}

// ---- Ops as data: a call that executes an op mutates when the op is
// visibly of a mutating kind.

func (a *agent) goodOpLiteral() {
	_ = a.journalCommitStaged()
	_ = a.drvDo(&Op{Kind: OpModifyEntry, Table: "t"})
}

func (a *agent) badOpLiteral() {
	_ = a.drvDo(&Op{Kind: OpModifyEntry, Table: "t"}) // want "driver mutation drvDo precedes the intent journal write"
	_ = a.journalCommitStaged()
}

func (a *agent) badOpVariable() {
	op := Op{Kind: OpRegWrite, Table: "r"}
	_ = Apply(a.drv, &op) // want "driver mutation Apply precedes the intent journal write"
	_ = a.WriteIntent("write r")
}

func (a *agent) badOpField() {
	a.op.Kind = OpModifyEntry
	_ = a.Do(&a.op) // want "driver mutation Do precedes the intent journal write"
	_ = a.journalBegin()
}

func (a *agent) passThrough(op *Op) {
	// A layer forwarding an op it was handed: no kind is visible here, so
	// this is not a mutation site (the site is wherever the op was built).
	_ = Apply(a.drv, op)
	_ = a.WriteIntent("x")
}
