package baseline

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// TwoPhase implements the Reitblatt-style consistent-update protocol
// the paper contrasts with Mantis's three-phase scheme (§5.1.2): every
// update installs the COMPLETE new configuration under version i+1,
// flips the version, and removes the stale version-i rules afterwards.
// The cost is therefore proportional to the configuration size, not to
// the delta, and stale copies linger for a conservative timeout —
// exactly the two drawbacks §5.1.2 calls out for high-frequency loops.
//
// The managed table must carry a trailing exact-match version column
// (the analogue of [35]'s packet version tag). Version width is
// unbounded here (unlike Mantis's 1 bit, which suffices only because
// Mantis bounds in-flight versions to two).
type TwoPhase struct {
	drv   *driver.Driver
	table string
	// versionTable is a single-default-action table whose first action
	// datum is the current version, standing in for the ingress tagger.
	versionTable  string
	versionAction string

	version   uint64
	installed []rmt.EntryHandle
	// Ops counts driver table operations issued.
	Ops uint64
}

// NewTwoPhase manages `table` (whose last key column is the version)
// using `versionTable`'s default action (arg 0) as the version source.
func NewTwoPhase(drv *driver.Driver, table, versionTable, versionAction string) *TwoPhase {
	return &TwoPhase{drv: drv, table: table, versionTable: versionTable, versionAction: versionAction}
}

// Rule is one entry of the target configuration (keys exclude the
// version column).
type Rule struct {
	Keys     []rmt.KeySpec
	Priority int
	Action   string
	Data     []uint64
}

// Install replaces the entire configuration with rules: add all rules
// under version+1, flip the version atomically, then delete every
// version-tagged rule of the old configuration.
func (tp *TwoPhase) Install(p *sim.Proc, rules []Rule) error {
	next := tp.version + 1
	var fresh []rmt.EntryHandle
	for _, r := range rules {
		keys := append(append([]rmt.KeySpec(nil), r.Keys...), rmt.ExactKey(next))
		h, err := tp.drv.AddEntry(p, tp.table, rmt.Entry{
			Keys: keys, Priority: r.Priority, Action: r.Action, Data: r.Data,
		})
		if err != nil {
			return fmt.Errorf("two-phase install: %w", err)
		}
		tp.Ops++
		fresh = append(fresh, h)
	}
	if err := tp.drv.SetDefaultAction(p, tp.versionTable, &p4.ActionCall{
		Action: tp.versionAction, Data: []uint64{next},
	}); err != nil {
		return fmt.Errorf("two-phase commit: %w", err)
	}
	tp.Ops++
	// Remove the stale configuration ([35] waits a conservative timeout;
	// with per-packet atomicity in the model the flip completes the
	// transition, so removal can proceed immediately).
	for _, h := range tp.installed {
		if err := tp.drv.DeleteEntry(p, tp.table, h); err != nil {
			return fmt.Errorf("two-phase cleanup: %w", err)
		}
		tp.Ops++
	}
	tp.installed = fresh
	tp.version = next
	return nil
}
