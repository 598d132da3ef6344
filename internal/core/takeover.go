package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/journal"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// This file implements crash recovery and primary takeover: a successor
// controller reads the dead primary's journal, audits the live switch
// configuration through the driver, classifies how far the crashed
// iteration got, and deterministically rolls it back or forward before
// resuming the dialogue loop.
//
// Classification, from journal (checkpoint C, optional intent I) and
// the audited vv bit:
//
//	I absent,        vv == C.VV        -> clean       (verify only)
//	I.Phase = begun, vv == I.StartVV   -> not-started (no divergence) or
//	                                      torn-prepare (divergence: the
//	                                      reaction's shadow prepares
//	                                      landed partially) -> roll back
//	I.Phase = commit-staged,
//	                 vv == I.StartVV   -> torn-prepare -> roll back to C
//	                 vv == I.TargetVV  -> committed-unmirrored -> roll
//	                                      forward to C ⊕ I.Ops
//	anything else                      -> corrupt journal, refuse
//
// Two properties make reconciliation simple and safe:
//
//   - The target state defines BOTH table copies (primary and shadow
//     converge between iterations), so the reconciler never needs to
//     reason about which copy a torn write landed in: it diffs every
//     audited entry against the target and every fix to the live copy
//     is, by construction, restoring data packets were already meant
//     to see, while fixes to the shadow copy are invisible until the
//     next flip.
//
//   - Audited entries are matched to expected entries by their match
//     key fingerprint, not by handle: the dead primary's handles are
//     meaningless to the successor, but the generated keys (alt
//     selectors, vv column) identify each concrete entry uniquely.
type Outcome string

// Takeover outcomes (RecoverReport.Outcome).
const (
	// OutcomeClean: no intent was pending; the audit verified the switch
	// matches the checkpoint.
	OutcomeClean Outcome = "clean"
	// OutcomeNotStarted: an iteration was in flight but no write of it
	// reached the switch.
	OutcomeNotStarted Outcome = "not-started"
	// OutcomeTornPrepare: the crashed iteration left partial shadow
	// prepares (or a partial rollback); recovery rolled back to the
	// checkpoint.
	OutcomeTornPrepare Outcome = "torn-prepare"
	// OutcomeCommittedUnmirrored: the vv flip landed but the mirror
	// phase did not finish; recovery rolled forward, completing the
	// crashed iteration's intent.
	OutcomeCommittedUnmirrored Outcome = "committed-unmirrored"
)

// Recovery errors.
var (
	// ErrNoCheckpoint: the journal has no checkpoint — the primary died
	// before finishing its prologue. That is a boot failure, not a
	// failover: redeploy instead of recovering.
	ErrNoCheckpoint = errors.New("core: recover: journal has no checkpoint")
	// ErrJournalCorrupt: the audited switch state is impossible under
	// the journal (e.g. a vv value neither the start nor the target of
	// the pending intent). Refusing is safer than guessing.
	ErrJournalCorrupt = errors.New("core: recover: switch state inconsistent with journal")
)

// RecoverReport describes what recovery found and fixed.
type RecoverReport struct {
	Outcome   Outcome
	Iteration uint64 // dialogue iteration count after recovery
	VV        uint64 // committed config version after recovery
	MV        uint64 // measurement version adopted from the audit
	// AuditedTables/AuditedEntries size the audit read-back.
	AuditedTables  int
	AuditedEntries int
	// RepairWrites counts the driver writes reconciliation issued to
	// converge the switch on the target state (0 for clean/not-started).
	RepairWrites int
	// AuditTime and ReconcileTime split the recovery's channel work.
	AuditTime     time.Duration
	ReconcileTime time.Duration
}

// Recover reconstructs an agent from the journal in store and the live
// switch state behind ch. It audits the configuration, classifies the
// crashed iteration, rolls it back or forward, journals a fresh
// baseline, and returns the agent ready to Start (its prologue will
// skip re-installation). Register natives via the returned agent
// before starting it.
func Recover(p *sim.Proc, s *sim.Simulator, ch driver.Channel, store journal.Store, plan *compiler.Plan, opts Options) (*Agent, *RecoverReport, error) {
	cp, err := store.LoadCheckpoint()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: load checkpoint: %w", err)
	}
	if cp == nil {
		return nil, nil, ErrNoCheckpoint
	}
	intent, err := store.LoadIntent()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: load intent: %w", err)
	}
	if len(plan.InitTables) == 0 {
		return nil, nil, fmt.Errorf("core: recover: plan has no init tables, nothing to audit")
	}

	// The successor journals to the same store.
	if opts.Journal == nil {
		opts.Journal = &JournalConfig{Store: store}
	} else if opts.Journal.Store == nil {
		j := *opts.Journal
		j.Store = store
		opts.Journal = &j
	}
	a := NewAgent(s, ch, plan, opts)
	a.recovered = true
	rep := &RecoverReport{}

	// ---- Audit: read back version bits and every reconciled table ----
	auditStart := p.Now()
	au, err := a.audit(p)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: %w", err)
	}
	master := plan.InitTables[0]
	actualVV, actualMV := masterVersions(master, au.master, cp.VV, cp.MV)
	for _, es := range au.entries {
		rep.AuditedEntries += len(es)
	}
	rep.AuditedTables = len(au.tables)
	rep.AuditTime = p.Now().Sub(auditStart)

	// ---- Classify, and load the target state into the agent ----
	if err := a.load(cp); err != nil {
		return nil, nil, fmt.Errorf("core: recover: %w", err)
	}
	var outcome Outcome
	switch {
	case intent == nil:
		if actualVV != cp.VV {
			return nil, nil, fmt.Errorf("%w: no pending intent but vv=%d, checkpoint has %d", ErrJournalCorrupt, actualVV, cp.VV)
		}
		outcome = OutcomeClean
	case intent.Phase == journal.PhaseBegun:
		if actualVV != intent.StartVV {
			return nil, nil, fmt.Errorf("%w: begun intent from vv=%d but switch has vv=%d", ErrJournalCorrupt, intent.StartVV, actualVV)
		}
		outcome = OutcomeTornPrepare // refined to not-started below if nothing diverged
	case intent.Phase == journal.PhaseCommitStaged && actualVV == intent.TargetVV:
		outcome = OutcomeCommittedUnmirrored
		if err := a.rollForward(intent); err != nil {
			return nil, nil, fmt.Errorf("core: recover: %w", err)
		}
	case intent.Phase == journal.PhaseCommitStaged && actualVV == intent.StartVV:
		outcome = OutcomeTornPrepare
	default:
		return nil, nil, fmt.Errorf("%w: intent phase %q start=%d target=%d, switch vv=%d",
			ErrJournalCorrupt, intent.Phase, intent.StartVV, intent.TargetVV, actualVV)
	}
	a.mv = actualMV // mv flips are measurement-only; adopt the live bit

	// ---- Reconcile the switch onto the target state ----
	reconStart := p.Now()
	writes, err := a.reconcile(p, au, actualMV)
	rep.RepairWrites = writes
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: reconcile: %w", err)
	}
	if outcome == OutcomeTornPrepare && intent != nil && intent.Phase == journal.PhaseBegun && writes == 0 {
		outcome = OutcomeNotStarted
	}
	rep.ReconcileTime = p.Now().Sub(reconStart)

	// reconcile memoized every entry handle it recorded; the master
	// default is the one descriptor left, as in the prologue.
	a.drv.Memoize(master.Table, 0)

	// The switch now matches the successor's image: journal it as the
	// new baseline and retire the crashed iteration's intent.
	if err := a.journalIterationEnd(p); err != nil {
		return nil, nil, fmt.Errorf("core: recover: %w", err)
	}

	rep.Outcome = outcome
	rep.Iteration = a.stats.Iterations
	rep.VV = a.vv
	rep.MV = a.mv
	return a, rep, nil
}

// rollForward advances the loaded checkpoint image to the
// committed-unmirrored target: the intent's recorded ops, the init data
// and malleable values its flip installed, its vv and its iteration.
// Ops record post-state, so applying them to a checkpoint that already
// reflects some (or all) of them is idempotent.
func (a *Agent) rollForward(it *journal.Intent) error {
	for _, op := range it.Ops {
		tm, ok := a.tables[op.Table]
		if !ok {
			return fmt.Errorf("intent names unknown malleable table %q", op.Table)
		}
		h := UserHandle(op.Handle)
		switch op.Kind {
		case journal.OpAdd, journal.OpModify:
			tm.put(h, &userEntry{spec: specFromJournal(op.Spec)})
			tm.nextHandle = max(tm.nextHandle, h)
		case journal.OpDelete:
			tm.drop(h)
		}
	}
	a.loadInitData(it.TargetInitData)
	maps.Copy(a.mblCache, it.PendingMbl)
	a.vv, a.stats.Iterations = it.TargetVV, it.Iteration
	return nil
}

// auditTableSet lists every table recovery reads back: non-master init
// tables, generated malleable tables, and static-entry carriers.
func auditTableSet(plan *compiler.Plan) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for t := 1; t < len(plan.InitTables); t++ {
		add(plan.InitTables[t].Table)
	}
	for _, info := range plan.MblTables {
		add(info.Table)
	}
	for _, se := range plan.StaticEntries {
		add(se.Table)
	}
	sort.Strings(out)
	return out
}

// switchAudit is an audit's read-back: the master default action and
// the entries of every table in tables (auditTableSet's list).
type switchAudit struct {
	master  *p4.ActionCall
	tables  []string
	entries map[string][]rmt.Entry
}

// audit reads back everything reconcile compares with the agent's
// image: the master default action, then every auditTableSet table.
// Resync and Recover both start here.
func (a *Agent) audit(p *sim.Proc) (switchAudit, error) {
	master := a.plan.InitTables[0].Table
	call, err := a.retry.ReadDefaultAction(p, master)
	if err != nil {
		return switchAudit{}, fmt.Errorf("audit master: %w", err)
	}
	au := switchAudit{master: call, tables: auditTableSet(a.plan)}
	au.entries = make(map[string][]rmt.Entry, len(au.tables))
	for _, table := range au.tables {
		es, err := a.retry.ReadEntries(p, table)
		if err != nil {
			return switchAudit{}, fmt.Errorf("audit %s: %w", table, err)
		}
		au.entries[table] = es
	}
	return au, nil
}

// expSlot is one concrete entry the target state requires, with an
// optional callback receiving the handle it ends up installed under.
type expSlot struct {
	entry   rmt.Entry
	record  func(h rmt.EntryHandle)
	matched bool
}

// entryFP fingerprints an entry's identity — match keys and priority —
// independent of its handle, action, or data.
func entryFP(e rmt.Entry) string {
	var b strings.Builder
	for _, k := range e.Keys {
		fmt.Fprintf(&b, "%x/%x/%x/%x|", k.Value, k.Mask, k.Lo, k.Hi)
	}
	fmt.Fprintf(&b, "p%d", e.Priority)
	return b.String()
}

// reconcile is the one place the agent's image becomes switch writes:
// the prologue reconciles a fresh switch (an audit that read nothing,
// so everything is installed), Recover the audited switch after loading
// the journal, and resync the audited switch against the committed
// image. It diffs the audit against the image and issues the minimal
// fixes — the master default first, then, table by table in audit
// order: modify mismatched entries, delete torn leftovers, install
// missing ones. It also relearns every handle the dialogue loop needs
// (init-table pairs, concrete malleable entries) from the audit, and
// memoizes each one, adopted or added. Returns the write count.
func (a *Agent) reconcile(p *sim.Proc, au switchAudit, actualMV uint64) (int, error) {
	writes := 0

	// Master default action: the target image with the live version bits
	// substituted in. On a torn prepare the vv slot equals the audited
	// value (the flip never landed), so fixing the master never moves vv.
	master := a.plan.InitTables[0]
	expMaster := append([]uint64(nil), a.initData[0]...)
	for i, ip := range master.Params {
		switch ip.Kind {
		case compiler.InitVV:
			expMaster[i] = a.vv
		case compiler.InitMV:
			expMaster[i] = actualMV
		}
	}
	a.initData[0] = expMaster
	if au.master == nil || au.master.Action != master.Action || !slices.Equal(au.master.Data, expMaster) {
		if err := a.retry.SetDefaultAction(p, master.Table, &p4.ActionCall{
			Action: master.Action, Data: append([]uint64(nil), expMaster...),
		}); err != nil {
			return writes, err
		}
		writes++
	}

	// Expected concrete entries per table, in deterministic order.
	byTable := make(map[string][]*expSlot)
	for t := 1; t < len(a.plan.InitTables); t++ {
		it := a.plan.InitTables[t]
		for v := uint64(0); v < 2; v++ {
			byTable[it.Table] = append(byTable[it.Table], &expSlot{
				entry: rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(v)}, Action: it.Action,
					Data: append([]uint64(nil), a.initData[t]...),
				},
				record: func(h rmt.EntryHandle) { a.initHandles[t][v] = h },
			})
		}
	}
	for _, name := range a.tableNames {
		tm := a.tables[name]
		versions := []uint64{0}
		if tm.versioned() {
			versions = []uint64{0, 1}
		}
		for _, h := range tm.handles() {
			ue := tm.entries[h]
			for _, v := range versions {
				ue.concrete[v] = make([]rmt.EntryHandle, len(tm.info.Combos))
				for ci := range tm.info.Combos {
					e, err := tm.concreteEntry(nil, &ue.spec, ci, v)
					if err != nil {
						return writes, err
					}
					byTable[tm.info.Table] = append(byTable[tm.info.Table], &expSlot{
						entry:  e,
						record: func(rh rmt.EntryHandle) { ue.concrete[v][ci] = rh },
					})
				}
			}
		}
	}
	for _, se := range a.plan.StaticEntries {
		byTable[se.Table] = append(byTable[se.Table], &expSlot{entry: se.Entry})
	}

	for _, table := range au.tables {
		exp := byTable[table]
		byFP := make(map[string][]*expSlot, len(exp))
		for _, sl := range exp {
			fp := entryFP(sl.entry)
			byFP[fp] = append(byFP[fp], sl)
		}
		for _, got := range au.entries[table] {
			fp := entryFP(got)
			if slots := byFP[fp]; len(slots) > 0 {
				sl := slots[0]
				byFP[fp] = slots[1:]
				sl.matched = true
				if got.Action != sl.entry.Action || !slices.Equal(got.Data, sl.entry.Data) {
					if err := a.retry.ModifyEntry(p, table, got.Handle, sl.entry.Action, sl.entry.Data); err != nil {
						return writes, err
					}
					writes++
				}
				a.adopt(table, sl, got.Handle)
				continue
			}
			// No expected entry has this identity: a torn write from the
			// dead primary (e.g. a partially staged add). Remove it.
			if err := a.retry.DeleteEntry(p, table, got.Handle); err != nil {
				return writes, err
			}
			writes++
		}
		for _, sl := range exp {
			if sl.matched {
				continue
			}
			h, err := a.retry.AddEntry(p, table, sl.entry)
			if err != nil {
				return writes, err
			}
			writes++
			a.adopt(table, sl, h)
		}
	}
	return writes, nil
}

// adopt hands a slot the handle its entry is installed under and
// memoizes the handle if the dialogue loop will rewrite it.
func (a *Agent) adopt(table string, sl *expSlot, h rmt.EntryHandle) {
	if sl.record != nil {
		sl.record(h)
		a.drv.Memoize(table, h)
	}
}

// RecoverSessionAgent opens a primary control-plane session (demoting
// any incumbent via election id) and runs Recover over it — the
// one-call takeover path for a successor controller.
func RecoverSessionAgent(p *sim.Proc, s *sim.Simulator, svc *ctlplane.Service, name string, electionID uint64, store journal.Store, plan *compiler.Plan, opts Options) (*Agent, *RecoverReport, error) {
	sess, err := svc.Open(ctlplane.SessionOptions{
		Name: name, Role: ctlplane.RolePrimary, ElectionID: electionID,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: open primary session: %w", err)
	}
	return Recover(p, s, sess, store, plan, opts)
}

// heartbeatTimeout declares the primary dead when its last journal
// heartbeat is older than this, in virtual time.
const heartbeatTimeout = 50 * time.Microsecond

// StandbyOptions configures a hot-standby controller.
type StandbyOptions struct {
	// Name labels the standby's session and process.
	Name string
	// ElectionID must exceed the primary's so the takeover demotes it.
	ElectionID uint64
	// Store is the shared journal the primary writes and the standby
	// watches (heartbeats) and recovers from.
	Store journal.Store
	// Plan is the compiled plan both controllers run.
	Plan *compiler.Plan
	// CheckEvery is the monitor's polling interval (default 2µs).
	CheckEvery time.Duration
	// Agent configures the successor agent Recover constructs.
	Agent Options
	// Configure, if set, runs on the recovered agent before Start —
	// the place to register native reactions.
	Configure func(a *Agent) error
}

// TakeoverReport timestamps the takeover's phases. MTTR decomposes as
// detect (crash to DetectedAt), audit+reconcile (to RecoveredAt, split
// in Recover), and resume (to ResumedAt, the successor's first commit).
type TakeoverReport struct {
	DetectedAt  sim.Time
	RecoveredAt sim.Time
	ResumedAt   sim.Time
	Recover     *RecoverReport
}

// Standby is a hot-standby controller: it monitors the primary's
// journal heartbeat and, on timeout, elects itself primary, runs
// Recover, and starts the successor agent.
type Standby struct {
	sim  *sim.Simulator
	svc  *ctlplane.Service
	opts StandbyOptions

	stopReq  atomic.Bool
	tookOver atomic.Bool
	agent    *Agent
	report   *TakeoverReport
	err      error
}

// NewStandby spawns the monitor process and returns the standby.
func NewStandby(s *sim.Simulator, svc *ctlplane.Service, opts StandbyOptions) *Standby {
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 2 * time.Microsecond
	}
	if opts.Name == "" {
		opts.Name = "standby"
	}
	sb := &Standby{sim: s, svc: svc, opts: opts}
	s.Spawn(opts.Name+"-monitor", sb.run)
	return sb
}

// Stop halts the monitor (it does not stop an agent that already took
// over; use Agent().Stop() for that).
func (sb *Standby) Stop() { sb.stopReq.Store(true) }

// TookOver reports whether the standby promoted itself.
func (sb *Standby) TookOver() bool { return sb.tookOver.Load() }

// Agent returns the successor agent (nil before takeover).
func (sb *Standby) Agent() *Agent { return sb.agent }

// Report returns the takeover timestamps (nil before takeover).
func (sb *Standby) Report() *TakeoverReport { return sb.report }

// Err returns the takeover error, if recovery failed.
func (sb *Standby) Err() error { return sb.err }

func (sb *Standby) run(p *sim.Proc) {
	for !sb.stopReq.Load() {
		p.Sleep(sb.opts.CheckEvery)
		hb, err := sb.opts.Store.LastHeartbeat()
		if err != nil {
			sb.err = fmt.Errorf("core: standby: read heartbeat: %w", err)
			return
		}
		if hb == 0 {
			// Primary has not journaled yet; nothing to take over.
			continue
		}
		if p.Now().Sub(sim.Time(hb)) < heartbeatTimeout {
			continue
		}
		sb.takeover(p)
		return
	}
}

func (sb *Standby) takeover(p *sim.Proc) {
	rep := &TakeoverReport{DetectedAt: p.Now()}
	sb.report = rep

	agentOpts := sb.opts.Agent
	userAfter := agentOpts.AfterIteration
	agentOpts.AfterIteration = func(p *sim.Proc, a *Agent) {
		if rep.ResumedAt == 0 && a.stats.Commits > 0 {
			rep.ResumedAt = p.Now()
		}
		if userAfter != nil {
			userAfter(p, a)
		}
	}

	a, rrep, err := RecoverSessionAgent(p, sb.sim, sb.svc, sb.opts.Name, sb.opts.ElectionID, sb.opts.Store, sb.opts.Plan, agentOpts)
	if err != nil {
		sb.err = err
		return
	}
	rep.Recover = rrep
	rep.RecoveredAt = p.Now()
	if sb.opts.Configure != nil {
		if err := sb.opts.Configure(a); err != nil {
			sb.err = fmt.Errorf("core: standby: configure successor: %w", err)
			return
		}
	}
	sb.agent = a
	sb.tookOver.Store(true)
	a.Start()
}
