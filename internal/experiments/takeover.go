package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The fig-takeover experiment measures crash-consistent failover: a
// journaled primary is killed immediately before its k-th driver
// operation (for every k across more than a full dialogue iteration), a
// hot standby detects the silence through the journal heartbeat, elects
// itself primary, audits the live switch, reconciles the torn
// iteration, and resumes the dialogue. Each point reports the MTTR
// decomposition — detect, audit, reconcile, resume — plus the
// serializability audit over every packet that crossed the takeover.

// takeoverArmIteration is the dialogue iteration at whose boundary the
// crash injector arms, so op counting starts at a protocol-phase
// boundary and each crash point is reproducible.
const takeoverArmIteration = 50

// TakeoverPoint is one crash point's takeover measurement.
type TakeoverPoint struct {
	// CrashOp is the 1-based driver-op index (counted from the arming
	// boundary) before which the primary was killed.
	CrashOp int
	// Outcome is the recovery classification (core.Outcome).
	Outcome string

	// MTTR phases: Detect (crash to heartbeat-timeout detection), Audit
	// (switch read-back), Reconcile (repair writes), Resume (successor
	// start to its first commit). MTTR is crash to first commit.
	Detect    time.Duration
	Audit     time.Duration
	Reconcile time.Duration
	Resume    time.Duration
	MTTR      time.Duration

	// RepairWrites and AuditedEntries size the reconciliation.
	RepairWrites   int
	AuditedEntries int

	// PostCommits counts successor commits after takeover; Packets and
	// Violations are the cross-table serializability audit over the
	// whole run (violations must be 0).
	PostCommits uint64
	Packets     int
	Violations  int
}

// TakeoverResult is the full sweep plus phase summaries.
type TakeoverResult struct {
	Points []TakeoverPoint

	// Phase distributions across the sweep.
	Detect    stats.DurationStats
	Audit     stats.DurationStats
	Reconcile stats.DurationStats
	Resume    stats.DurationStats
	MTTR      stats.DurationStats
}

// takeoverRig is the two-controller failover stack used by both the
// fig-takeover sweep and the crash rows of the fault sweep.
type takeoverRig struct {
	*lockstep
	inj   *faults.Injector
	agent *core.Agent
	sb    *core.Standby
}

// buildTakeoverRig wires primary (journaled, crash-injected session),
// standby, and serializability-auditing traffic over faultSweepSrc.
func buildTakeoverRig(prof faults.Profile, seed int64) (*takeoverRig, error) {
	l, err := newLockstep(seed)
	if err != nil {
		return nil, err
	}
	s := l.sim
	svc := ctlplane.New(s, l.ch, ctlplane.Options{})
	sess, err := svc.Open(ctlplane.SessionOptions{Name: "primary", Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		return nil, err
	}
	inj := faults.Wrap(s, sess, prof, seed)
	inj.SetEnabled(false)
	store := journal.NewMemStore()
	r := &takeoverRig{lockstep: l, inj: inj}

	r.agent, err = l.agent(inj, core.Options{
		Journal: &core.JournalConfig{Store: store},
		AfterIteration: func(p *sim.Proc, a *core.Agent) {
			if a.Stats().Iterations == takeoverArmIteration {
				inj.SetEnabled(true)
			}
		},
	})
	if err != nil {
		return nil, err
	}

	r.sb = core.NewStandby(s, svc, core.StandbyOptions{
		Name:       "standby",
		ElectionID: 2,
		Store:      store,
		Plan:       l.plan,
		CheckEvery: 3 * time.Microsecond,
		Configure: func(a *core.Agent) error {
			return a.RegisterNativeReaction("react", l.react)
		},
	})
	return r, nil
}

// run drives the rig to completion: traffic throughout, crash,
// detection, recovery, and post-takeover progress.
func (r *takeoverRig) run() {
	r.agent.Start()
	tick := check.FaultSweepTraffic(r.sim, r.sw)
	r.sim.RunFor(3 * time.Millisecond)
	tick.Stop()
	r.sb.Stop()
	if a := r.sb.Agent(); a != nil {
		a.Stop()
	}
	r.sim.RunFor(time.Millisecond)
}

// point converts the rig's outcome into a TakeoverPoint.
func (r *takeoverRig) point(k int) (*TakeoverPoint, error) {
	if !r.inj.Crashed() {
		return nil, fmt.Errorf("crash point %d never fired", k)
	}
	if err := r.sb.Err(); err != nil {
		return nil, fmt.Errorf("takeover failed: %w", err)
	}
	if !r.sb.TookOver() {
		return nil, fmt.Errorf("standby never took over")
	}
	rep := r.sb.Report()
	if rep == nil || rep.Recover == nil || rep.ResumedAt == 0 {
		return nil, fmt.Errorf("incomplete takeover report: %+v", rep)
	}
	succ := r.sb.Agent()
	if err := succ.Err(); err != nil {
		return nil, fmt.Errorf("successor died: %w", err)
	}
	if err := r.err(); err != nil {
		return nil, err
	}
	crashAt := r.inj.CrashedAt()
	return &TakeoverPoint{
		CrashOp:        k,
		Outcome:        string(rep.Recover.Outcome),
		Detect:         rep.DetectedAt.Sub(crashAt),
		Audit:          rep.Recover.AuditTime,
		Reconcile:      rep.Recover.ReconcileTime,
		Resume:         rep.ResumedAt.Sub(rep.RecoveredAt),
		MTTR:           rep.ResumedAt.Sub(crashAt),
		RepairWrites:   rep.Recover.RepairWrites,
		AuditedEntries: rep.Recover.AuditedEntries,
		PostCommits:    succ.Stats().Commits,
		Packets:        r.audit.Packets,
		Violations:     r.audit.Violations,
	}, nil
}

// RunTakeover sweeps the crash point over every driver-op index of
// roughly two dialogue iterations and measures each takeover.
func RunTakeover(seed int64) (*TakeoverResult, error) {
	res := &TakeoverResult{}
	var detect, audit, reconcile, resume, mttr []time.Duration
	for k := 1; k <= 16; k++ {
		prof := faults.Profile{Name: fmt.Sprintf("crash-at-%d", k), CrashAtOp: k}
		r, err := buildTakeoverRig(prof, seed+int64(k))
		if err != nil {
			return nil, fmt.Errorf("crash point %d: %w", k, err)
		}
		r.run()
		pt, err := r.point(k)
		if err != nil {
			return nil, fmt.Errorf("crash point %d: %w", k, err)
		}
		res.Points = append(res.Points, *pt)
		detect = append(detect, pt.Detect)
		audit = append(audit, pt.Audit)
		reconcile = append(reconcile, pt.Reconcile)
		resume = append(resume, pt.Resume)
		mttr = append(mttr, pt.MTTR)
	}
	res.Detect = stats.SummarizeDurations(detect)
	res.Audit = stats.SummarizeDurations(audit)
	res.Reconcile = stats.SummarizeDurations(reconcile)
	res.Resume = stats.SummarizeDurations(resume)
	res.MTTR = stats.SummarizeDurations(mttr)
	return res, nil
}

// Tables is the per-crash-point sweep and the MTTR decomposition.
func (res *TakeoverResult) Tables() []report.Table {
	sweep := report.Table{Title: "Primary takeover — crash-point sweep with journal-driven recovery",
		Columns: []string{"crash before op", "outcome", "detect", "audit", "reconcile", "resume", "MTTR",
			"repair writes", "successor commits", "violations"}}
	for _, p := range res.Points {
		sweep.Rows = append(sweep.Rows, report.Row(p.CrashOp, p.Outcome, p.Detect, p.Audit, p.Reconcile, p.Resume,
			p.MTTR, p.RepairWrites, p.PostCommits, p.Violations))
	}
	phase := func(name string, st stats.DurationStats) []string { return report.Row(name, st.Mean, st.P99, st.Max) }
	return []report.Table{sweep, {
		Title:   fmt.Sprintf("Primary takeover — MTTR decomposition over %d crash points", len(res.Points)),
		Columns: []string{"phase", "mean", "p99", "max"},
		Rows: [][]string{phase("detect", res.Detect), phase("audit", res.Audit),
			phase("reconcile", res.Reconcile), phase("resume", res.Resume), phase("MTTR", res.MTTR)},
	}}
}
