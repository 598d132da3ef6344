package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FaultRow summarizes one fault profile's run of the chaos scenario.
type FaultRow struct {
	Profile string

	// Agent-side recovery counters.
	Iterations    uint64
	Commits       uint64
	Retries       uint64
	Rollbacks     uint64
	Abandoned     uint64
	WatchdogTrips uint64
	Degraded      uint64
	RepairOps     uint64

	// Injector-side fault counters.
	InjectedErrors uint64
	InjectedSpikes uint64
	PartialBatches uint64
	StuckWaits     uint64

	// Iteration latency distribution (the reaction-latency cost of the
	// fault class) and the serializability audit.
	IterLatency stats.DurationStats
	Packets     int
	Violations  int

	// Crash-profile fields (zero for in-process fault classes). A crash
	// profile kills the primary outright, so its row reports the standby
	// takeover instead of in-process recovery: the classification of the
	// torn iteration and the crash-to-first-commit MTTR.
	Crashes         uint64
	TakeoverOutcome string
	TakeoverMTTR    time.Duration
}

// FaultRows is the fault sweep, one row per profile.
type FaultRows []FaultRow

// RunFaultSweep runs the chaos scenario once per fault profile: the
// agent (recovering from what it can) updates two tables in lockstep every
// iteration while the injector disturbs the driver channel, and every
// forwarded packet checks that it observed a consistent (vv, config)
// snapshot.
func RunFaultSweep(seed int64) (FaultRows, error) {
	var rows FaultRows
	for _, prof := range faults.Profiles() {
		var row *FaultRow
		var err error
		if prof.CrashEnabled() {
			// A crash is not survivable in-process: run the profile in the
			// failover rig, where a standby recovers from the journal.
			row, err = runCrashProfile(prof, seed)
		} else {
			row, err = runFaultProfile(prof, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", prof.Name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// runCrashProfile runs one crash profile through the takeover rig and
// reports the successor's dialogue counters alongside the takeover
// verdict.
func runCrashProfile(prof faults.Profile, seed int64) (*FaultRow, error) {
	r, err := buildTakeoverRig(prof, seed)
	if err != nil {
		return nil, err
	}
	r.run()
	pt, err := r.point(prof.CrashAtOp)
	if err != nil {
		return nil, err
	}
	succ := r.sb.Agent()
	ast := succ.Stats()
	row := &FaultRow{Profile: prof.Name}
	row.Iterations = ast.Iterations
	row.Commits = ast.Commits
	row.Retries = ast.Retries
	row.Rollbacks = ast.Rollbacks
	row.Abandoned = ast.Abandoned
	row.WatchdogTrips = ast.WatchdogTrips
	row.Degraded = ast.Degraded
	row.RepairOps = ast.RepairOps
	row.IterLatency = stats.SummarizeDurations(ast.Latencies)
	row.Packets = pt.Packets
	row.Violations = pt.Violations
	row.Crashes = r.inj.FaultStats().Crashes
	row.TakeoverOutcome = pt.Outcome
	row.TakeoverMTTR = pt.MTTR
	return row, nil
}

func runFaultProfile(prof faults.Profile, seed int64) (*FaultRow, error) {
	l, err := newLockstep(seed)
	if err != nil {
		return nil, err
	}
	s := l.sim
	inj := faults.Wrap(s, l.ch, prof, seed)
	agent, err := l.agent(inj, core.Options{})
	if err != nil {
		return nil, err
	}

	// Let the prologue install cleanly; faults start shortly after.
	inj.SetEnabled(false)
	s.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
	agent.Start()

	tick := check.FaultSweepTraffic(s, l.sw)
	s.RunFor(5 * time.Millisecond)
	tick.Stop()
	agent.Stop()
	s.RunFor(time.Millisecond)
	if err := agent.Err(); err != nil {
		return nil, err
	}
	if err := l.err(); err != nil {
		return nil, err
	}

	row := &FaultRow{Profile: prof.Name, Packets: l.audit.Packets, Violations: l.audit.Violations}
	ast := agent.Stats()
	row.Iterations = ast.Iterations
	row.Commits = ast.Commits
	row.Retries = ast.Retries
	row.Rollbacks = ast.Rollbacks
	row.Abandoned = ast.Abandoned
	row.WatchdogTrips = ast.WatchdogTrips
	row.Degraded = ast.Degraded
	row.RepairOps = ast.RepairOps
	row.IterLatency = stats.SummarizeDurations(ast.Latencies)
	fst := inj.FaultStats()
	row.InjectedErrors = fst.InjectedErrors
	row.InjectedSpikes = fst.InjectedSpikes
	row.PartialBatches = fst.PartialBatches
	row.StuckWaits = fst.StuckWaits
	return row, nil
}

// Tables is the per-profile recovery counters and latency, and the
// takeover verdict of the crash profiles.
func (rows FaultRows) Tables() []report.Table {
	sweep := report.Table{Title: "Fault injection sweep — dialogue robustness under driver-channel faults",
		Columns: []string{"profile", "iterations", "commits", "retries", "rollbacks", "abandoned", "watchdog",
			"degraded", "injected errors", "other faults", "iter mean", "iter p99", "packets", "violations"},
		Notes: []string{"Two-table lockstep updates; every packet audits cross-table consistency. " +
			"A crash profile kills the primary: its counters are the standby successor's."},
	}
	crash := report.Table{Title: "Fault injection sweep — crash profiles (standby takeover)",
		Columns: []string{"profile", "outcome", "MTTR"}}
	for _, r := range rows {
		sweep.Rows = append(sweep.Rows, report.Row(r.Profile, r.Iterations, r.Commits, r.Retries, r.Rollbacks,
			r.Abandoned, r.WatchdogTrips, r.Degraded, r.InjectedErrors,
			r.InjectedSpikes+r.PartialBatches+r.StuckWaits, r.IterLatency.Mean, r.IterLatency.P99,
			r.Packets, r.Violations))
		if r.Crashes > 0 {
			crash.Rows = append(crash.Rows, report.Row(r.Profile, r.TakeoverOutcome, r.TakeoverMTTR))
		}
	}
	return []report.Table{sweep, crash}
}
