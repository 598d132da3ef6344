package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
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

// RunFaultSweep runs the chaos scenario once per fault profile: the
// agent (with DefaultRecovery) updates two tables in lockstep every
// iteration while the injector disturbs the driver channel, and every
// forwarded packet checks that it observed a consistent (vv, config)
// snapshot.
func RunFaultSweep(seed int64) ([]FaultRow, error) {
	var rows []FaultRow
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
	inj := faults.Wrap(s, l.drv, prof, seed)
	agent, err := l.agent(inj, core.Options{Recovery: core.DefaultRecovery()})
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
	if err := l.audit.Err(); err != nil {
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

// FormatFaultSweep renders the sweep as a table.
func FormatFaultSweep(rows []FaultRow) string {
	var b strings.Builder
	b.WriteString("Fault injection sweep — dialogue robustness under driver-channel faults\n")
	b.WriteString("(two-table lockstep updates; every packet audits cross-table consistency)\n\n")
	fmt.Fprintf(&b, "%-14s %6s %7s %7s %6s %6s %5s %5s %8s %8s %10s %6s\n",
		"profile", "iters", "commits", "retries", "rollbk", "abandn", "wdog", "degr",
		"inj.err", "inj.flt", "iter p99", "viol")
	for _, r := range rows {
		otherFaults := r.InjectedSpikes + r.PartialBatches + r.StuckWaits
		fmt.Fprintf(&b, "%-14s %6d %7d %7d %6d %6d %5d %5d %8d %8d %10v %6d\n",
			r.Profile, r.Iterations, r.Commits, r.Retries, r.Rollbacks, r.Abandoned,
			r.WatchdogTrips, r.Degraded, r.InjectedErrors, otherFaults,
			r.IterLatency.P99, r.Violations)
	}
	b.WriteString("\nmean iteration latency per profile:\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s mean %v, p99 %v over %d iterations (%d packets audited)\n",
			r.Profile, r.IterLatency.Mean, r.IterLatency.P99, r.IterLatency.Count, r.Packets)
	}
	crashed := false
	for _, r := range rows {
		if r.Crashes > 0 {
			if !crashed {
				b.WriteString("\ncrash profiles (standby takeover; counters are the successor's):\n")
				crashed = true
			}
			fmt.Fprintf(&b, "  %-14s outcome %-22s MTTR %v\n", r.Profile, r.TakeoverOutcome, r.TakeoverMTTR)
		}
	}
	return b.String()
}
