package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The fig-ctlchan experiment measures the dialogue over a message-based
// control channel (internal/ctlchan) instead of the in-process driver
// call path. Two sweeps:
//
//   - Reaction latency vs. loss: the full stack (agent -> ctlchan.Client
//     -> netsim.Link -> ctlchan.Server -> ctlplane session -> driver)
//     under 0–5% frame loss, reporting per-iteration latency
//     distributions and the recovery traffic (retransmits, dedup hits)
//     that kept every mutation at-most-once. The acceptance bar — p99
//     at 1% loss within 2x the lossless p99 — is enforced here, not
//     just eyeballed.
//
//   - Partition-heal recovery: periodic 300µs partitions every 700µs;
//     for each heal, the time until the agent's next commit landed. The
//     session is never restarted — degraded-mode abandons, then a
//     journal-vs-switch resync on heal, carry the same client through
//     every partition.

// ctlchanLinkDelay is the one-way wire delay of the simulated control
// link for both sweeps.
const ctlchanLinkDelay = 500 * time.Nanosecond

// CtlchanLossPoint is one loss rate's measurement.
type CtlchanLossPoint struct {
	// Loss is the per-frame, per-direction drop probability.
	Loss float64

	// Iterations/Commits/Degraded are the agent's dialogue counters.
	Iterations uint64
	Commits    uint64
	Degraded   uint64

	// Ops/Retransmits/Timeouts are the client ledger; DedupHits and
	// MutationsExecuted are the server's (at-most-once evidence: the
	// duplicates the dedup cache absorbed instead of re-executing).
	Ops               uint64
	Retransmits       uint64
	Timeouts          uint64
	DedupHits         uint64
	MutationsExecuted uint64

	// Latency is the per-iteration reaction latency distribution, and
	// P99VsClean its p99 as a multiple of the lossless point's.
	Latency    stats.DurationStats
	P99VsClean float64

	// Packets and Violations audit cross-table serializability.
	Packets    int
	Violations int
}

// CtlchanPartitionResult summarizes the partition-heal sweep.
type CtlchanPartitionResult struct {
	// Partitions is the number of healed partition windows measured.
	Partitions int
	// Recovery is the heal-to-next-commit latency distribution.
	Recovery stats.DurationStats
	// Resyncs counts journal-vs-switch audits after degraded abandons;
	// Timeouts the operations the partitions degraded.
	Resyncs  uint64
	Timeouts uint64
	Commits  uint64
	// SessionEpoch must still be the original epoch at the end: every
	// recovery happened inside one session, with no restart.
	SessionEpoch uint64

	Packets    int
	Violations int
}

// CtlchanResult is the full experiment.
type CtlchanResult struct {
	LinkDelay time.Duration
	Points    []CtlchanLossPoint
	Partition CtlchanPartitionResult
}

// ctlchanRig is the message-channel stack under the fault-sweep
// workload (polled register + lock-step two-table updates).
type ctlchanRig struct {
	*lockstep
	link  *netsim.Link
	srv   *ctlchan.Server
	cli   *ctlchan.Client
	agent *core.Agent

	commitTimes []sim.Time
}

// buildCtlchanRig wires the stack; the link starts clean (so the
// prologue installs over a working wire) and swaps to prof at 50µs.
func buildCtlchanRig(prof faults.LinkProfile, seed int64) (*ctlchanRig, error) {
	l, err := newLockstep(seed)
	if err != nil {
		return nil, err
	}
	s := l.sim
	link := netsim.NewLink(s, ctlchanLinkDelay, faults.LinkNone(), seed)
	sess, err := ctlplane.New(s, l.ch, ctlplane.Options{}).Open(ctlplane.SessionOptions{Name: "agent", Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		return nil, err
	}
	srv := ctlchan.NewServer(s)
	srv.Attach(link, netsim.LinkSideB, 1, 1, sess)
	cli := ctlchan.NewClient(s, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: l.drv})
	s.Schedule(50*time.Microsecond, func() { link.SetProfile(prof) })

	r := &ctlchanRig{lockstep: l, link: link, srv: srv, cli: cli}
	var lastCommits uint64
	r.agent, err = l.agent(cli, core.Options{
		Journal: &core.JournalConfig{Store: journal.NewMemStore()},
		AfterIteration: func(p *sim.Proc, a *core.Agent) {
			if c := a.Stats().Commits; c > lastCommits {
				lastCommits = c
				r.commitTimes = append(r.commitTimes, p.Now())
			}
		},
	})
	return r, err
}

// run drives traffic for d, then stops and drains.
func (r *ctlchanRig) run(d time.Duration) {
	r.agent.Start()
	tick := check.FaultSweepTraffic(r.sim, r.sw)
	r.sim.RunFor(d)
	tick.Stop()
	r.agent.Stop()
	r.sim.RunFor(2 * time.Millisecond)
}

// check fails on any outcome the experiment's numbers would paper over.
func (r *ctlchanRig) check(label string) error {
	if err := r.agent.Err(); err != nil {
		return fmt.Errorf("%s: agent died: %w", label, err)
	}
	if err := r.err(); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	st := r.agent.Stats()
	if st.Commits == 0 || r.audit.Packets == 0 {
		return fmt.Errorf("%s: no progress (commits=%d packets=%d)", label, st.Commits, r.audit.Packets)
	}
	if cs, ss := r.cli.ChanStats(), r.srv.Stats(); ss.MutationsExecuted > cs.Ops {
		return fmt.Errorf("%s: more mutations executed (%d) than ops issued (%d)", label, ss.MutationsExecuted, cs.Ops)
	}
	return nil
}

// RunCtlchan runs both sweeps and enforces the latency bound.
func RunCtlchan(seed int64) (*CtlchanResult, error) {
	res := &CtlchanResult{LinkDelay: ctlchanLinkDelay}

	losses := []float64{0, 0.005, 0.01, 0.02, 0.05}
	for _, loss := range losses {
		prof := faults.LinkProfile{Name: fmt.Sprintf("loss-%.1f%%", loss*100), Loss: loss}
		r, err := buildCtlchanRig(prof, seed)
		if err != nil {
			return nil, err
		}
		r.run(5 * time.Millisecond)
		if err := r.check(prof.Name); err != nil {
			return nil, err
		}
		st, cs, ss := r.agent.Stats(), r.cli.ChanStats(), r.srv.Stats()
		pt := CtlchanLossPoint{
			Loss:              loss,
			Iterations:        st.Iterations,
			Commits:           st.Commits,
			Degraded:          st.Degraded,
			Ops:               cs.Ops,
			Retransmits:       cs.Retransmits,
			Timeouts:          cs.Timeouts,
			DedupHits:         ss.DedupHits,
			MutationsExecuted: ss.MutationsExecuted,
			Latency:           stats.SummarizeDurations(st.Latencies),
			Packets:           r.audit.Packets,
			Violations:        r.audit.Violations,
		}
		if clean := res.Points; len(clean) > 0 && clean[0].Latency.P99 > 0 {
			pt.P99VsClean = float64(pt.Latency.P99) / float64(clean[0].Latency.P99)
		} else {
			pt.P99VsClean = 1
		}
		res.Points = append(res.Points, pt)
	}
	// The acceptance bound: reacting over a 1%-lossy wire costs at most
	// 2x the lossless p99 iteration latency.
	for _, pt := range res.Points {
		if pt.Loss == 0.01 && pt.P99VsClean > 2 {
			return nil, fmt.Errorf("p99 at 1%% loss is %.1fx lossless (%v vs %v), above the 2x bound",
				pt.P99VsClean, pt.Latency.P99, res.Points[0].Latency.P99)
		}
	}

	// Partition-heal: periodic 300µs outages, decisively longer than the
	// client's op deadline (~110µs on this link), so in-flight operations
	// degrade mid-partition instead of riding their backoff across the
	// heal — the regime where the agent must abandon, audit, and resync.
	prof := faults.LinkProfile{
		Name:           "partition-300us",
		PartitionEvery: 700 * time.Microsecond,
		PartitionFor:   300 * time.Microsecond,
	}
	r, err := buildCtlchanRig(prof, seed)
	if err != nil {
		return nil, err
	}
	const runFor = 5 * time.Millisecond
	r.run(runFor)
	if err := r.check(prof.Name); err != nil {
		return nil, err
	}
	st, cs, ss := r.agent.Stats(), r.cli.ChanStats(), r.srv.Stats()
	if st.Resyncs == 0 {
		return nil, fmt.Errorf("partitions healed but the agent never resynced: %+v", st)
	}
	// Heal instants of the periodic windows [E, E+F), [2E+F, 2E+2F), …
	period := prof.PartitionEvery + prof.PartitionFor
	var recoveries []time.Duration
	healed := 0
	for k := 1; ; k++ {
		heal := sim.Time(0).Add(time.Duration(k) * period)
		if heal.Duration() >= runFor {
			break
		}
		healed++
		for _, ct := range r.commitTimes {
			if ct >= heal {
				recoveries = append(recoveries, ct.Sub(heal))
				break
			}
		}
	}
	if len(recoveries) == 0 {
		return nil, fmt.Errorf("no commit ever followed a partition heal")
	}
	res.Partition = CtlchanPartitionResult{
		Partitions:   healed,
		Recovery:     stats.SummarizeDurations(recoveries),
		Resyncs:      st.Resyncs,
		Timeouts:     cs.Timeouts,
		Commits:      st.Commits,
		SessionEpoch: ss.Epoch,
		Packets:      r.audit.Packets,
		Violations:   r.audit.Violations,
	}
	if res.Partition.SessionEpoch != 1 {
		return nil, fmt.Errorf("session epoch rose to %d — recovery restarted the session", res.Partition.SessionEpoch)
	}
	return res, nil
}

// Tables is the loss sweep and the partition-heal summary.
func (res *CtlchanResult) Tables() []report.Table {
	loss := report.Table{Title: fmt.Sprintf("Message control channel — reaction latency vs loss (%v one-way link)", res.LinkDelay),
		Columns: []string{"loss", "iterations", "commits", "degraded", "retransmits", "timeouts", "dedup hits",
			"mean", "p99", "max", "p99 vs 0%", "violations"}}
	for _, p := range res.Points {
		loss.Rows = append(loss.Rows, report.Row(fmt.Sprintf("%.1f%%", p.Loss*100), p.Iterations, p.Commits, p.Degraded,
			p.Retransmits, p.Timeouts, p.DedupHits, p.Latency.Mean, p.Latency.P99, p.Latency.Max,
			fmt.Sprintf("%.2fx", p.P99VsClean), p.Violations))
	}
	pr := res.Partition
	part := report.Table{Title: "Partition-heal recovery (300µs partitions every 700µs, one session throughout)",
		Columns: []string{"partitions healed", "heal→commit mean", "p99", "max", "resyncs", "degraded ops",
			"commits", "epoch", "violations", "packets"},
		Rows: [][]string{report.Row(pr.Partitions, pr.Recovery.Mean, pr.Recovery.P99, pr.Recovery.Max, pr.Resyncs,
			pr.Timeouts, pr.Commits, pr.SessionEpoch, pr.Violations, pr.Packets)},
	}
	return []report.Table{loss, part}
}
