package experiments

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/report"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig12xRow is one cell of the multi-client contention sweep: N legacy
// clients churning a table through bulk sessions while the Mantis agent
// runs its dialogue on a primary session, under one scheduling policy.
type Fig12xRow struct {
	Clients int
	Policy  string
	// Dialogue summarizes the agent's per-iteration latency — the
	// figure of merit Mantis cares about (reaction time).
	Dialogue stats.DurationStats
	// Legacy summarizes legacy ModifyEntry latency across all clients.
	Legacy stats.DurationStats
	// Rejected counts backpressure rejections across all sessions.
	Rejected uint64
}

// Fig12xResult is the full sweep plus derived headline numbers.
type Fig12xResult struct {
	Rows []Fig12xRow
}

// row finds the (clients, policy) cell.
func (r *Fig12xResult) row(n int, policy string) *Fig12xRow {
	for i := range r.Rows {
		if r.Rows[i].Clients == n && r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunFig12x extends Fig. 12 beyond the paper: instead of one legacy
// updater, N ∈ clients concurrent legacy clients hammer the driver
// through the control-plane service while the agent's dialogue runs,
// once under the priority scheduler and once under plain FIFO (the
// no-scheduler baseline). The dialogue-class latency should stay nearly
// flat under priority — a dialogue op waits for at most the one legacy
// op already occupying the channel — while under FIFO it queues behind
// every legacy head and degrades roughly linearly with N.
func RunFig12x(clients []int, dur time.Duration) (*Fig12xResult, error) {
	if dur <= 0 {
		dur = 20 * time.Millisecond
	}
	res := &Fig12xResult{}
	for _, policy := range []ctlplane.Policy{ctlplane.PolicyPriority, ctlplane.PolicyFIFO} {
		for _, n := range clients {
			row, err := runFig12xCell(n, policy, dur)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

func runFig12xCell(nClients int, policy ctlplane.Policy, dur time.Duration) (*Fig12xRow, error) {
	plan, err := compiler.CompileSource(fig11Src, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(int64(nClients) + 1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	svc := ctlplane.New(s, drv, ctlplane.Options{Policy: policy})

	agent, _, err := core.NewSessionAgent(s, svc, 1, plan, core.Options{})
	if err != nil {
		return nil, err
	}
	agent.Start()

	var legacyLats []time.Duration
	for c := 0; c < nClients; c++ {
		sess, err := svc.Open(ctlplane.SessionOptions{
			Name: fmt.Sprintf("legacy%d", c), Role: ctlplane.RoleLegacy,
		})
		if err != nil {
			return nil, err
		}
		s.Spawn(sess.Name(), func(p *sim.Proc) {
			h, err := sess.AddEntry(p, "legacy", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(uint64(c))}, Action: "legacy_act", Data: []uint64{0},
			})
			if err != nil {
				panic(err)
			}
			rng := s.Rand()
			for i := 0; ; i++ {
				p.Sleep(time.Duration(rng.Intn(5000)) * time.Nanosecond)
				t0 := p.Now()
				if err := sess.ModifyEntry(p, "legacy", h, "legacy_act", []uint64{uint64(i)}); err != nil {
					panic(err)
				}
				legacyLats = append(legacyLats, p.Now().Sub(t0))
			}
		})
	}
	s.RunFor(dur)

	var rejected uint64
	for _, sess := range svc.Sessions() {
		rejected += sess.SessionStats().Rejected
	}
	return &Fig12xRow{
		Clients:  nClients,
		Policy:   policy.String(),
		Dialogue: stats.SummarizeDurations(agent.Stats().Latencies),
		Legacy:   stats.SummarizeDurations(legacyLats),
		Rejected: rejected,
	}, nil
}

// Tables is the sweep plus the headline priority-vs-FIFO comparison at
// the largest client count.
func (r *Fig12xResult) Tables() []report.Table {
	t := report.Table{Title: "Fig 12x — dialogue vs legacy latency, N legacy clients × scheduling policy",
		Columns: []string{"policy", "N", "dialogue p50", "dialogue p99", "legacy p50", "legacy p99", "rejected"}}
	maxN := 0
	for _, rw := range r.Rows {
		t.Rows = append(t.Rows, report.Row(rw.Policy, rw.Clients, rw.Dialogue.Median, rw.Dialogue.P99,
			rw.Legacy.Median, rw.Legacy.P99, rw.Rejected))
		maxN = max(maxN, rw.Clients)
	}
	pr, ff := r.row(maxN, ctlplane.PolicyPriority.String()), r.row(maxN, ctlplane.PolicyFIFO.String())
	if pr != nil && ff != nil && pr.Dialogue.Median > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("at N=%d: FIFO dialogue p50 is %.2fx priority's, p99 %.2fx",
			maxN, float64(ff.Dialogue.Median)/float64(pr.Dialogue.Median),
			float64(ff.Dialogue.P99)/float64(pr.Dialogue.P99)))
	}
	return []report.Table{t}
}
