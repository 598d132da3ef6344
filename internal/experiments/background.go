package experiments

import (
	"fmt"
	"time"

	"repro/internal/p4"
	"repro/internal/report"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ---- §2 background claim: recirculation throughput penalty ----

// RecircRow is one point of the recirculation-throughput study.
type RecircRow struct {
	Recirculations int
	// UsableThroughput is delivered/offered at an ingress offered load
	// equal to the pipeline capacity.
	UsableThroughput float64
}

// RecircRows is the recirculation study.
type RecircRows []RecircRow

// RunRecirculation quantifies §2's workaround cost: each recirculation
// pass consumes pipeline capacity, so recirculating every packet N
// times divides usable throughput by ~(N+1). The paper cites 38% at two
// and 16% at three recirculations on real hardware (where additional
// overheads apply); the model reproduces the sharp 1/(N+1) decay.
func RunRecirculation() (RecircRows, error) {
	var rows RecircRows
	for _, n := range []int{0, 1, 2, 3} {
		prog := p4.NewProgram("recirc")
		prog.DefineStandardMetadata()
		count := prog.Schema.Define("m.count", 8)
		egr := prog.Schema.MustID(p4.FieldEgressSpec)
		prog.AddAction(&p4.Action{Name: "fwd", Body: []p4.Primitive{
			p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ConstOp(1)},
		}})
		prog.AddAction(&p4.Action{Name: "again", Body: []p4.Primitive{
			p4.ALU{Op: p4.ALUAdd, Dst: count, DstName: "m.count", A: p4.FieldOp(count, "m.count"), B: p4.ConstOp(1)},
			p4.Recirculate{},
		}})
		prog.AddTable(&p4.Table{
			Name:          "fwd_tbl",
			ActionNames:   []string{"fwd"},
			DefaultAction: &p4.ActionCall{Action: "fwd"},
			Size:          1,
		})
		prog.AddTable(&p4.Table{
			Name:        "recirc_tbl",
			Keys:        []p4.MatchKey{{FieldName: "m.count", Field: count, Width: 8, Kind: p4.MatchRange}},
			ActionNames: []string{"again"},
			Size:        1,
		})
		prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "fwd_tbl"}}
		prog.Egress = []p4.ControlStmt{p4.Apply{Table: "recirc_tbl"}}

		s := sim.New(1)
		cfg := rmt.DefaultConfig()
		cfg.IngressCapacityPPS = 1e6 // 1 Mpps pipeline
		cfg.QueueCapacity = 4096
		cfg.MaxRecirculations = 8
		sw, err := rmt.New(s, prog, cfg)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			// Recirculate while count < n.
			if _, err := sw.AddEntry("recirc_tbl", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.RangeKey(0, uint64(n-1))}, Action: "again",
			}); err != nil {
				return nil, err
			}
		}
		// Offer exactly the pipeline capacity for 20ms; the bounded
		// admission buffer sheds the excess so the run reaches the
		// steady-state fresh/recirculated capacity split.
		offered := 0
		tick := s.Every(time.Microsecond, func() {
			pkt := prog.Schema.New()
			pkt.Size = 128
			sw.Inject(0, pkt)
			offered++
		})
		s.RunFor(20 * time.Millisecond)
		tick.Stop()
		s.RunFor(time.Millisecond) // drain
		rows = append(rows, RecircRow{
			Recirculations:   n,
			UsableThroughput: float64(sw.Stats().TxPackets) / float64(offered),
		})
	}
	return rows, nil
}

// Tables is the throughput per recirculation count.
func (rows RecircRows) Tables() []report.Table {
	t := report.Table{Title: "§2 background — usable throughput vs per-packet recirculations",
		Columns: []string{"recirculations", "usable throughput"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, report.Row(r.Recirculations, fmt.Sprintf("%.0f%%", r.UsableThroughput*100)))
	}
	return []report.Table{t}
}

// ---- §4.2 R3: pull-based polling vs digest export freshness ----

// FreshnessResult compares measurement staleness of Mantis's pull model
// against per-packet digest export under load.
type FreshnessResult struct {
	// PollStaleness is the age of polled data at reaction time under the
	// pull model (bounded by the dialogue period).
	PollStaleness stats.DurationStats
	// DigestStaleness is the age of the digest at processing time when
	// the CPU consumes a per-packet digest stream slower than packets
	// arrive (head-of-line blocking; grows without bound).
	DigestStaleness stats.DurationStats
}

// RunFreshness simulates both §4.2 measurement models for the same
// packet stream: 1 Mpps arrivals, a control plane able to process
// 200K digests/s (R1: CPUs cannot take per-packet load), a 10µs Mantis
// dialogue. The digest queue holds 4096 records, dropping the newest on
// overflow (the NIC-queue behavior that causes the staleness).
func RunFreshness() (*FreshnessResult, error) {
	s := sim.New(1)
	const (
		pktInterval    = time.Microsecond      // 1 Mpps
		digestService  = 5 * time.Microsecond  // 200K digests/s
		dialogPeriod   = 10 * time.Microsecond // Mantis loop
		runtime        = 20 * time.Millisecond
		digestQueueCap = 4096
	)
	type digest struct{ born sim.Time }
	var queue []digest
	var digestAges, pollAges []time.Duration
	var lastPacket sim.Time

	// Packet arrivals feed the digest queue and refresh the register the
	// pull model reads.
	s.Every(pktInterval, func() {
		lastPacket = s.Now()
		if len(queue) < digestQueueCap {
			queue = append(queue, digest{born: s.Now()})
		}
	})
	// Digest consumer: drains one record per service time.
	s.Every(digestService, func() {
		if len(queue) == 0 {
			return
		}
		d := queue[0]
		queue = queue[1:]
		digestAges = append(digestAges, s.Now().Sub(d.born))
	})
	// Mantis dialogue: polls the freshest state (the last packet's
	// register write) every period.
	s.Every(dialogPeriod, func() {
		if lastPacket == 0 {
			return
		}
		pollAges = append(pollAges, s.Now().Sub(lastPacket))
	})
	s.RunFor(runtime)
	return &FreshnessResult{
		PollStaleness:   stats.SummarizeDurations(pollAges),
		DigestStaleness: stats.SummarizeDurations(digestAges),
	}, nil
}

// Tables is the staleness distribution of each model.
func (r *FreshnessResult) Tables() []report.Table {
	return []report.Table{{
		Title:   "§4.2 R3 — measurement staleness: pull-based polling vs digest export",
		Columns: append([]string{"model"}, report.DurColumns...),
		Rows:    [][]string{report.DurRow("Mantis poll", r.PollStaleness), report.DurRow("digest queue", r.DigestStaleness)},
	}}
}
