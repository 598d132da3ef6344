package experiments

import (
	"testing"
	"time"

	"repro/internal/ctlplane"
)

func TestFig12xPriorityBeatsFIFO(t *testing.T) {
	res, err := RunFig12x([]int{1, 4, 8}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Dialogue.Count == 0 || row.Legacy.Count == 0 {
			t.Fatalf("empty cell: %+v", row)
		}
		if row.Rejected != 0 {
			t.Fatalf("synchronous clients should never overflow a queue: %+v", row)
		}
	}
	prio := ctlplane.PolicyPriority.String()
	fifo := ctlplane.PolicyFIFO.String()

	// The headline: at the largest client count, dialogue latency under
	// FIFO measurably exceeds dialogue latency under priority, at the
	// median and in the tail.
	p8, f8 := res.row(8, prio), res.row(8, fifo)
	if p8 == nil || f8 == nil {
		t.Fatal("missing N=8 rows")
	}
	if f8.Dialogue.Median <= p8.Dialogue.Median {
		t.Fatalf("FIFO dialogue p50 %v not worse than priority %v at N=8",
			f8.Dialogue.Median, p8.Dialogue.Median)
	}
	if f8.Dialogue.P99 <= p8.Dialogue.P99 {
		t.Fatalf("FIFO dialogue p99 %v not worse than priority %v at N=8",
			f8.Dialogue.P99, p8.Dialogue.P99)
	}

	// Degradation from N=1 to N=8 must be steeper under FIFO: priority
	// isolates the dialogue from client count, FIFO does not.
	p1, f1 := res.row(1, prio), res.row(1, fifo)
	prioGrowth := float64(p8.Dialogue.Median) / float64(p1.Dialogue.Median)
	fifoGrowth := float64(f8.Dialogue.Median) / float64(f1.Dialogue.Median)
	if fifoGrowth <= prioGrowth {
		t.Fatalf("dialogue p50 growth 1→8 clients: fifo %.2fx <= priority %.2fx", fifoGrowth, prioGrowth)
	}

	// Priority must not starve the bulk class: legacy clients keep
	// completing ops under both policies.
	if p8.Legacy.Count < 100 {
		t.Fatalf("legacy starved under priority: %d ops", p8.Legacy.Count)
	}
}
