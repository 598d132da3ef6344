package experiments

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/sim"
)

// fig-fabric: network-wide reactions on a leaf–spine fabric.
//
// For each fabric size, one DoS scenario runs end to end: benign TCP
// senders on every leaf converge on a victim host, a flood enters at a
// spine border port, the victim leaf's own Mantis agent detects and
// blocks locally, and the fabric coordinator escalates the block into
// upstream filters on every other switch over each switch's lossy
// control channel. The sweep reports the reaction chain's latency
// decomposition (detect → spines filtered → all filtered), the
// fraction of attack traffic removed from the victim leaf's trunks,
// and how well the coordinator's merged per-leaf heavy-hitter
// estimates recover the true top senders.

// FabricPoint is one fabric size's result.
type FabricPoint struct {
	Leaves   int
	Spines   int
	Switches int

	// DetectLatency is flood start → the victim leaf's block event;
	// SpineLatency that event → the last spine filter committed (the
	// upstream path is cut here); FullLatency → every switch filtered.
	DetectLatency time.Duration
	SpineLatency  time.Duration
	FullLatency   time.Duration

	// Suppression is the fractional drop in attack-packet arrival rate
	// at the victim leaf's trunks after the spine filters, vs before.
	Suppression float64

	// AttackArrivals counts attack packets that reached the victim
	// leaf's trunks over the whole run.
	AttackArrivals int

	// HHRecall is |coordinator top-k ∩ true top-k| / k over the benign
	// senders (k = HHK), with truth from delivered bytes.
	HHRecall float64
	HHK      int

	// Coordinator activity for the run.
	Events         uint64
	Blocks         uint64
	FilterInstalls uint64
}

// FabricResult is the fig-fabric sweep.
type FabricResult struct {
	Seed   int64
	Points []FabricPoint
}

// fabricSizes is the sweep: 4, 6, and 9 switches.
var fabricSizes = []struct{ leaves, spines int }{
	{2, 2},
	{4, 2},
	{6, 3},
}

const fabricHHK = 5

// RunFabric sweeps fabric sizes with the workers cap of the -parallel
// flag. Each point is an independent simulator seeded from (seed,
// index) and written into index-addressed storage, so results are
// identical at any parallelism.
func RunFabric(seed int64, workers int) (*FabricResult, error) {
	res := &FabricResult{Seed: seed, Points: make([]FabricPoint, len(fabricSizes))}
	err := forEach(len(fabricSizes), workers, func(i int) error {
		sz := fabricSizes[i]
		label := fmt.Sprintf("%dx%d", sz.leaves, sz.spines)
		s := sim.New(seed + int64(i))
		d, err := fabric.NewDosFabric(s, fabric.DosFabricConfig{
			Fabric: fabric.Config{Leaves: sz.leaves, Spines: sz.spines, Seed: seed + int64(i)*1000},
		})
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if err := d.Run(2*time.Millisecond, 4*time.Millisecond); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		esc := d.Escalation()
		if esc == nil {
			return fmt.Errorf("%s: attacker never escalated", label)
		}
		if !esc.Complete() {
			return fmt.Errorf("%s: escalation incomplete", label)
		}
		sup, err := d.Suppression(s.Now())
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		// The acceptance bound: the escalation must remove at least 90%
		// of attack traffic from the victim leaf's trunks.
		if sup < 0.9 {
			return fmt.Errorf("%s: suppression %.3f below the 0.9 bound", label, sup)
		}
		st := d.F.Coord.Stats()
		res.Points[i] = FabricPoint{
			Leaves: sz.leaves, Spines: sz.spines, Switches: sz.leaves + sz.spines,
			DetectLatency:  esc.DetectedAt.Sub(d.FloodStart),
			SpineLatency:   esc.SpinesDoneAt.Sub(esc.DetectedAt),
			FullLatency:    esc.AllDoneAt.Sub(esc.DetectedAt),
			Suppression:    sup,
			AttackArrivals: len(d.AttackArrivals),
			HHRecall:       fabricHHRecall(d, fabricHHK),
			HHK:            fabricHHK,
			Events:         st.Events,
			Blocks:         st.Blocks,
			FilterInstalls: st.FilterInstalls,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fabricHHRecall compares the coordinator's merged top-k against the
// true top-k senders by delivered bytes.
func fabricHHRecall(d *fabric.DosFabric, k int) float64 {
	truth := make([]fabric.HHEntry, 0, len(d.DeliveredBySrc))
	for src, b := range d.DeliveredBySrc {
		truth = append(truth, fabric.HHEntry{Src: src, Bytes: b})
	}
	if len(truth) < k {
		k = len(truth)
	}
	if k == 0 {
		return 0
	}
	// Same ordering as Coordinator.TopK: bytes desc, src asc on ties.
	for i := 1; i < len(truth); i++ {
		for j := i; j > 0 && (truth[j].Bytes > truth[j-1].Bytes ||
			(truth[j].Bytes == truth[j-1].Bytes && truth[j].Src < truth[j-1].Src)); j-- {
			truth[j], truth[j-1] = truth[j-1], truth[j]
		}
	}
	want := make(map[uint64]bool, k)
	for _, e := range truth[:k] {
		want[e.Src] = true
	}
	// The coordinator's raw top-k leads with the attacker and the
	// victim's ACK stream — correctly, they ARE the heaviest sources —
	// so restrict its view to benign senders before comparing against
	// benign-sender truth.
	hits, seen := 0, 0
	for _, e := range d.F.Coord.TopK(len(d.DeliveredBySrc) + 8) {
		if _, benign := d.DeliveredBySrc[e.Src]; !benign {
			continue
		}
		if seen++; seen > k {
			break
		}
		if want[e.Src] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// Tables is the sweep.
func (res *FabricResult) Tables() []report.Table {
	t := report.Table{Title: "Fabric-wide reaction — DoS escalation across a leaf–spine fabric",
		Columns: []string{"fabric", "switches", "detect", "to-spines", "to-all", "suppress", "attack arrivals",
			"hh recall", "events", "blocks", "installs"},
		Notes: []string{"detect: flood start → victim leaf's local block; to-spines: block → last spine filter " +
			"committed (upstream path cut); to-all: block → every switch filtered. suppress: attack arrival-rate " +
			"drop at the victim leaf's trunks. hh recall: the coordinator's merged benign top-k against " +
			"delivered-bytes truth."},
	}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, report.Row(fmt.Sprintf("%dx%d", p.Leaves, p.Spines), p.Switches, p.DetectLatency,
			p.SpineLatency, p.FullLatency, fmt.Sprintf("%.1f%%", p.Suppression*100), p.AttackArrivals,
			fmt.Sprintf("%.0f%% of %d", p.HHRecall*100, p.HHK), p.Events, p.Blocks, p.FilterInstalls))
	}
	return []report.Table{t}
}
