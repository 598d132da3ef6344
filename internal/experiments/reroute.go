package experiments

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/sim"
)

// fig-reroute: fabric-wide failure resilience.
//
// Ring TCP traffic runs across a leaf–spine fabric (each leaf's paced
// senders stream to a receiver on the next leaf) while one uplink — or
// one whole spine — fails underneath it. Per-leaf Fig. 16-style gray
// detectors watch probe delivery on every uplink and export suspect
// events; the fabric coordinator merges the per-leaf evidence into a
// spine health view and reroutes every affected leaf's ECMP assignment
// off the suspect path through the lossy per-switch control channels.
// The sweep reports, per failure mode and fabric size, how deep the
// goodput dips, how fast the reaction chain runs (detect → all routes
// moved → goodput back), and how cleanly everything returns home after
// the heal.

// ReroutePoint is one (mode, fabric size) cell of the sweep.
type ReroutePoint struct {
	Mode   string
	Leaves int
	Spines int

	// PreGoodput is the steady delivered rate (bits/s, all receivers)
	// before the failure; DipGoodput the worst single bucket between
	// failure and recovery; PostGoodput the steady rate after the heal.
	PreGoodput  float64
	DipGoodput  float64
	PostGoodput float64

	// DetectLatency is failure → the first coordinator exclude-reroute;
	// RerouteLatency that trigger → the last route move committed;
	// RecoverLatency failure → goodput back above 90% of PreGoodput.
	DetectLatency  time.Duration
	RerouteLatency time.Duration
	RecoverLatency time.Duration

	// RestoreLatency is heal → the last restore route-move committed.
	RestoreLatency time.Duration

	// Recovery is steady goodput under the failure (back half of the
	// fail window, after reroute) as a fraction of PreGoodput.
	Recovery float64

	// RouteMoves counts route modifications across exclude + restore.
	RouteMoves uint64

	// GraySuspects/GrayClears are the coordinator's event totals.
	GraySuspects uint64
	GrayClears   uint64
}

// RerouteResult is the fig-reroute sweep.
type RerouteResult struct {
	Seed   int64
	Points []ReroutePoint
}

var rerouteModes = []fabric.RerouteMode{
	fabric.ModeLinkDown, fabric.ModeGray, fabric.ModeCrash,
}

// rerouteSizes mirrors the fig-fabric sweep sizes.
var rerouteSizes = []struct{ leaves, spines int }{
	{2, 2},
	{4, 2},
	{6, 3},
}

// RunReroute sweeps failure mode × fabric size with the workers cap of
// the -parallel flag. Each point is an independent simulator seeded
// from (seed, index) and written into index-addressed storage, so
// results are identical at any parallelism.
func RunReroute(seed int64, workers int) (*RerouteResult, error) {
	n := len(rerouteModes) * len(rerouteSizes)
	res := &RerouteResult{Seed: seed, Points: make([]ReroutePoint, n)}
	err := forEach(n, workers, func(i int) error {
		mode := rerouteModes[i/len(rerouteSizes)]
		sz := rerouteSizes[i%len(rerouteSizes)]
		label := fmt.Sprintf("%s %dx%d", mode, sz.leaves, sz.spines)
		s := sim.New(seed + int64(i))
		r, err := fabric.NewRerouteFabric(s, fabric.RerouteFabricConfig{
			Fabric: fabric.Config{Leaves: sz.leaves, Spines: sz.spines, Seed: seed + int64(i)*1000},
			Mode:   mode,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if err := r.Run(time.Millisecond, 2*time.Millisecond, 2*time.Millisecond); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}

		pre := r.Goodput(r.FailAt-sim.Time(800*time.Microsecond), r.FailAt)
		if pre <= 0 {
			return fmt.Errorf("%s: no pre-failure goodput", label)
		}
		first, lastDone, _, ok := r.RerouteSpan(true, r.FailAt)
		if !ok {
			return fmt.Errorf("%s: exclude reroute missing or incomplete", label)
		}
		rec := r.RecoveredAt(r.FailAt, r.HealAt, pre, 0.9)
		// The acceptance bound: goodput must come back to ≥90% of the
		// pre-failure rate while the failure is still in place.
		if rec == 0 {
			return fmt.Errorf("%s: goodput never recovered to 90%% of %.0f bps", label, pre)
		}
		mid := r.FailAt + (r.HealAt-r.FailAt)/2
		under := r.Goodput(mid, r.HealAt)
		if under < 0.9*pre {
			return fmt.Errorf("%s: steady goodput under failure %.0f < 90%% of pre %.0f",
				label, under, pre)
		}
		_, hDone, _, hOK := r.RerouteSpan(false, r.HealAt)
		if !hOK {
			return fmt.Errorf("%s: restore reroute missing or incomplete", label)
		}
		st := r.F.Coord.Stats()
		end := r.Sim.Now()
		res.Points[i] = ReroutePoint{
			Mode: string(mode), Leaves: sz.leaves, Spines: sz.spines,
			PreGoodput:     pre * 8,
			DipGoodput:     r.MinGoodput(r.FailAt, rec) * 8,
			PostGoodput:    r.Goodput(r.HealAt+sim.Time(500*time.Microsecond), end-sim.Time(300*time.Microsecond)) * 8,
			DetectLatency:  first.Sub(r.FailAt),
			RerouteLatency: lastDone.Sub(first),
			RecoverLatency: rec.Sub(r.FailAt),
			RestoreLatency: hDone.Sub(r.HealAt),
			Recovery:       under / pre,
			RouteMoves:     st.RouteMoves,
			GraySuspects:   st.GraySuspects,
			GrayClears:     st.GrayClears,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Tables is the sweep.
func (res *RerouteResult) Tables() []report.Table {
	t := report.Table{Title: "Fabric failure resilience — detect, ECMP-exclude reroute, recover, restore",
		Columns: []string{"mode", "fabric", "pre (Gbps)", "dip (Gbps)", "detect", "reroute", "recover",
			"restore", "recovery", "route moves"},
		Notes: []string{"pre/dip: delivered goodput before the failure and at the worst bucket after it. " +
			"detect: failure → first coordinator exclude-reroute; reroute: → last route move committed; " +
			"recover: → goodput back above 90% of pre; restore: heal → last route moved home. " +
			"recovery: steady goodput under the failure as a fraction of pre."},
	}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, report.Row(p.Mode, fmt.Sprintf("%dx%d", p.Leaves, p.Spines),
			fmt.Sprintf("%.2f", p.PreGoodput/1e9), fmt.Sprintf("%.2f", p.DipGoodput/1e9),
			p.DetectLatency, p.RerouteLatency, p.RecoverLatency, p.RestoreLatency,
			fmt.Sprintf("%.1f%%", p.Recovery*100), p.RouteMoves))
	}
	return []report.Table{t}
}
