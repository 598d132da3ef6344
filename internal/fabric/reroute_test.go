package fabric

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// TestRerouteScenarioModes drives the fig-reroute scenario end to end
// for each failure mode at 2×2 and asserts the full arc: steady
// pre-failure goodput, detection + exclude-reroute after the failure,
// goodput recovery to ≥90% of the pre-failure rate while the failure
// is still in place, and a clean restore after the heal.
func TestRerouteScenarioModes(t *testing.T) {
	for i, mode := range []RerouteMode{ModeLinkDown, ModeGray, ModeCrash} {
		mode := mode
		i := i
		t.Run(string(mode), func(t *testing.T) {
			s := sim.New(40 + int64(i))
			r, err := NewRerouteFabric(s, RerouteFabricConfig{
				Fabric: Config{Leaves: 2, Spines: 2, Seed: 40 + int64(i)},
				Mode:   mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(time.Millisecond, 2*time.Millisecond, 2*time.Millisecond); err != nil {
				t.Fatal(err)
			}

			pre := r.Goodput(r.FailAt-sim.Time(800*time.Microsecond), r.FailAt)
			if pre <= 0 {
				t.Fatal("no pre-failure goodput")
			}

			first, lastDone, moves, ok := r.RerouteSpan(true, r.FailAt)
			if !ok || moves == 0 {
				t.Fatalf("exclude reroute: first=%v lastDone=%v moves=%d ok=%v",
					first, lastDone, moves, ok)
			}
			if first < r.FailAt {
				t.Fatalf("exclude reroute at %v predates the failure at %v", first, r.FailAt)
			}
			if lastDone < first {
				t.Fatalf("reroute commit %v before trigger %v", lastDone, first)
			}

			rec := r.RecoveredAt(r.FailAt, r.HealAt, pre, 0.9)
			if rec == 0 {
				t.Fatalf("goodput never recovered to 90%% of %.0f bps during the failure", pre)
			}

			// Steady state under failure: the back half of the fail window
			// must hold ≥90% of the pre-failure rate.
			mid := r.FailAt + (r.HealAt-r.FailAt)/2
			if under := r.Goodput(mid, r.HealAt); under < 0.9*pre {
				t.Fatalf("steady goodput under failure %.0f < 90%% of pre %.0f", under, pre)
			}

			hFirst, hDone, hMoves, hOK := r.RerouteSpan(false, r.HealAt)
			if !hOK || hMoves == 0 {
				t.Fatalf("restore reroute: first=%v lastDone=%v moves=%d ok=%v",
					hFirst, hDone, hMoves, hOK)
			}
			for sp := range r.F.Spines {
				if h := r.F.Coord.Health(sp); h.State != SpineHealthy {
					t.Fatalf("spine %d ends %v, want healthy", sp, h.State)
				}
			}
		})
	}
}

// TestSteadyStatePacketPathAllocFree pins the packet path's ownership
// rule end to end: a warmed 2×2 reroute fabric — probes on every trunk
// every 500 ns, the TCP ring, six agents polling — runs 100 µs slices of
// steady state with at most 0.01 heap allocations per packet the
// switches receive. Skipped under the race detector, whose
// instrumentation allocates.
func TestSteadyStatePacketPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := sim.New(1)
	r, err := NewRerouteFabric(s, RerouteFabricConfig{Fabric: Config{Leaves: 2, Spines: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rx := func() (n uint64) {
		for _, nd := range r.F.Nodes() {
			n += nd.Sw.Stats().RxPackets
		}
		return n
	}
	r.F.Start()
	s.RunFor(2 * time.Millisecond) // prologues, TCP ramp-up, freelists
	const runs = 20
	before := rx()
	allocs := testing.AllocsPerRun(runs, func() { s.RunFor(100 * time.Microsecond) })
	pkts := float64(rx()-before) / (runs + 1) // AllocsPerRun adds one warm-up call
	if pkts < 500 {
		t.Fatalf("only %.0f packets received per 100 µs; the fabric is not carrying traffic", pkts)
	}
	t.Logf("%.0f allocations per 100 µs, %.0f packets received", allocs, pkts)
	if perPkt := allocs / pkts; perPkt > 0.01 {
		t.Fatalf("%.0f allocations per 100 µs over %.0f packets = %.4f per packet, budget 0.01", allocs, pkts, perPkt)
	}
	r.F.Stop()
	s.RunFor(200 * time.Microsecond)
	if err := r.F.Err(); err != nil {
		t.Fatal(err)
	}
}

// quietFabric builds and starts a 4×2 fabric with no traffic, lets every
// prologue finish, then stops the agents and the probe heartbeats, so
// that the coordinator alone drives the switches from here on.
func quietFabric(t *testing.T) (*sim.Simulator, *Fabric) {
	t.Helper()
	s := sim.New(1)
	f, err := Build(s, Config{Leaves: 4, Spines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	s.RunFor(time.Millisecond)
	for _, n := range f.Nodes() {
		n.Agent.Stop()
	}
	f.hbTicker.Stop()
	s.RunFor(200 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return s, f
}

// grayCycle feeds the coordinator leaf0's suspect and then its clear
// for spine sp, each run to completion, as the leaf's detector would.
func grayCycle(s *sim.Simulator, f *Fabric, sp int) {
	for _, kind := range []string{usecases.EventGraySuspect, usecases.EventGrayClear} {
		f.Coord.Observe(core.Event{At: s.Now(), Agent: f.Leaves[0].Name, Kind: kind, Key: uint64(f.UplinkPort(sp))})
		s.RunFor(100 * time.Microsecond)
	}
}

// TestRerouteMovesMemoized pins the price of a reroute: the prologue
// memoizes every route handle the coordinator rewrites, so an exclude
// and its restore pay only memoized table operations on the leaves.
func TestRerouteMovesMemoized(t *testing.T) {
	s, f := quietFabric(t)
	leafStats := func() (st driver.Stats) {
		for _, n := range f.Leaves {
			ds := n.Drv.Stats()
			st.TableOps += ds.TableOps
			st.MemoizedOps += ds.MemoizedOps
		}
		return st
	}
	before := leafStats()
	grayCycle(s, f, 1)
	after := leafStats()
	ops, memo := after.TableOps-before.TableOps, after.MemoizedOps-before.MemoizedOps
	if moves := f.Coord.Stats().RouteMoves; ops == 0 || moves == 0 {
		t.Fatalf("%d table ops and %d route moves on the leaves; the cycle moved nothing", ops, moves)
	}
	if memo != ops {
		t.Fatalf("%d of %d leaf table ops memoized, want all", memo, ops)
	}
	for _, rr := range f.Coord.Reroutes() {
		if rr.DoneAt == 0 {
			t.Fatalf("reroute %+v never completed", rr)
		}
	}
}

// TestRerouteAllocatesOnlyItsLog pins that a reroute allocates nothing
// per route move: after one warm-up cycle, an exclude→restore pair run
// to completion (decision, installer runs over ctlchan, ctlplane and the
// driver, settlement) allocates at most its two Reroute records and
// their share of the log's growth. Skipped under the race detector,
// whose instrumentation allocates.
func TestRerouteAllocatesOnlyItsLog(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, f := quietFabric(t)
	grayCycle(s, f, 1)
	moves := f.Coord.Stats().RouteMoves
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { grayCycle(s, f, 1) })
	perPair := (f.Coord.Stats().RouteMoves - moves) / (runs + 1) // AllocsPerRun adds one warm-up call
	if perPair == 0 {
		t.Fatal("the pairs moved no routes")
	}
	t.Logf("%.2f allocations per exclude→restore pair of %d route moves", allocs, perPair)
	// Two Reroute records per pair; the log's doubling adds well under
	// one more per pair, averaged over the runs.
	if allocs > 3 {
		t.Fatalf("%.2f allocations per pair of %d route moves, budget 3 (two Reroute records and the log's growth)", allocs, perPair)
	}
}
