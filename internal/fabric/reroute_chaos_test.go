package fabric

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// routeEntryCount counts n's route entries keyed by dst — the
// at-most-once measure for route moves: a reissue after a degraded
// modify must never leave a second entry behind.
func routeEntryCount(t *testing.T, n *Node, dst uint32) int {
	t.Helper()
	entries, err := n.Drv.Switch().Entries(RouteTable)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, e := range entries {
		if len(e.Keys) == 1 && e.Keys[0].Value == uint64(dst) {
			count++
		}
	}
	return count
}

// TestChaosSpineCrashMidGrayReroute grays one trunk and then crashes a
// *different* spine right in the detection window, so the coordinator
// handles a second fabric-wide reroute while the first is barely
// committed. The ECMP exclusion sets must compose (routes avoid both
// the gray and the dead spine), and after both heal everything returns
// home with exactly one route entry per destination. Run under -race
// in CI.
func TestChaosSpineCrashMidGrayReroute(t *testing.T) {
	s := sim.New(2)
	f, err := Build(s, Config{Leaves: 2, Spines: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	s.RunFor(time.Millisecond)

	dst := HostAddr(1, 1)
	spGray := f.SpineFor(dst)
	spCrash := (spGray + 1) % 3

	f.Trunks[0][spGray].SetGray(1.0)
	s.Schedule(60*time.Microsecond, func() {
		if err := f.Crash(f.Spines[spCrash].Name); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	s.RunFor(time.Millisecond)

	if h := f.Coord.Health(spGray); h.State != SpineGray {
		t.Fatalf("gray spine %d health %v, want gray", spGray, h.State)
	}
	if h := f.Coord.Health(spCrash); h.State != SpineDead {
		t.Fatalf("crashed spine %d health %v, want dead", spCrash, h.State)
	}
	// leaf0's route for dst must dodge both failures.
	want := uint64(f.UplinkPort(SpineForSet(dst, 3, map[int]bool{spGray: true, spCrash: true})))
	if got := routePort(t, f.Leaves[0], dst); got != want {
		t.Fatalf("route for %#x: port %d, want %d (avoiding spines %d and %d)",
			dst, got, want, spGray, spCrash)
	}

	f.Trunks[0][spGray].SetGray(0)
	if err := f.Restore(f.Spines[spCrash].Name); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * time.Millisecond)

	for sp := range f.Spines {
		if h := f.Coord.Health(sp); h.State != SpineHealthy {
			t.Fatalf("spine %d ends %v, want healthy", sp, h.State)
		}
	}
	if got := routePort(t, f.Leaves[0], dst); got != uint64(f.UplinkPort(spGray)) {
		t.Fatalf("route for %#x ends on port %d, want home %d", dst, got, f.UplinkPort(spGray))
	}
	for _, leaf := range f.Leaves {
		for _, rt := range leaf.Routes {
			if got := routeEntryCount(t, leaf, rt.Dst); got != 1 {
				t.Fatalf("%s: %d route entries for %#x, want 1", leaf.Name, got, rt.Dst)
			}
		}
	}
	for _, rr := range f.Coord.Reroutes() {
		if rr.Moves > 0 && rr.DoneAt == 0 {
			t.Fatalf("reroute %+v never completed", rr)
		}
	}
	f.Stop()
	s.RunFor(100 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Coord.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosGrayRerouteOverPartitionedChannel grays one trunk of the
// evidence leaf, whose installer then holds several route moves, and
// loses the run that carries them: either the coordinator's control link
// to the leaf is partitioned before the failure lands, so no op of the
// run arrives, or the link is cut while the leaf executes the run, after
// its first ops applied. Either way the run can only finish through the
// degraded audit once the link heals, past the run's deadline: the
// audit must confirm the applied prefix, and every move of the unapplied
// suffix must be reissued and reach the switch exactly once.
func TestChaosGrayRerouteOverPartitionedChannel(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  int // the coordinator op the link is cut at; -1: cut before the failure
	}{{"partitioned-before", -1}, {"cut-mid-run", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(3)
			f, err := Build(s, Config{Leaves: 4, Spines: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			leaf := f.Leaves[0]
			sess, err := leaf.Svc.Open(ctlplane.SessionOptions{Name: "leaf0/coord-tap", Role: ctlplane.RoleLegacy})
			if err != nil {
				t.Fatal(err)
			}
			// The outage outlasts the run's deadline and quarantine, so
			// no retransmit gets through before the run goes degraded.
			const outage = 2 * time.Millisecond
			var healAt sim.Time
			partition := func() {
				leaf.CoordLink.SetPartitioned(true)
				healAt = s.Now() + sim.Time(outage)
				s.Schedule(outage, func() { leaf.CoordLink.SetPartitioned(false) })
			}
			// A tap between leaf0's control server and its coordinator
			// session counts the route modifications that reach the switch
			// per entry, and cuts the coordinator's op number tc.cut: it
			// partitions the link, so that the answer is lost, and fails
			// the op, so that the run stops there.
			tap, modified := check.NewTap(sess), map[rmt.EntryHandle]int{}
			tap.Before = func(_ *sim.Proc, n int, _ *driver.Op) error {
				if n != tc.cut {
					return nil
				}
				partition()
				return fmt.Errorf("tap: cut: %w", driver.ErrTransient)
			}
			tap.After = func(_ *sim.Proc, _ int, op *driver.Op, err error) error {
				if err == nil && op.Kind == driver.OpModifyEntry && op.Table == RouteTable {
					modified[op.Handle]++
				}
				return err
			}
			leaf.Srv.Attach(leaf.CoordLink, netsim.LinkSideB, 2, 1, tap)
			f.Start()
			s.RunFor(time.Millisecond)

			sp := f.SpineFor(HostAddr(1, 1))
			other := uint64(f.UplinkPort(1 - sp))
			var moved []Route
			for _, rt := range leaf.Routes {
				if f.SpineFor(rt.Dst) == sp {
					moved = append(moved, rt)
				}
			}
			if len(moved) <= tc.cut+1 {
				t.Fatalf("leaf0 has %d moves queued; the test needs more than %d", len(moved), tc.cut+1)
			}

			if tc.cut < 0 {
				partition()
			}
			f.Trunks[0][sp].SetGray(1.0)
			s.RunFor(outage + 3*time.Millisecond)
			if healAt == 0 {
				t.Fatal("the coordinator never sent leaf0 the run")
			}

			for _, rt := range moved {
				dst := rt.Dst
				if got := routePort(t, leaf, dst); got != other {
					t.Fatalf("route for %#x: port %d, want %d after the heal", dst, got, other)
				}
				if got := routeEntryCount(t, leaf, dst); got != 1 {
					t.Fatalf("%d route entries for %#x, want 1 (at-most-once violated)", got, dst)
				}
				if got := modified[rt.Handle]; got != 1 {
					t.Fatalf("the move of %#x reached the switch %d times, want exactly once", dst, got)
				}
			}
			if len(modified) != len(moved) {
				t.Fatalf("%d routes modified on leaf0, want the %d moves", len(modified), len(moved))
			}
			applied := max(tc.cut, 0)
			st := f.Coord.Stats()
			if st.DegradedRouteMoves != uint64(len(moved)) || st.RouteAuditConfirmed != uint64(applied) ||
				st.RouteReissues != uint64(len(moved)-applied) {
				t.Fatalf("stats %+v: want all %d moves degraded, the %d applied confirmed by the audit and the rest reissued",
					st, len(moved), applied)
			}
			rrs := f.Coord.Reroutes()
			if len(rrs) == 0 {
				t.Fatal("no reroute recorded")
			}
			if rrs[0].DoneAt < healAt {
				t.Fatalf("reroute committed at %v, before the channel heal at %v — wrote through a dead link?",
					rrs[0].DoneAt, healAt)
			}
			f.Stop()
			s.RunFor(100 * time.Microsecond)
			if err := f.Coord.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosFlappingTrunk flaps one trunk admin-down/up six times at
// 100µs cadence — fast enough that heal hysteresis (RecoverStrikes
// consecutive clean windows) keeps the exclusion latched through the
// brief ups — then leaves it up for good. The coordinator must ride
// the flaps without error and converge: healthy everywhere, routes
// home, every reroute record complete.
func TestChaosFlappingTrunk(t *testing.T) {
	s := sim.New(4)
	f, err := Build(s, Config{Leaves: 2, Spines: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	s.RunFor(time.Millisecond)

	dst := HostAddr(1, 1)
	sp := f.SpineFor(dst)
	tr := f.Trunks[0][sp]
	for i := 0; i < 6; i++ {
		down := i%2 == 0
		s.Schedule(time.Duration(i)*100*time.Microsecond, func() { tr.SetAdminDown(down) })
	}
	s.RunFor(600 * time.Microsecond) // the flapping window
	s.RunFor(2 * time.Millisecond)   // stable tail: the last heal lands

	for spi := range f.Spines {
		if h := f.Coord.Health(spi); h.State != SpineHealthy {
			t.Fatalf("spine %d ends %v, want healthy", spi, h.State)
		}
	}
	if got := routePort(t, f.Leaves[0], dst); got != uint64(f.UplinkPort(sp)) {
		t.Fatalf("route for %#x ends on port %d, want home %d", dst, got, f.UplinkPort(sp))
	}
	if got := routeEntryCount(t, f.Leaves[0], dst); got != 1 {
		t.Fatalf("%d route entries for %#x, want 1", got, dst)
	}
	rrs := f.Coord.Reroutes()
	if len(rrs) < 2 {
		t.Fatalf("%d reroute records over 3 down-phases, want ≥ 2", len(rrs))
	}
	for _, rr := range rrs {
		if rr.Moves > 0 && rr.DoneAt == 0 {
			t.Fatalf("reroute %+v never completed", rr)
		}
	}
	st := f.Coord.Stats()
	if st.GraySuspects == 0 || st.GrayClears == 0 {
		t.Fatalf("flaps left no suspect/clear trace: %+v", st)
	}
	f.Stop()
	s.RunFor(100 * time.Microsecond)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Coord.Err(); err != nil {
		t.Fatal(err)
	}
}
