package fabric

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// attackerFilterEntries counts n's ufilter entries keyed by the
// attacker — the per-source at-most-once measure (other escalations,
// e.g. a benign false positive under a degraded control plane, may own
// further entries).
func attackerFilterEntries(t *testing.T, n *Node) int {
	t.Helper()
	entries, err := n.Drv.Switch().Entries(FilterTable)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, e := range entries {
		if len(e.Keys) == 1 && e.Keys[0].Value == AttackerAddr {
			count++
		}
	}
	return count
}

// TestChaosPartitionedLeafMidEscalation partitions one non-detecting
// leaf's coordinator control link at the instant the escalation is
// created and heals it later. The coordinator must keep working: the
// other switches' filters commit promptly (one wedged installer never
// blocks its peers), the partitioned leaf's filter lands after the
// heal via the degraded-channel audit path, and no switch ever holds
// more than one filter entry for the attacker (at-most-once installs
// even across channel loss). Run under -race in CI: the whole fabric
// shares one virtual clock, so any cross-process data race here is a
// bug in the handoff discipline, not test noise.
func TestChaosPartitionedLeafMidEscalation(t *testing.T) {
	const healAfter = 500 * time.Microsecond

	s := sim.New(1)
	cfg := DosFabricConfig{Fabric: Config{Leaves: 3, Spines: 2, Seed: 4}}
	d, err := NewDosFabric(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var partitionedAt, healedAt sim.Time
	d.F.Coord.onEscalation = func(esc *Escalation) {
		if esc.Src != AttackerAddr || partitionedAt != 0 {
			return
		}
		// leaf1 never detects (the victim sits on leaf0), so its filter
		// comes only from the coordinator — over a link that is now dead.
		target := d.F.Node("leaf1")
		target.CoordLink.SetPartitioned(true)
		partitionedAt = s.Now()
		s.Schedule(healAfter, func() {
			target.CoordLink.SetPartitioned(false)
			healedAt = s.Now()
		})
	}

	// Generous tail: leaf1's install must ride out the partition, the
	// channel's degraded-mode quarantine, and the audit backoff loop.
	if err := d.Run(2*time.Millisecond, 6*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.F.Coord.Err() != nil {
		t.Fatalf("coordinator error: %v", d.F.Coord.Err())
	}
	if partitionedAt == 0 {
		t.Fatal("fault injection never fired")
	}

	esc := d.Escalation()
	if esc == nil {
		t.Fatal("attacker never escalated")
	}
	if !esc.Complete() {
		t.Fatalf("escalation incomplete after heal: %d/%d installed (installed=%v)",
			len(esc.Installed), esc.targets, esc.Installed)
	}

	// No wedge: every healthy node's filter committed long before the
	// heal — a stalled leaf1 installer must not delay its peers.
	for name, at := range esc.Installed {
		if name == "leaf1" {
			continue
		}
		if at >= healedAt {
			t.Fatalf("%s installed at %v, after the %v heal: coordinator wedged on the partitioned node", name, at, healedAt)
		}
	}
	if esc.SpinesDoneAt == 0 || esc.SpinesDoneAt >= healedAt {
		t.Fatalf("spine filters done at %v, want before heal at %v", esc.SpinesDoneAt, healedAt)
	}

	// The partitioned leaf converged only once the link was back.
	leaf1At, ok := esc.Installed["leaf1"]
	if !ok {
		t.Fatal("leaf1 never installed")
	}
	if leaf1At < healedAt {
		t.Fatalf("leaf1 installed at %v, before the heal at %v — wrote through a dead link?", leaf1At, healedAt)
	}

	// At-most-once: exactly one attacker filter entry per target, none
	// on the detector, even though the install crossed a lossy,
	// partitioned channel and may have been audited and reissued.
	for _, n := range d.F.Nodes() {
		want := 1
		if n.Name == esc.DetectedBy {
			want = 0
		}
		if got := attackerFilterEntries(t, n); got != want {
			t.Fatalf("%s: %d attacker filter entries, want %d (at-most-once violated)", n.Name, got, want)
		}
	}

	// The partition forced the degraded path at least once; the stats
	// must show the audit discipline actually exercised, not a lucky
	// clean install.
	st := d.F.Coord.Stats()
	if st.DegradedInstalls == 0 && st.TransientRetries == 0 {
		t.Fatalf("partition left no trace in install stats: %+v", st)
	}
	// And suppression still holds fabric-wide despite the chaos.
	sup, err := d.Suppression(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sup < 0.9 {
		t.Fatalf("suppression %.3f under partition, want ≥ 0.9", sup)
	}
}

// TestChaosLossyControlChannels runs the full scenario with every
// control link lossy. Escalation must still complete — retries and
// audits mask the loss — and installs stay at-most-once.
func TestChaosLossyControlChannels(t *testing.T) {
	s := sim.New(1)
	cfg := DosFabricConfig{Fabric: Config{Leaves: 2, Spines: 2, Seed: 11}}
	cfg.Fabric.CtlProfile.Loss = 0.2
	// Long per-op deadline: under sustained 20% loss the default budget
	// (~4 tries) degrades ~1.7% of ops, and prologues issue hundreds.
	cfg.Fabric.CtlOpDeadline = 2 * time.Millisecond
	d, err := NewDosFabric(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(2*time.Millisecond, 6*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	esc := d.Escalation()
	if esc == nil {
		t.Fatal("attacker never escalated")
	}
	if !esc.Complete() {
		t.Fatalf("escalation incomplete under loss: %d/%d", len(esc.Installed), esc.targets)
	}
	for _, n := range d.F.Nodes() {
		want := 1
		if n.Name == esc.DetectedBy {
			want = 0
		}
		if got := attackerFilterEntries(t, n); got != want {
			t.Fatalf("%s: %d attacker filter entries, want %d", n.Name, got, want)
		}
	}
}
