package faults

import (
	"time"

	"repro/internal/sim"
)

// LinkProfile configures the fault model of one control-channel link
// (netsim.Link): message-level loss, duplication, reordering, delay
// jitter, and periodic partition windows. It is the channel-level
// counterpart of Profile, which perturbs *operations*: a Profile below
// the channel composes with a LinkProfile on the channel, and the chaos
// suite sweeps both. The zero value injects nothing.
//
// All probabilities are per message per direction; all windows are
// measured on the shared virtual clock, so a given (profile, seed) pair
// reproduces the identical delivery schedule on every run.
type LinkProfile struct {
	// Name labels the profile in stats output and sweep tables.
	Name string

	// Loss is the probability a message is silently dropped at send time.
	Loss float64
	// Dup is the probability a message is delivered twice; the duplicate
	// arrives up to DupDelay after the original (uniform).
	Dup      float64
	DupDelay time.Duration
	// Reorder is the probability a message is held back by an extra
	// delay of up to ReorderDelay (uniform, on top of base delay and
	// jitter), letting later sends overtake it — and letting a message
	// sent before a partition window land after the heal.
	Reorder      float64
	ReorderDelay time.Duration
	// Jitter adds a uniform [0, Jitter) component to every delivery
	// delay.
	Jitter time.Duration

	// PartitionEvery/PartitionFor open a periodic partition window:
	// every PartitionEvery of virtual time the link is cut for
	// PartitionFor — messages sent or due to arrive inside the window
	// are dropped. PartitionEvery == 0 disables; manual partitions are
	// still available via netsim.Link.SetPartitioned.
	PartitionEvery time.Duration
	PartitionFor   time.Duration
}

// Partitioned reports whether the profile's periodic schedule has the
// link cut at time t. The window opens after each PartitionEvery of up
// time: [E, E+F), [2E+F, 2E+2F), ...
func (lp LinkProfile) Partitioned(t sim.Time) bool {
	if lp.PartitionEvery <= 0 || lp.PartitionFor <= 0 {
		return false
	}
	period := lp.PartitionEvery + lp.PartitionFor
	phase := time.Duration(int64(t) % int64(period))
	return phase >= lp.PartitionEvery
}

// MaxSkew bounds how long after its send instant a message (or its
// duplicate) can still arrive: base delay aside, the profile can add at
// most Jitter + ReorderDelay + DupDelay. Reliability layers use this as
// the quarantine period after abandoning an un-acked mutation — once it
// has elapsed, no stale copy is still in flight (the virtual-clock
// analogue of TCP's maximum segment lifetime).
func (lp LinkProfile) MaxSkew() time.Duration {
	return lp.Jitter + lp.ReorderDelay + lp.DupDelay
}

// LinkNone injects nothing (control profile).
func LinkNone() LinkProfile { return LinkProfile{Name: "none"} }

// LinkProfiles returns the channel chaos sweep, mirroring the Profiles()
// operation-fault sweep: one profile per channel fault class, control
// first, their composition last.
func LinkProfiles() []LinkProfile {
	return []LinkProfile{
		LinkNone(),
		// Drops 2% of messages in each direction.
		{Name: "lossy", Loss: 0.02},
		// Duplicates 5% of messages, the duplicate trailing by up to 4µs —
		// past a typical retransmission timeout, so duplicates interleave
		// with retransmits.
		{Name: "dup", Dup: 0.05, DupDelay: 4 * time.Microsecond},
		// Holds back 10% of messages by up to 6µs, enough for several
		// later sends to overtake.
		{Name: "reorder", Reorder: 0.10, ReorderDelay: 6 * time.Microsecond},
		// Smears every delivery by up to 2µs — on the order of several
		// base RTTs, so responses routinely cross requests.
		{Name: "jitter", Jitter: 2 * time.Microsecond},
		// Cuts the channel for 150µs out of every 600µs.
		{Name: "partition", PartitionEvery: 450 * time.Microsecond, PartitionFor: 150 * time.Microsecond},
		// Every channel fault at once.
		{
			Name: "chaos",
			Loss: 0.02,
			Dup:  0.03, DupDelay: 4 * time.Microsecond,
			Reorder: 0.05, ReorderDelay: 6 * time.Microsecond,
			Jitter:         time.Microsecond,
			PartitionEvery: 600 * time.Microsecond, PartitionFor: 100 * time.Microsecond,
		},
	}
}
