package netsim

import (
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Link is a bidirectional point-to-point message channel on the virtual
// clock — the control-path counterpart of the data-plane host links
// above. It carries opaque byte messages (the ctlchan codec's frames)
// between two endpoints, sides A and B, and perturbs them per a
// faults.LinkProfile: loss, duplication, reordering, delivery jitter,
// and partition windows.
//
// Fault decisions draw from the link's own seeded RNG, independent of
// the simulator's stream, so a (profile, seed) pair replays the exact
// delivery schedule. Partitions are evaluated at both the send and the
// arrival instant: a message in flight when the window opens is lost
// with the partition, while a message held back by reordering past the
// heal is delivered — the reorder-across-heal case the transport layer
// must survive.
//
// Frame ownership. A message in flight lives in a link-owned buffer:
// Send copies msg in, so the sender may reuse its buffer as soon as Send
// returns; a duplicate gets its own copy at send time, so no two
// deliveries ever share bytes. The receive callback borrows the buffer:
// msg is valid only until the callback returns, after which the link
// recycles it — a receiver that needs the bytes later copies them.
type Link struct {
	sim   *sim.Simulator
	delay time.Duration
	prof  faults.LinkProfile
	rng   *rand.Rand

	// recv[side] consumes messages arriving at that side.
	recv [2]func(msg []byte)
	// forced is the manual partition override (SetPartitioned), OR-ed
	// with the profile's periodic windows.
	forced bool
	// peerDown[side] marks that side's endpoint dead (crashed process,
	// not a cut wire): messages toward it vanish, and transports can ask
	// PeerDown to tell "peer crashed" from "link partitioned".
	peerDown [2]bool

	// free recycles in-flight frame records (and their buffers, which
	// grow to the largest frame each has carried); arriveFn is the
	// delivery callback, bound once so scheduling a frame allocates
	// nothing.
	free     []*frame
	arriveFn func(any)

	stats LinkStats
}

// frame is one scheduled delivery.
type frame struct {
	to  int
	buf []byte
}

// LinkSideA and LinkSideB name the two endpoints of a Link.
const (
	LinkSideA = 0
	LinkSideB = 1
)

// LinkStats counts per-link message outcomes (both directions).
type LinkStats struct {
	// Sent counts Send calls.
	Sent uint64
	// Delivered counts messages handed to a receiver (duplicates count
	// each delivery).
	Delivered uint64
	// Lost counts messages dropped by the loss probability.
	Lost uint64
	// PartitionDrops counts messages dropped by a partition, at send or
	// arrival time.
	PartitionDrops uint64
	// Duplicated counts messages scheduled for a second delivery.
	Duplicated uint64
	// Reordered counts messages held back by the reorder delay.
	Reordered uint64
	// PeerDownDrops counts messages dropped because the destination
	// endpoint was marked dead (SetPeerDown), at send or arrival time.
	PeerDownDrops uint64
}

// NewLink creates a message link with the given one-way base delay and
// fault profile. The delay is clamped to at least 1ns: two events at
// the same instant would make delivery order depend on scheduling
// internals.
func NewLink(s *sim.Simulator, delay time.Duration, prof faults.LinkProfile, seed int64) *Link {
	if delay <= 0 {
		delay = time.Nanosecond
	}
	l := &Link{sim: s, delay: delay, prof: prof, rng: rand.New(rand.NewSource(seed))}
	l.arriveFn = func(arg any) { l.arrive(arg.(*frame)) }
	return l
}

// SetRecv installs the receive callback of one side. Messages sent from
// the opposite side are delivered to it; messages arriving at a side
// with no receiver are dropped silently (counted as delivered — the
// wire did its job). fn must not retain msg past its return.
func (l *Link) SetRecv(side int, fn func(msg []byte)) { l.recv[side] = fn }

// Profile returns the link's fault profile.
func (l *Link) Profile() faults.LinkProfile { return l.prof }

// SetProfile swaps the fault profile at runtime — the chaos harness's
// way of letting a prologue install over a clean wire before faults
// start (the message-channel analogue of faults.Injector.SetEnabled).
// Messages already scheduled keep their original delivery times; only
// future sends (and the partition check at their arrival) see the new
// profile.
func (l *Link) SetProfile(prof faults.LinkProfile) { l.prof = prof }

// Delay returns the one-way base delay.
func (l *Link) Delay() time.Duration { return l.delay }

// MaxDelay bounds how long after Send a copy of the message can still
// arrive (base delay plus the profile's jitter, reorder, and duplicate
// skew). Reliability layers that abandon an un-acked mutation must wait
// this long before assuming no stale copy remains in flight.
func (l *Link) MaxDelay() time.Duration { return l.delay + l.prof.MaxSkew() }

// SetPartitioned forces the link down (or back up) regardless of the
// profile's periodic windows — the test hook for explicit partition
// scenarios.
func (l *Link) SetPartitioned(down bool) { l.forced = down }

// Partitioned reports whether the link is cut right now (forced or
// periodic).
func (l *Link) Partitioned() bool {
	return l.forced || l.prof.Partitioned(l.sim.Now())
}

// SetPeerDown marks one side's endpoint dead or alive. While a side is
// down, messages destined for it are dropped (at send and at arrival,
// so in-flight messages die too) — the wire itself stays up, which is
// what distinguishes a crashed peer from a partition.
func (l *Link) SetPeerDown(side int, down bool) { l.peerDown[side] = down }

// PeerDown reports whether side's endpoint is marked dead.
func (l *Link) PeerDown(side int) bool { return l.peerDown[side] }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send transmits msg from one side toward the other. The message is
// copied at send time, so the caller may reuse its buffer; each
// delivery lends the receiver its own copy. Zero-length messages are
// legal and travel like any other.
func (l *Link) Send(from int, msg []byte) {
	l.stats.Sent++
	if l.peerDown[1-from] {
		l.stats.PeerDownDrops++
		return
	}
	if l.Partitioned() {
		l.stats.PartitionDrops++
		return
	}
	if l.prof.Loss > 0 && l.rng.Float64() < l.prof.Loss {
		l.stats.Lost++
		return
	}
	to := 1 - from
	d := l.delay
	if l.prof.Jitter > 0 {
		d += time.Duration(l.rng.Int63n(int64(l.prof.Jitter)))
	}
	if l.prof.Reorder > 0 && l.prof.ReorderDelay > 0 && l.rng.Float64() < l.prof.Reorder {
		l.stats.Reordered++
		d += time.Duration(l.rng.Int63n(int64(l.prof.ReorderDelay)))
	}
	l.schedule(d, to, msg)
	if l.prof.Dup > 0 && l.rng.Float64() < l.prof.Dup {
		l.stats.Duplicated++
		dd := d
		if l.prof.DupDelay > 0 {
			dd += time.Duration(l.rng.Int63n(int64(l.prof.DupDelay)))
		}
		l.schedule(dd, to, msg)
	}
}

// schedule copies msg into a recycled frame and queues its delivery.
func (l *Link) schedule(d time.Duration, to int, msg []byte) {
	var f *frame
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		f = new(frame)
	}
	f.to = to
	f.buf = append(f.buf[:0], msg...)
	l.sim.ScheduleCall(d, l.arriveFn, f)
}

// arrive completes one delivery attempt — a message landing inside a
// partition window dies with it — and takes the frame back.
func (l *Link) arrive(f *frame) {
	switch {
	case l.peerDown[f.to]:
		l.stats.PeerDownDrops++
	case l.Partitioned():
		l.stats.PartitionDrops++
	default:
		l.stats.Delivered++
		if fn := l.recv[f.to]; fn != nil {
			fn(f.buf)
		}
	}
	l.free = append(l.free, f)
}
