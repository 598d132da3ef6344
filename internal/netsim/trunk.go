package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Trunk is a point-to-point inter-switch link: it joins one egress port
// of switch A to one ingress port of switch B (and vice versa), so a
// packet routed out a trunk port is injected into the peer switch after
// the trunk's propagation delay. Trunks are what turn a set of
// single-switch Networks into a fabric.
//
// Serialization is already modeled by the sending switch's egress port
// (SetPortBandwidth), so a trunk adds only propagation delay plus its
// fault profile. Of faults.LinkProfile, a packet trunk honors Loss,
// Jitter, and partition windows; Dup and Reorder are message-channel
// faults and are ignored (switch egress already serializes packets in
// order, and wire duplication is not a failure mode the fabric
// experiments model).
//
// Only wire state crosses a trunk. A delivered packet is re-serialized
// into the receiving switch's schema: declared header fields carry
// over by position, while switch-local scratch (standard_metadata.*
// and compiler-synthesized p4r_meta_.* fields) is dropped and
// re-stamped by the receiver — exactly as a real wire would behave.
// ConnectTrunk therefore requires the two programs' wire headers to
// match (see WireCompatible) but tolerates differing scratch layouts,
// letting switches compiled from different P4R programs peer.
type Trunk struct {
	sim   *sim.Simulator
	delay time.Duration
	prof  faults.LinkProfile
	rng   *rand.Rand

	// admin is an administrative down — the "link pulled" failure mode,
	// distinct from a transient partition so drop accounting can tell
	// operator action from fault-profile behavior.
	admin bool
	// grayRate is the silent partial-drop probability of a gray link
	// (0 = healthy). It composes with the profile's Loss: a packet must
	// survive both draws to cross.
	grayRate float64

	ends  [2]trunkEnd
	stats [2]TrunkStats
	// wire[side] re-serializes packets sent from side into the peer
	// switch's schema; deliverFn[side] lands one at the peer, bound once
	// so a hop schedules no closure.
	wire      [2]wireXlat
	deliverFn [2]func(any)

	// Tap, if set, observes every delivered packet at its arrival
	// instant, just before injection into the receiving switch. from is
	// the sending side (0 or 1). Experiments use it to meter what a
	// trunk actually carries. Tap must not keep the packet.
	Tap func(from int, pkt *packet.Packet)
}

type trunkEnd struct {
	net  *Network
	port int
}

// TrunkStats counts one direction of a trunk, indexed by sending side.
type TrunkStats struct {
	Sent           uint64
	Delivered      uint64
	Lost           uint64
	PartitionDrops uint64
	// AdminDownDrops counts packets dropped while the trunk was
	// administratively down (SetAdminDown); GrayDrops those silently
	// eaten by a gray link (SetGray). Lost stays profile-loss only, so
	// the three drop reasons are separable in reports.
	AdminDownDrops uint64
	GrayDrops      uint64
}

// ConnectTrunk joins a's portA to b's portB over a bidirectional trunk
// with the given one-way propagation delay and fault profile. Both
// networks must share one simulator, and each endpoint port must not
// already hold a host or another trunk. The seed gives the trunk its
// own fault RNG so loss schedules are independent per link.
func ConnectTrunk(a *Network, portA int, b *Network, portB int, delay time.Duration, prof faults.LinkProfile, seed int64) (*Trunk, error) {
	if a.Sim != b.Sim {
		return nil, fmt.Errorf("netsim: trunk endpoints on different simulators")
	}
	for _, e := range []trunkEnd{{a, portA}, {b, portB}} {
		if e.net.hosts[e.port] != nil {
			return nil, fmt.Errorf("netsim: port %d already has a host", e.port)
		}
		if e.net.trunks[e.port] != nil {
			return nil, fmt.Errorf("netsim: port %d already has a trunk", e.port)
		}
	}
	sa, sb := a.Sw.Program().Schema, b.Sw.Program().Schema
	if err := WireCompatible(sa, sb); err != nil {
		return nil, err
	}
	t := &Trunk{
		sim:   a.Sim,
		delay: delay,
		prof:  prof,
		rng:   rand.New(rand.NewSource(seed)),
		ends:  [2]trunkEnd{{a, portA}, {b, portB}},
		wire:  [2]wireXlat{newWireXlat(sa, sb), newWireXlat(sb, sa)},
	}
	t.deliverFn[0] = func(arg any) { t.deliver(0, arg.(*packet.Packet)) }
	t.deliverFn[1] = func(arg any) { t.deliver(1, arg.(*packet.Packet)) }
	a.trunks[portA] = &trunkAttach{trunk: t, side: 0}
	b.trunks[portB] = &trunkAttach{trunk: t, side: 1}
	return t, nil
}

// trunkAttach records which side of a trunk a local port is.
type trunkAttach struct {
	trunk *Trunk
	side  int
}

// SetAdminDown takes the trunk administratively down (both directions)
// or brings it back up. Unlike a partition it is accounted as its own
// drop reason — the injected-failure counterpart of a partition.
func (t *Trunk) SetAdminDown(down bool) { t.admin = down }

// SetGray turns the trunk gray: every packet in either direction is
// silently dropped with probability rate, on top of (and independent
// of) the profile's Loss. A rate that is not above 0, NaN included,
// restores a healthy link; rate is clamped to [0, 1]. Gray drops draw
// from the trunk's own fault RNG, so schedules replay deterministically
// per (seed, rate) history.
func (t *Trunk) SetGray(rate float64) {
	if !(rate > 0) {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	t.grayRate = rate
}

// Stats returns the counters for the direction sending from side.
func (t *Trunk) Stats(side int) TrunkStats { return t.stats[side] }

// Inject transmits pkt from side as if the local switch had routed it
// out the trunk port — the hook for link-level probe traffic (BFD-style
// liveness heartbeats emitted by the port hardware rather than the
// forwarding pipeline). The packet must come from side's network
// (Network.NewPacket), and the trunk takes it over; it rides the same
// fault path as routed traffic, so probes see exactly the drops data
// packets would.
func (t *Trunk) Inject(side int, pkt *packet.Packet) { t.send(side, pkt) }

// send carries pkt from side toward its peer, applying the fault
// profile. Called from the sending switch's Tx path. Every drop is
// decided before a pool is touched, so the fault RNG's draws do not
// depend on packet recycling.
func (t *Trunk) send(side int, pkt *packet.Packet) {
	st := &t.stats[side]
	st.Sent++
	switch {
	case t.admin:
		st.AdminDownDrops++
	case t.prof.Partitioned(t.sim.Now()):
		st.PartitionDrops++
	case t.grayRate > 0 && t.rng.Float64() < t.grayRate:
		st.GrayDrops++
	case t.prof.Loss > 0 && t.rng.Float64() < t.prof.Loss:
		st.Lost++
	default:
		d := t.delay
		if t.prof.Jitter > 0 {
			d += time.Duration(t.rng.Int63n(int64(t.prof.Jitter)))
		}
		t.sim.ScheduleCall(d, t.deliverFn[side], pkt)
		return
	}
	t.ends[side].net.pool.Put(pkt)
}

// deliver lands a packet sent from side at the peer, as a copy of its
// wire state from the peer's pool; the original goes back to the sender's.
func (t *Trunk) deliver(side int, pkt *packet.Packet) {
	t.stats[side].Delivered++
	peer := t.ends[1-side]
	out := peer.net.NewPacket()
	t.wire[side].translate(pkt, out)
	t.ends[side].net.pool.Put(pkt)
	if t.Tap != nil {
		t.Tap(side, out)
	}
	peer.net.Sw.Inject(peer.port, out)
}

// ---- wire translation ----

// WireCompatible reports whether packets serialized by schema a can
// cross a trunk onto a switch using schema b: both must declare the
// same sequence of wire header fields (same names, same widths, same
// order — the on-the-wire layout). Switch-local scratch — fields under
// p4.StdMetadataPrefix or p4.MetadataPrefix — is excluded: it never
// crosses the wire and each switch re-stamps its own.
func WireCompatible(a, b *packet.Schema) error {
	wa, wb := wireFieldIDs(a), wireFieldIDs(b)
	if len(wa) != len(wb) {
		return fmt.Errorf("netsim: wire headers diverge: %d fields vs %d", len(wa), len(wb))
	}
	for i := range wa {
		an, bn := a.Name(wa[i]), b.Name(wb[i])
		aw, bw := a.Width(wa[i]), b.Width(wb[i])
		if an != bn || aw != bw {
			return fmt.Errorf("netsim: wire headers diverge at slot %d: %s:%d vs %s:%d", i, an, aw, bn, bw)
		}
	}
	return nil
}

// wireFieldIDs lists a schema's wire fields in declaration order.
func wireFieldIDs(s *packet.Schema) []packet.FieldID {
	var out []packet.FieldID
	for i := 0; i < s.NumFields(); i++ {
		id := packet.FieldID(i)
		name := s.Name(id)
		if strings.HasPrefix(name, p4.StdMetadataPrefix) || strings.HasPrefix(name, p4.MetadataPrefix) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// wireXlat re-serializes packets from one schema into another whose
// wire fields match (checked by WireCompatible at trunk setup).
type wireXlat struct {
	pairs [][2]packet.FieldID // src id → dst id, wire fields only
}

func newWireXlat(src, dst *packet.Schema) wireXlat {
	sa, da := wireFieldIDs(src), wireFieldIDs(dst)
	x := wireXlat{pairs: make([][2]packet.FieldID, len(sa))}
	for i := range sa {
		x.pairs[i] = [2]packet.FieldID{sa[i], da[i]}
	}
	return x
}

// translate fills out, a zeroed packet in the destination schema, with
// the receiving switch's view of pkt: the wire fields plus the
// simulator bookkeeping that models payload (Size, Priority, Payload).
// Scratch metadata stays zeroed and the receiver's ingress re-stamps
// it.
func (x wireXlat) translate(pkt, out *packet.Packet) {
	out.Size = pkt.Size
	out.Priority = pkt.Priority
	out.Payload = pkt.Payload
	for _, pr := range x.pairs {
		out.Set(pr[1], pkt.Get(pr[0]))
	}
}
