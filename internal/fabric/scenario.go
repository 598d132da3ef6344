package fabric

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// This file instantiates use case #1 (Fig. 15 DoS mitigation) across
// the fabric, reusing the parameterized scenario pieces from
// internal/usecases rather than copy-pasting the single-switch body.
//
// Placement: the victim sits on leaf 0's last host port, benign TCP
// senders spread over every leaf's host ports, and the flood enters at
// a spine border port — modeling an attack arriving from outside the
// fabric through the aggregation layer, where no detection program
// runs. The victim leaf therefore detects the flood in transit via its
// malleables and blocks locally (protecting the victim host), but the
// attack keeps burning the spine→leaf trunk until the coordinator's
// escalation installs the upstream filter at the spines: the trunk
// arrival rate at the victim leaf is the metric that only network-wide
// reaction can improve.

// AttackerAddr is the flood source address — deliberately outside the
// HostAddr space, an address the fabric never routes back to.
const AttackerAddr = 0xBAD00001

// DosFabricConfig parameterizes the fabric-wide DoS scenario.
type DosFabricConfig struct {
	Fabric Config
}

// Fixed parameters of the scenario.
const (
	// dosSendersPerLeaf benign TCP senders run on every leaf.
	dosSendersPerLeaf = 4
	// dosBenignBps is the benign aggregate converging on the victim. It
	// is held at ANY fabric size: every leaf's senders funnel through
	// the victim leaf, and the detector attributes each total-byte delta
	// to the sampled sender, so a src's estimate tends toward its packet
	// share of the leaf's aggregate — push the aggregate near the
	// threshold and heavily sampled benign sources (the victim's own ACK
	// stream above all) get falsely blocked.
	dosBenignBps = 400e6
	// dosAttackBps is the flood rate; dosBottleneckBps the victim access
	// link.
	dosAttackBps     = 25e9
	dosBottleneckBps = 10e9
)

// dosPerSenderBps is the base benign rate on a fabric of the given
// size: leaf l's senders are paced at (1 + l/2) times it, so per-sender
// rates differ and the fabric-wide top-k has a real ranking to find. Σ
// over leaves of that scale is L + L(L-1)/4.
func dosPerSenderBps(leaves int) float64 {
	l := float64(leaves)
	return dosBenignBps / (dosSendersPerLeaf * (l + l*(l-1)/4))
}

// DosFabric is a built fabric running the DoS scenario.
type DosFabric struct {
	Sim *sim.Simulator
	F   *Fabric
	Cfg DosFabricConfig

	Victim *netsim.Host
	Flood  *netsim.Flooder
	// VictimAddr is the victim's fabric address; VictimLeaf its leaf.
	VictimAddr uint32
	VictimLeaf int

	// FloodStart is when the attacker began (set by Run).
	FloodStart sim.Time
	// AttackArrivals are the virtual times attack packets crossed a
	// spine→victim-leaf trunk — the pre-filter metric the escalation
	// is judged on.
	AttackArrivals []sim.Time
	// DeliveredBySrc is ground-truth delivered bytes per benign sender
	// address, for heavy-hitter accuracy checks.
	DeliveredBySrc map[uint64]uint64
}

// NewDosFabric builds the fabric and wires the scenario onto it.
func NewDosFabric(s *sim.Simulator, cfg DosFabricConfig) (*DosFabric, error) {
	f, err := Build(s, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	fc := f.Cfg // defaults resolved
	d := &DosFabric{
		Sim: s, F: f, Cfg: cfg,
		VictimLeaf:     0,
		VictimAddr:     HostAddr(0, fc.HostPorts-1),
		DeliveredBySrc: make(map[uint64]uint64),
	}

	schema := f.Leaves[0].Plan.Prog.Schema
	victimLeaf := f.Leaves[d.VictimLeaf]
	victimPort := fc.HostPorts - 1
	d.Victim = usecases.WireDosVictim(victimLeaf.Net, usecases.DosAddressing{
		VictimAddr: d.VictimAddr, VictimPort: victimPort,
	})
	victimLeaf.Sw.SetPortBandwidth(victimPort, dosBottleneckBps)

	// Benign senders: every leaf, host ports 0..HostPorts-2 (the last
	// port is reserved for the victim), rates scaled per leaf.
	perSender := dosPerSenderBps(fc.Leaves)
	for l, leaf := range f.Leaves {
		lCopy := l
		senderPorts := fc.HostPorts - 1
		ad := usecases.DosAddressing{
			VictimAddr: d.VictimAddr, VictimPort: victimPort,
			SenderAddr: func(i int) uint32 { return HostAddr(lCopy, i%senderPorts) },
			SenderPort: func(i int) int { return i % senderPorts },
		}
		rate := perSender * (1 + float64(l)/2)
		flows := usecases.WireDosSenders(leaf.Net, dosSendersPerLeaf, rate, ad, nil)
		for i, fl := range flows {
			src := uint64(ad.SenderAddr(i))
			fl.OnDeliver = func(at sim.Time, bytes int) {
				d.DeliveredBySrc[src] += uint64(bytes)
			}
		}
	}

	// The flood enters at spine 0's border port.
	d.Flood = usecases.WireDosAttacker(f.Spines[0].Net, dosAttackBps, usecases.DosAddressing{
		VictimAddr:   d.VictimAddr,
		AttackerAddr: AttackerAddr,
		AttackerPort: f.BorderPort(),
	})

	// Meter attack packets crossing any spine→victim-leaf trunk.
	srcField := schema.MustID(usecases.FM.Src)
	for _, tr := range f.Trunks[d.VictimLeaf] {
		tr.Tap = func(from int, pkt *packet.Packet) {
			if from == 1 && pkt.Get(srcField) == AttackerAddr {
				d.AttackArrivals = append(d.AttackArrivals, s.Now())
			}
		}
	}
	return d, nil
}

// Run drives the scenario: warmup, flood for tail, then drain and
// stop. Returns the first agent or coordinator error.
func (d *DosFabric) Run(warmup, tail time.Duration) error {
	d.F.Start()
	d.Sim.RunFor(warmup)
	d.FloodStart = d.Sim.Now()
	d.Flood.Start()
	d.Sim.RunFor(tail)
	d.Flood.Stop()
	d.F.Stop()
	d.Sim.RunFor(200 * time.Microsecond)
	if err := d.F.Err(); err != nil {
		return err
	}
	return d.F.Coord.Err()
}

// Escalation returns the attacker's escalation record, or nil if the
// fabric never detected it.
func (d *DosFabric) Escalation() *Escalation {
	return d.F.Coord.Escalation(AttackerAddr)
}

// AttackRate returns the attack arrival rate (packets/sec) at the
// victim leaf's trunks inside [from, to).
func (d *DosFabric) AttackRate(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, at := range d.AttackArrivals {
		if at >= from && at < to {
			n++
		}
	}
	return float64(n) / to.Sub(from).Seconds()
}

// Suppression compares the attack arrival rate during the unmitigated
// window [FloodStart, SpinesDoneAt) against the post-escalation window
// [SpinesDoneAt+slack, end) and returns the fractional drop (1 = fully
// suppressed). Returns an error if the escalation never completed at
// the spines.
func (d *DosFabric) Suppression(end sim.Time) (float64, error) {
	esc := d.Escalation()
	if esc == nil {
		return 0, fmt.Errorf("fabric: attacker %#x never escalated", uint64(AttackerAddr))
	}
	if esc.SpinesDoneAt == 0 {
		return 0, fmt.Errorf("fabric: spine filters never completed for %#x", uint64(AttackerAddr))
	}
	const slack = 20 * time.Microsecond
	before := d.AttackRate(d.FloodStart, esc.SpinesDoneAt)
	after := d.AttackRate(esc.SpinesDoneAt.Add(slack), end)
	if before <= 0 {
		return 0, fmt.Errorf("fabric: no attack traffic observed before escalation")
	}
	return 1 - after/before, nil
}
