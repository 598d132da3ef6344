// Package check is the executable form of the paper's §5 isolation
// guarantee, checked at its two attachment points: the packets a switch
// forwards, and the op stream between a controller and the switch.
//
// Every lockstep program here writes t1's generation into hdr.o1 and
// t2's into hdr.o2, so a packet that saw one table before a commit and
// the other after it leaves the switch with o1 != o2. Audit counts those
// packets on a switch's egress. Tap is a driver.Channel interposer that
// numbers the ops passing it and lets a test fail, park, record or
// re-answer them; Rules, attached to a tap, checks every op against the
// snapshot rules (tap.go, rules.go). Both only observe: they never
// sleep, schedule or write the switch, so attaching them moves no
// virtual-time result.
//
// The package imports driver, compiler, rmt, packet and sim, never core,
// so core's in-package tests can use it. The prologue and reaction that
// drive a lockstep program are the caller's: they are core code.
package check

import (
	"fmt"
	"slices"

	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// TwoTableSrc is the lockstep program on its own: t1 and t2 keyed on
// hdr.k, writing hdr.o1 and hdr.o2, and an empty reaction "bump" that a
// native reaction replaces. Its traffic is TwoTableTraffic.
const TwoTableSrc = `
header_type h_t { fields { k : 8; o1 : 32; o2 : 32; } }
header h_t hdr;
malleable value dummy { width : 8; init : 0; }
action set1(v) { modify_field(hdr.o1, v); }
action set2(v) {
  modify_field(hdr.o2, v);
  modify_field(standard_metadata.egress_spec, 1);
}
malleable table t1 { reads { hdr.k : exact; } actions { set1; } size : 4; }
malleable table t2 { reads { hdr.k : exact; } actions { set2; } size : 4; }
reaction bump() { }
control ingress { apply(t1); apply(t2); }
`

// FaultSweepSrc is the lockstep program behind a polled register, so
// batched measurement reads are on the fault path too. Its reaction is
// "react" and its traffic FaultSweepTraffic.
const FaultSweepSrc = `
header_type h_t { fields { k : 8; o1 : 32; o2 : 32; port : 8; } }
header h_t hdr;
register qd { width : 32; instance_count : 8; }
action meas() { register_write(qd, hdr.port, standard_metadata.packet_length); }
action set1(v) { modify_field(hdr.o1, v); }
action set2(v) {
  modify_field(hdr.o2, v);
  modify_field(standard_metadata.egress_spec, 1);
}
table m { actions { meas; } default_action : meas; size : 1; }
malleable table t1 { reads { hdr.k : exact; } actions { set1; } size : 4; }
malleable table t2 { reads { hdr.k : exact; } actions { set2; } size : 4; }
reaction react(reg qd) { }
control ingress { apply(m); apply(t1); apply(t2); }
`

// TwoTableTraffic starts the audit traffic of TwoTableSrc on port 0 of
// sw: a 64-byte packet with hdr.k = 7 every 150 ns.
func TwoTableTraffic(s *sim.Simulator, sw *rmt.Switch) *sim.Ticker {
	schema := sw.Program().Schema
	k := schema.MustID("hdr.k")
	return s.Every(150*sim.Nanosecond, func() {
		pkt := schema.New()
		pkt.Size = 64
		pkt.Set(k, 7)
		sw.Inject(0, pkt)
	})
}

// FaultSweepTraffic starts the audit traffic of FaultSweepSrc on port 0
// of sw: a packet with hdr.k = 7 every 200 ns, its size cycling over 64,
// 164, …, 764 bytes and its measured hdr.port over 0..7.
func FaultSweepTraffic(s *sim.Simulator, sw *rmt.Switch) *sim.Ticker {
	schema := sw.Program().Schema
	k, port := schema.MustID("hdr.k"), schema.MustID("hdr.port")
	i := 0
	return s.Every(200*sim.Nanosecond, func() {
		pkt := schema.New()
		pkt.Size = 64 + (i%8)*100
		pkt.Set(k, 7)
		pkt.Set(port, uint64(i%8))
		sw.Inject(0, pkt)
		i++
	})
}

// Audit checks every packet a switch forwards against the one-version
// invariant: a packet sees all malleable tables at one configuration
// version, so it carries one generation in hdr.o1 and hdr.o2.
type Audit struct {
	// Packets counts forwarded packets and Violations those that saw
	// the two tables at different generations.
	Packets, Violations int

	o1, o2 packet.FieldID
	gens   map[uint64]bool
}

// Attach installs a new Audit as sw's Tx hook.
func Attach(sw *rmt.Switch) *Audit {
	schema := sw.Program().Schema
	a := &Audit{o1: schema.MustID("hdr.o1"), o2: schema.MustID("hdr.o2"), gens: make(map[uint64]bool)}
	sw.Tx = a.observe
	return a
}

func (a *Audit) observe(_ int, pkt *packet.Packet) {
	a.Packets++
	o1, o2 := pkt.Get(a.o1), pkt.Get(a.o2)
	a.gens[o1] = true
	if o1 != o2 {
		a.Violations++
		a.gens[o2] = true
	}
}

// Err reports a violation of the one-version invariant, or nil.
func (a *Audit) Err() error {
	if a.Violations == 0 {
		return nil
	}
	return fmt.Errorf("check: one-version invariant violated: %d of %d forwarded packets saw the malleable tables at different versions (hdr.o1 != hdr.o2)",
		a.Violations, a.Packets)
}

// Generations returns every generation a forwarded packet carried, in
// increasing order.
func (a *Audit) Generations() []uint64 {
	out := make([]uint64, 0, len(a.gens))
	for g := range a.gens {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}
