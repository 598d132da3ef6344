// Package usecases implements the four Table-1 applications of the
// paper as P4R programs plus reactions, together with the scenario
// runners that regenerate the corresponding evaluation figures:
//
//	#1 flow-size estimation and DoS mitigation  (Figs. 14, 15)
//	#2 gray-failure route recomputation          (Fig. 16)
//	#3 hash-polarization mitigation              (§8.3.3)
//	#4 reinforcement-learning ECN tuning         (§8.3.4)
package usecases

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FieldMap shared by all use-case programs.
var FM = netsim.FieldMap{
	Src: "ipv4.srcAddr", Dst: "ipv4.dstAddr", Proto: "ipv4.protocol",
	Seq: "tcp.seq", Ack: "tcp.ack", IsAck: "tcp.isAck", ECN: "ipv4.ecn",
}

// DosP4R is use case #1's program: per-sender statistics in the data
// plane (last source + total byte counter), a malleable blocklist for
// mitigation, and a plain routing table. The reaction attributes each
// poll's byte-counter growth to the sampled sender, estimates its rate
// as bytes·8/(now − first seen), and blocks it at 1 Gbps once it has been
// seen for 50 µs.
const DosP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

register total_bytes { width : 64; instance_count : 1; }

action allow() { no_op(); }
action drop_pkt() { drop(); }
action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action note() {
  register_increment(total_bytes, 0, standard_metadata.packet_length);
}

malleable table blocklist {
  reads { ipv4.srcAddr : exact; }
  actions { allow; drop_pkt; }
  default_action : allow;
  size : 256;
}
table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}
table counter_tbl {
  actions { note; }
  default_action : note;
  size : 1;
}

reaction dos_react(ing ipv4.srcAddr, reg total_bytes) {
  // Per-sender state, open-addressed by address, as large as the
  // blocklist: the sender (0 = free), when it was first seen, its byte
  // estimate, and whether it is blocked.
  static int sender[256];
  static int first[256];
  static int bytes[256];
  static int blocked[256];
  static int last_total = 0;
  int delta = total_bytes[0] - last_total;
  last_total = total_bytes[0];
  if (delta == 0 || ipv4_srcAddr == 0) return;
  int i = ipv4_srcAddr % 256;
  for (int n = 0; n < 256 && sender[i] != ipv4_srcAddr && sender[i] != 0; n++) i = (i + 1) % 256;
  if (sender[i] != ipv4_srcAddr) {
    if (sender[i] != 0) return; // table full: the sender goes unestimated
    sender[i] = ipv4_srcAddr;
    first[i] = now();
  }
  bytes[i] += delta;
  emit("hh.estimate", ipv4_srcAddr, bytes[i]);
  if (blocked[i]) return;
  // 1 Gbps is 1 bit/ns: rate >= threshold iff bytes*8 >= dur in ns.
  int dur = now() - first[i];
  if (dur < 50000 || bytes[i] * 8 < dur) return;
  blocklist.addEntry(ipv4_srcAddr, "drop_pkt");
  blocked[i] = 1;
  emit("dos.block", ipv4_srcAddr, bytes[i] * 8 / dur * 1000000000 + bytes[i] * 8 % dur * 1000000000 / dur);
}

control ingress {
  apply(blocklist);
  apply(route);
  apply(counter_tbl);
}
`

// Event kinds the use-case reactions export through
// core.Options.EventSink. A scenario runner reads its outcome from them,
// and a fabric coordinator subscribes to compose network-wide reactions
// out of per-switch decisions.
const (
	// EventDosBlock reports a committed local block: Key is the blocked
	// source address, Val its estimated rate in bits per second.
	EventDosBlock = "dos.block"
	// EventHHEstimate reports an updated per-sender byte estimate: Key
	// is the source address, Val the estimated byte total.
	EventHHEstimate = "hh.estimate"
	// EventGraySuspect reports a port latched as gray-failed (Key, with
	// Val the window's heartbeat count); EventGrayClear its heal.
	EventGraySuspect = "gray.suspect"
	EventGrayClear   = "gray.clear"
	// EventPolarWindow reports one window's imbalance: Key is the sum of
	// the doubled per-path deltas' distances from their doubled median,
	// Val the window's packet total, so MAD/mean = Key/(2·Val).
	EventPolarWindow = "polar.window"
	// EventPolarShift reports a hash-input shift to alternative Key.
	EventPolarShift = "polar.shift"
	// EventRLUpdate reports one Q-learning update: Key is the greedy
	// threshold for a 16-31 packet queue after it, Val the step's reward
	// as a two's-complement fixed-point value with 32 fractional bits.
	EventRLUpdate = "rl.update"
)

// DosAddressing places one instance of the DoS scenario onto a
// switch's ports: who the victim and attacker are and where the benign
// senders sit. Parameterizing this lets the same scenario definition
// be instantiated per-leaf in a fabric instead of copy-pasting the
// scenario body with different constants.
type DosAddressing struct {
	VictimAddr   uint32
	VictimPort   int
	AttackerAddr uint32
	AttackerPort int
	// SenderAddr/SenderPort place benign sender i.
	SenderAddr func(i int) uint32
	SenderPort func(i int) int
}

// DefaultDosAddressing is the single-switch Fig. 15 layout: victim on
// the last port, attacker beside it, senders spread over the rest.
func DefaultDosAddressing() DosAddressing {
	return DosAddressing{
		VictimAddr: 0xD0000001, VictimPort: 31,
		AttackerAddr: 0xBAD00001, AttackerPort: 30,
		SenderAddr: func(i int) uint32 { return uint32(0x0A000001 + i) },
		SenderPort: func(i int) int { return 1 + i%29 },
	}
}

// Routes returns the destination→egress-port map for this addressing:
// the victim's port plus the ACK return path of each benign sender.
func (ad DosAddressing) Routes(senders int) map[uint32]int {
	routes := map[uint32]int{ad.VictimAddr: ad.VictimPort}
	for i := 0; i < senders; i++ {
		routes[ad.SenderAddr(i)] = ad.SenderPort(i)
	}
	return routes
}

// DosConfig tunes DosDetector.
type DosConfig struct {
	// ThresholdBps blocks senders whose estimated rate exceeds this.
	ThresholdBps float64
	// MinDuration guards against spurious detection of new flows.
	MinDuration time.Duration
}

// DosDetector is use case #1's reaction written in Go. It keeps a hash
// table of senders, attributes the marginal byte-count increase to the
// sampled sender, estimates rates as (f_t - f_t0)/(t - t0), and installs
// a blocklist entry once a sender exceeds the threshold. The scenarios
// that block run DosP4R's body; this one serves the switches that must
// estimate without ever blocking, whose callers park the threshold far
// above their traffic (the reroute fabric's leaves, the repository
// benchmark's trace), and the tests that hold the body to it.
type DosDetector struct {
	cfg DosConfig

	lastTotal uint64
	senders   map[uint64]*senderState
	// staged is the sender whose block the previous run staged (0: none).
	staged uint64
}

type senderState struct {
	firstSeen sim.Time
	bytes     uint64
	blocked   bool
}

// NewDosDetector builds the detector.
func NewDosDetector(cfg DosConfig) *DosDetector {
	return &DosDetector{cfg: cfg, senders: make(map[uint64]*senderState)}
}

// Observe folds one poll (the sampled sender, the byte counter) into the
// per-sender state. It returns src's byte estimate, 0 when the poll
// attributes nothing, and block with src's rate in bits per second when
// src crosses the threshold for the first time.
func (d *DosDetector) Observe(now sim.Time, src, total uint64) (est, rate uint64, block bool) {
	delta := total - d.lastTotal
	d.lastTotal = total
	if delta == 0 || src == 0 {
		return 0, 0, false
	}
	st := d.senders[src]
	if st == nil {
		st = &senderState{firstSeen: now}
		d.senders[src] = st
	}
	st.bytes += delta
	if st.blocked {
		return st.bytes, 0, false
	}
	dur := now.Sub(st.firstSeen)
	if dur < d.cfg.MinDuration {
		return st.bytes, 0, false
	}
	r := float64(st.bytes*8) / dur.Seconds()
	if r < d.cfg.ThresholdBps {
		return st.bytes, 0, false
	}
	st.blocked = true
	return st.bytes, uint64(r), true
}

// React is the reaction body (registered for "dos_react").
func (d *DosDetector) React(ctx *core.Ctx) error {
	if ctx.Abandoned() && d.staged != 0 {
		d.senders[d.staged].blocked = false // that block never committed
	}
	d.staged = 0
	src := ctx.Field("ipv4.srcAddr")
	est, rate, block := d.Observe(ctx.Now(), src, ctx.Reg("total_bytes")[0])
	if est == 0 {
		return nil
	}
	ctx.Emit(EventHHEstimate, src, est)
	if !block {
		return nil
	}
	tbl, err := ctx.Table("blocklist")
	if err != nil {
		return err
	}
	if _, err := tbl.AddEntry(core.UserEntry{
		Keys: []rmt.KeySpec{rmt.ExactKey(src)}, Action: "drop_pkt",
	}); err != nil {
		d.senders[src].blocked = false // a later poll tries again
		return fmt.Errorf("dos: blocking %#x: %w", src, err)
	}
	d.staged = src
	ctx.Emit(EventDosBlock, src, rate)
	return nil
}

// dosRxDispatch makes a host deliver TCP segments to their flow.
func dosRxDispatch(h *netsim.Host) {
	h.Rx = func(pkt *packet.Packet) {
		if f, ok := pkt.Payload.(*netsim.TCPFlow); ok {
			f.HandlePacket(pkt, h)
		}
	}
}

// WireDosVictim attaches the scenario's victim host to net.
func WireDosVictim(net *netsim.Network, ad DosAddressing) *netsim.Host {
	v := net.AddHost(ad.VictimPort, ad.VictimAddr)
	dosRxDispatch(v)
	return v
}

// WireDosSenders attaches senders paced benign TCP flows to net per
// the addressing, all targeting the victim, with starts staggered so
// the paced senders do not phase-lock. onDeliver observes every byte
// the victim acknowledges (the goodput series).
func WireDosSenders(net *netsim.Network, senders int, perSenderBps float64, ad DosAddressing, onDeliver func(at sim.Time, bytes int)) []*netsim.TCPFlow {
	tcpCfg := netsim.DefaultTCPConfig()
	tcpCfg.PacedRate = perSenderBps
	tcpCfg.RTO = 500 * time.Microsecond
	var flows []*netsim.TCPFlow
	for i := 0; i < senders; i++ {
		h := net.Host(ad.SenderPort(i))
		if h == nil {
			h = net.AddHost(ad.SenderPort(i), ad.SenderAddr(i))
			dosRxDispatch(h)
		}
		flow := netsim.NewTCPFlow(h, FM, ad.VictimAddr, tcpCfg)
		flow.OnDeliver = onDeliver
		flows = append(flows, flow)
		f := flow
		net.Sim.Schedule(time.Duration(i)*7*time.Microsecond, f.Start)
	}
	return flows
}

// WireDosAttacker attaches the attacker host and its flooder (not yet
// started) to net per the addressing.
func WireDosAttacker(net *netsim.Network, attackBps float64, ad DosAddressing) *netsim.Flooder {
	attacker := net.AddHost(ad.AttackerPort, ad.AttackerAddr)
	return netsim.NewFlooder(attacker, FM, ad.VictimAddr, attackBps, 1500)
}

// DosRig is a ready-to-run use case #1 deployment.
type DosRig struct {
	Sim   *sim.Simulator
	Sw    *rmt.Switch
	Drv   *driver.Driver
	Plan  *compiler.Plan
	Agent *core.Agent
	Net   *netsim.Network
	// Events is every event the reaction emitted, in order.
	Events []core.Event
}

// BuildDos compiles and wires use case #1 on a fresh simulator. routes
// maps destination addresses to egress ports (installed in prologue).
func BuildDos(seed int64, routes map[uint32]int) (*DosRig, error) {
	plan, err := compiler.CompileSource(DosP4R, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	rig := &DosRig{Sim: s, Sw: sw, Drv: drv, Plan: plan}
	rig.Agent = core.NewAgent(s, drv, plan, core.Options{
		EventSink: func(ev core.Event) { rig.Events = append(rig.Events, ev) },
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			// Ascending address order, so entry handles repeat from run to run.
			dsts := make([]uint32, 0, len(routes))
			for dst := range routes {
				dsts = append(dsts, dst)
			}
			slices.Sort(dsts)
			for _, dst := range dsts {
				if _, err := drv.AddEntry(p, "route", rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(uint64(dst))}, Action: "route_pkt", Data: []uint64{uint64(routes[dst])},
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	rig.Net = netsim.New(s, sw, 25e9, time.Microsecond)
	return rig, nil
}

// Fig15Result holds the DoS-mitigation timeline of Figure 15.
type Fig15Result struct {
	// Goodput is the benign aggregate goodput time series.
	Goodput stats.TimeSeries
	// FloodStart is when the attacker began.
	FloodStart sim.Time
	// BlockedAt is when the mitigation entry committed (zero if never).
	BlockedAt sim.Time
	// DetectionLatency = BlockedAt - FloodStart.
	DetectionLatency time.Duration
	// PreGbps/FloodGbps/PostGbps are mean benign goodputs in the three
	// phases (before flood, during unmitigated flood, after recovery).
	PreGbps   float64
	FloodGbps float64
	PostGbps  float64
}

// Fig15Config scales the scenario.
type Fig15Config struct {
	// AttackBps is the flood rate (paper: 25 Gbps).
	AttackBps float64
	// Tail is the run length after the flood starts.
	Tail time.Duration
}

// The paper's setup scaled to one switch.
const (
	// fig15Senders benign TCP senders (paper: 250, scaled here to the
	// port count), each paced at fig15PerSenderBps: 25 x 80 Mbps = 2 Gbps
	// = 20% of the fig15BottleneckBps victim link (paper: 10 Gbps).
	fig15Senders       = 25
	fig15PerSenderBps  = 80e6
	fig15BottleneckBps = 10e9
	// fig15Warmup runs before the flood starts.
	fig15Warmup = 2 * time.Millisecond
)

// DefaultFig15Config mirrors the paper's setup.
func DefaultFig15Config() Fig15Config {
	return Fig15Config{AttackBps: 25e9, Tail: 3 * time.Millisecond}
}

// RunFig15 runs the DoS mitigation scenario and returns the timeline.
func RunFig15(cfg Fig15Config, seed int64) (*Fig15Result, error) {
	rig, err := BuildDos(seed, DefaultDosAddressing().Routes(fig15Senders))
	if err != nil {
		return nil, err
	}
	return rig.RunFig15(cfg)
}

// RunFig15 drives a rig built for Fig. 15 (BuildDos with the default
// addressing's routes for its 25 senders) through the scenario.
func (rig *DosRig) RunFig15(cfg Fig15Config) (*Fig15Result, error) {
	ad := DefaultDosAddressing()
	rig.Sw.SetPortBandwidth(ad.VictimPort, fig15BottleneckBps)

	res := &Fig15Result{}
	WireDosVictim(rig.Net, ad)
	WireDosSenders(rig.Net, fig15Senders, fig15PerSenderBps, ad, func(at sim.Time, bytes int) {
		res.Goodput.Add(at.Duration(), float64(bytes))
	})
	flood := WireDosAttacker(rig.Net, cfg.AttackBps, ad)

	rig.Agent.Start()
	rig.Sim.RunFor(fig15Warmup)
	res.FloodStart = rig.Sim.Now()
	flood.Start()
	rig.Sim.RunFor(cfg.Tail)
	flood.Stop()
	rig.Agent.Stop()
	rig.Sim.RunFor(100 * time.Microsecond)
	if err := rig.Agent.Err(); err != nil {
		return nil, err
	}

	for _, ev := range rig.Events {
		if ev.Kind == EventDosBlock && ev.Key == uint64(ad.AttackerAddr) {
			res.BlockedAt = ev.At
			res.DetectionLatency = ev.At.Sub(res.FloodStart)
		}
	}
	res.PreGbps = goodputGbps(&res.Goodput, 0, res.FloodStart.Duration())
	if res.BlockedAt > 0 {
		res.FloodGbps = goodputGbps(&res.Goodput, res.FloodStart.Duration(), res.BlockedAt.Duration())
		recoverFrom := res.BlockedAt.Duration() + 500*time.Microsecond
		res.PostGbps = goodputGbps(&res.Goodput, recoverFrom, rig.Sim.Now().Duration())
	}
	return res, nil
}

func goodputGbps(ts *stats.TimeSeries, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var bytes float64
	for i, t := range ts.T {
		if t >= from && t < to {
			bytes += ts.V[i]
		}
	}
	return bytes * 8 / (to - from).Seconds() / 1e9
}
