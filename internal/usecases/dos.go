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
// mitigation, and a plain routing table. The reaction body is native.
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
  // Implemented natively: per-sender rate estimation + blocking.
}

control ingress {
  apply(blocklist);
  apply(route);
  apply(counter_tbl);
}
`

// Event kinds the DoS detector exports through core.Options.EventSink.
// A fabric coordinator subscribes to these to compose network-wide
// reactions out of per-switch decisions.
const (
	// EventDosBlock reports a committed local block: Key is the blocked
	// source address, Val its estimated rate in bits per second.
	EventDosBlock = "dos.block"
	// EventHHEstimate reports an updated per-sender byte estimate: Key
	// is the source address, Val the estimated byte total.
	EventHHEstimate = "hh.estimate"
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

// DosConfig tunes the detector.
type DosConfig struct {
	// ThresholdBps blocks senders whose estimated rate exceeds this.
	ThresholdBps float64
	// MinDuration guards against spurious detection of new flows.
	MinDuration time.Duration
}

// DefaultDosConfig uses the paper's 1 Gbps threshold.
func DefaultDosConfig() DosConfig {
	return DosConfig{ThresholdBps: 1e9, MinDuration: 50 * time.Microsecond}
}

// DosDetector is the native reaction body of use case #1: it keeps a
// hash table of senders, attributes the marginal byte-count increase to
// the sampled sender, estimates rates as (f_t - f_t0)/(t - t0), and
// installs a blocklist entry once a sender exceeds the threshold.
type DosDetector struct {
	cfg DosConfig

	lastTotal uint64
	senders   map[uint64]*senderState
	// Blocked maps blocked senders to the block-committed time.
	Blocked map[uint64]sim.Time
	// Estimates exposes the current per-sender byte estimates.
	Estimates map[uint64]uint64
}

type senderState struct {
	firstSeen sim.Time
	bytes     uint64
	blocked   bool
}

// NewDosDetector builds the detector.
func NewDosDetector(cfg DosConfig) *DosDetector {
	return &DosDetector{
		cfg:       cfg,
		senders:   make(map[uint64]*senderState),
		Blocked:   make(map[uint64]sim.Time),
		Estimates: make(map[uint64]uint64),
	}
}

// React is the reaction body (registered for "dos_react").
func (d *DosDetector) React(ctx *core.Ctx) error {
	src := ctx.Field("ipv4.srcAddr")
	total := ctx.Reg("total_bytes")[0]
	delta := total - d.lastTotal
	d.lastTotal = total
	if delta == 0 || src == 0 {
		return nil
	}
	st := d.senders[src]
	if st == nil {
		st = &senderState{firstSeen: ctx.Now()}
		d.senders[src] = st
	}
	st.bytes += delta
	d.Estimates[src] = st.bytes
	ctx.Emit(EventHHEstimate, src, st.bytes)
	if st.blocked {
		return nil
	}
	dur := ctx.Now().Sub(st.firstSeen)
	if dur < d.cfg.MinDuration {
		return nil
	}
	rate := float64(st.bytes*8) / dur.Seconds()
	if rate < d.cfg.ThresholdBps {
		return nil
	}
	tbl, err := ctx.Table("blocklist")
	if err != nil {
		return err
	}
	if _, err := tbl.AddEntry(core.UserEntry{
		Keys: []rmt.KeySpec{rmt.ExactKey(src)}, Action: "drop_pkt",
	}); err != nil {
		return fmt.Errorf("dos: blocking %#x: %w", src, err)
	}
	st.blocked = true
	d.Blocked[src] = ctx.Now()
	ctx.Emit(EventDosBlock, src, uint64(rate))
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
	Sim      *sim.Simulator
	Sw       *rmt.Switch
	Drv      *driver.Driver
	Plan     *compiler.Plan
	Agent    *core.Agent
	Net      *netsim.Network
	Detector *DosDetector
}

// BuildDos compiles and wires use case #1 on a fresh simulator. routes
// maps destination addresses to egress ports (installed in prologue).
func BuildDos(seed int64, cfg DosConfig, routes map[uint32]int) (*DosRig, error) {
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
	det := NewDosDetector(cfg)
	agent := core.NewAgent(s, drv, plan, core.Options{
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
	if err := agent.RegisterNativeReaction("dos_react", det.React); err != nil {
		return nil, err
	}
	net := netsim.New(s, sw, 25e9, time.Microsecond)
	return &DosRig{Sim: s, Sw: sw, Drv: drv, Plan: plan, Agent: agent, Net: net, Detector: det}, nil
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
	ad := DefaultDosAddressing()
	rig, err := BuildDos(seed, DefaultDosConfig(), ad.Routes(fig15Senders))
	if err != nil {
		return nil, err
	}
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

	if at, ok := rig.Detector.Blocked[uint64(ad.AttackerAddr)]; ok {
		res.BlockedAt = at
		res.DetectionLatency = at.Sub(res.FloodStart)
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
