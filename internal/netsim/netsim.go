// Package netsim provides the network-level simulation around the
// switch model: hosts attached to switch ports over links with
// bandwidth and propagation delay, a compact TCP implementation (slow
// start, AIMD congestion avoidance, duplicate-ACK fast retransmit, RTO
// fallback), a constant-rate UDP flooder, and heartbeat generators.
//
// These stand in for the paper's testbed servers: Fig. 15's 250
// legitimate TCP senders plus a DPDK UDP blaster, and Fig. 16's
// heartbeat generators at T_s = 1 µs.
package netsim

import (
	"time"

	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// FieldMap names the schema fields netsim reads/writes on packets. The
// program under test defines these headers; netsim fills them.
type FieldMap struct {
	Src   string // e.g. "ipv4.srcAddr"
	Dst   string // e.g. "ipv4.dstAddr"
	Proto string // e.g. "ipv4.protocol"
	Seq   string // data sequence number
	Ack   string // cumulative ACK number
	IsAck string // 1 for ACK segments
	// ECN, if non-empty, is a 1-bit congestion-experienced field the
	// switch may set and the receiver echoes on ACKs (DCTCP-style).
	ECN string
}

// Protocol numbers used in traces.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Host is an endpoint attached to one switch port.
type Host struct {
	net  *Network
	Port int
	Addr uint32
	// Rx is invoked for every packet delivered to this host. The packet
	// goes back to the network's pool when Rx returns: Rx must not keep it.
	Rx func(pkt *packet.Packet)
	// linkBusyUntil paces the host's uplink.
	linkBusyUntil sim.Time
	// injectFn/rxFn carry a packet onto the switch and off to Rx; bound
	// once in AddHost so a hop schedules no closure.
	injectFn, rxFn func(any)
}

// Network wires hosts to a switch.
type Network struct {
	Sim *sim.Simulator
	Sw  *rmt.Switch
	// LinkBandwidth is the host uplink rate in bits per second.
	LinkBandwidth float64
	// Propagation is the one-way link delay.
	Propagation time.Duration

	hosts  map[int]*Host        // by port
	trunks map[int]*trunkAttach // by port
	stats  NetworkStats
	// pool holds the network's idle packets: hosts and trunk deliveries
	// draw from it, and each packet goes back where its life ends.
	pool *packet.Pool
}

// NetworkStats counts network-level drop events.
type NetworkStats struct {
	// DroppedNoPeer counts packets the switch transmitted out a port
	// with neither a host nor a trunk attached. Such packets are a
	// wiring or routing mistake; they are dropped and counted, never
	// silently lost.
	DroppedNoPeer uint64
}

// New wires a network around sw. It takes over sw.Tx and sw.Pool: a
// transmitted packet is delivered to the host on the egress port,
// carried over the trunk attached there to a peer switch, or — with
// neither — dropped and counted in Stats().DroppedNoPeer.
func New(s *sim.Simulator, sw *rmt.Switch, linkBW float64, prop time.Duration) *Network {
	n := &Network{
		Sim: s, Sw: sw, LinkBandwidth: linkBW, Propagation: prop,
		hosts:  make(map[int]*Host),
		trunks: make(map[int]*trunkAttach),
		pool:   packet.NewPool(sw.Program().Schema),
	}
	sw.Pool = n.pool
	sw.Tx = func(portN int, pkt *packet.Packet) {
		if h, ok := n.hosts[portN]; ok {
			if h.Rx != nil {
				s.ScheduleCall(prop, h.rxFn, pkt)
				return
			}
		} else if ta, ok := n.trunks[portN]; ok {
			ta.trunk.send(ta.side, pkt)
			return
		} else {
			n.stats.DroppedNoPeer++
		}
		n.pool.Put(pkt)
	}
	return n
}

// NewPacket returns a zeroed packet in the switch's schema from the
// network's pool; sending it hands it back to the network.
func (n *Network) NewPacket() *packet.Packet { return n.pool.Get() }

// Stats returns the network's drop counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// AddHost attaches a host to a switch port.
func (n *Network) AddHost(port int, addr uint32) *Host {
	h := &Host{net: n, Port: port, Addr: addr}
	h.injectFn = func(arg any) { n.Sw.Inject(h.Port, arg.(*packet.Packet)) }
	h.rxFn = func(arg any) {
		pkt := arg.(*packet.Packet)
		h.Rx(pkt)
		n.pool.Put(pkt)
	}
	n.hosts[port] = h
	return h
}

// Host returns the host on a port, or nil.
func (n *Network) Host(port int) *Host { return n.hosts[port] }

// Send transmits a packet from the host into the switch, modeling
// uplink serialization and propagation. Sends queue behind each other
// on the host's link.
func (h *Host) Send(pkt *packet.Packet) {
	now := h.net.Sim.Now()
	start := now
	if h.linkBusyUntil > start {
		start = h.linkBusyUntil
	}
	ser := time.Duration(float64(pkt.Size*8) / h.net.LinkBandwidth * float64(time.Second))
	if ser <= 0 {
		ser = time.Nanosecond
	}
	done := start.Add(ser)
	h.linkBusyUntil = done
	arrive := done.Add(h.net.Propagation)
	h.net.Sim.AtCall(arrive, h.injectFn, pkt)
}

// ---- UDP flooder ----

// Flooder blasts fixed-size UDP packets at a constant rate, the
// DPDK-blaster stand-in of Fig. 15.
type Flooder struct {
	host   *Host
	fm     FieldMap
	Dst    uint32
	Rate   float64 // bits per second
	Size   int
	ticker *sim.Ticker
	Sent   uint64
}

// NewFlooder creates a flooder on h targeting dst at rate bps.
func NewFlooder(h *Host, fm FieldMap, dst uint32, rate float64, size int) *Flooder {
	return &Flooder{host: h, fm: fm, Dst: dst, Rate: rate, Size: size}
}

// Start begins flooding at the configured rate.
func (f *Flooder) Start() {
	interval := time.Duration(float64(f.Size*8) / f.Rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	f.ticker = f.host.net.Sim.Every(interval, func() {
		pkt := f.host.net.NewPacket()
		pkt.Size = f.Size
		pkt.SetName(f.fm.Src, uint64(f.host.Addr))
		pkt.SetName(f.fm.Dst, uint64(f.Dst))
		pkt.SetName(f.fm.Proto, ProtoUDP)
		f.host.Send(pkt)
		f.Sent++
	})
}

// Stop halts the flood.
func (f *Flooder) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// ---- Heartbeats ----

// Heartbeater emits small, high-priority heartbeat packets every
// period — the gray-failure detector's signal source (§8.3.2).
type Heartbeater struct {
	host   *Host
	fm     FieldMap
	Dst    uint32
	Period time.Duration
	ticker *sim.Ticker
	Sent   uint64
	// Enabled gates emission; clearing it emulates a gray failure where
	// the link stays up but traffic silently dies.
	Enabled bool
}

// NewHeartbeater creates a heartbeat source on h.
func NewHeartbeater(h *Host, fm FieldMap, dst uint32, period time.Duration) *Heartbeater {
	return &Heartbeater{host: h, fm: fm, Dst: dst, Period: period, Enabled: true}
}

// Start begins emitting heartbeats.
func (hb *Heartbeater) Start() {
	hb.ticker = hb.host.net.Sim.Every(hb.Period, func() {
		if !hb.Enabled {
			return
		}
		pkt := hb.host.net.NewPacket()
		pkt.Size = 64
		pkt.Priority = 7
		pkt.SetName(hb.fm.Src, uint64(hb.host.Addr))
		pkt.SetName(hb.fm.Dst, uint64(hb.Dst))
		pkt.SetName(hb.fm.Proto, 0xFD) // heartbeat protocol tag
		hb.host.Send(pkt)
		hb.Sent++
	})
}
