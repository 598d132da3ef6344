package netsim

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TCPConfig tunes the compact TCP implementation.
type TCPConfig struct {
	// RTO is the retransmission timeout.
	RTO time.Duration
	// DCTCP enables ECN-reaction: the sender maintains the DCTCP alpha
	// estimate of the marked fraction and cuts cwnd by alpha/2 once per
	// window. Requires FieldMap.ECN.
	DCTCP bool
	// PacedRate, when positive, caps the flow's send rate (bits/s) —
	// an application-limited flow, used to model the Fig. 15 benign
	// senders that together hold the bottleneck at 20%.
	PacedRate float64
}

// Fixed TCP parameters.
const (
	tcpMSS         = 1500 // data segment size in bytes
	tcpAckSize     = 64   // ACK segment wire size
	tcpInitialCwnd = 10   // initial window in segments
	tcpMaxCwnd     = 256  // window cap in segments
	dctcpGain      = 1.0 / 16
)

// DefaultTCPConfig returns datacenter-ish parameters: in a network with
// ~10 µs RTTs an RTO of 1 ms plays the role of the real-world min-RTO.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{RTO: time.Millisecond}
}

// TCPFlow is a one-directional TCP-like flow between two hosts through
// the switch: slow start, AIMD congestion avoidance, NewReno-style
// fast retransmit/fast recovery with partial-ACK retransmission, and
// RTO fallback. Sequence numbers count segments, not bytes.
type TCPFlow struct {
	cfg    TCPConfig
	sender *Host
	fm     FieldMap
	dst    uint32

	nextSeq    uint64 // next new segment to send
	highestAck uint64 // all segments < highestAck are delivered
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	// NewReno recovery state: while inRecovery, partial ACKs below
	// recoverSeq trigger immediate hole retransmission.
	inRecovery   bool
	recoverSeq   uint64
	lastProgress sim.Time
	stopped      bool

	// DCTCP state
	dctcpAlpha   float64
	windowAcked  float64
	windowMarked float64
	// MarkedAcks counts ECN-echo ACKs observed (diagnostics).
	MarkedAcks uint64

	// pacing state
	nextSendAt  sim.Time
	pumpPending bool

	// resumeFn restarts a pacing-blocked pump; rtoFn fires the one pending
	// RTO timer, armed at rtoAsOf. Both are bound once, in NewTCPFlow.
	resumeFn, rtoFn func(any)
	rtoAsOf         sim.Time

	// receiver state
	rcvNext uint64          // next expected seq
	rcvBuf  map[uint64]bool // out-of-order segments

	// DeliveredBytes counts in-order data accepted by the receiver.
	DeliveredBytes uint64
	// Retransmits counts loss-recovery sends.
	Retransmits uint64
	// Timeouts counts RTO firings.
	Timeouts uint64
	// OnDeliver, if set, observes each in-order delivery.
	OnDeliver func(at sim.Time, bytes int)
}

// NewTCPFlow wires a flow from sender toward dst. Data packets carry
// the flow in Payload; endpoints dispatch via HandlePacket.
func NewTCPFlow(sender *Host, fm FieldMap, dst uint32, cfg TCPConfig) *TCPFlow {
	f := &TCPFlow{
		cfg: cfg, sender: sender, fm: fm, dst: dst,
		cwnd: tcpInitialCwnd, ssthresh: tcpMaxCwnd,
		rcvBuf: make(map[uint64]bool),
	}
	f.resumeFn = func(any) {
		f.pumpPending = false
		f.pump()
	}
	f.rtoFn = func(any) { f.checkRTO(f.rtoAsOf) }
	return f
}

// Start opens the flow and sends the initial window.
func (f *TCPFlow) Start() {
	f.lastProgress = f.sender.net.Sim.Now()
	f.armRTO()
	f.pump()
}

// Stop halts the flow (no new data).
func (f *TCPFlow) Stop() { f.stopped = true }

// outstanding is the un-ACKed segment count.
func (f *TCPFlow) outstanding() float64 { return float64(f.nextSeq - f.highestAck) }

func (f *TCPFlow) sendSegment(seq uint64, retx bool) {
	pkt := f.sender.net.NewPacket()
	pkt.Size = tcpMSS
	pkt.SetName(f.fm.Src, uint64(f.sender.Addr))
	pkt.SetName(f.fm.Dst, uint64(f.dst))
	pkt.SetName(f.fm.Proto, ProtoTCP)
	pkt.SetName(f.fm.Seq, seq)
	pkt.SetName(f.fm.IsAck, 0)
	pkt.Payload = f
	if retx {
		f.Retransmits++
	}
	f.sender.Send(pkt)
}

// pump sends new segments while the window (and pacing budget) allows.
func (f *TCPFlow) pump() {
	if f.stopped {
		return
	}
	if f.cfg.PacedRate <= 0 {
		for f.outstanding() < f.cwnd {
			f.sendSegment(f.nextSeq, false)
			f.nextSeq++
		}
		return
	}
	now := f.sender.net.Sim.Now()
	interval := time.Duration(float64(tcpMSS*8) / f.cfg.PacedRate * float64(time.Second))
	for f.outstanding() < f.cwnd {
		if f.nextSendAt > now {
			// Pacing-blocked with window open: resume at the token time.
			if !f.pumpPending {
				f.pumpPending = true
				f.sender.net.Sim.AtCall(f.nextSendAt, f.resumeFn, nil)
			}
			return
		}
		f.sendSegment(f.nextSeq, false)
		f.nextSeq++
		// Allow up to a small burst of accumulated credit so that late
		// pumps (ACK-clocked) do not permanently lose rate; without the
		// floor the paced rate decays over time.
		if floor := now.Add(-4 * interval); f.nextSendAt < floor {
			f.nextSendAt = floor
		}
		f.nextSendAt = f.nextSendAt.Add(interval)
	}
}

func (f *TCPFlow) armRTO() {
	f.rtoAsOf = f.lastProgress
	f.sender.net.Sim.ScheduleCall(f.cfg.RTO, f.rtoFn, nil)
}

func (f *TCPFlow) checkRTO(asOf sim.Time) {
	if f.stopped {
		return
	}
	if f.lastProgress > asOf || f.outstanding() == 0 {
		f.armRTO()
		return
	}
	// Timeout: collapse to slow start and retransmit the hole.
	f.Timeouts++
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = 1
	f.dupAcks = 0
	// Enter recovery so that partial ACKs retransmit subsequent holes at
	// RTT (not RTO) cadence — without this, a loss burst with many holes
	// would cost one RTO per hole.
	f.inRecovery = true
	f.recoverSeq = f.nextSeq
	f.lastProgress = f.sender.net.Sim.Now()
	f.sendSegment(f.highestAck, true)
	f.armRTO()
}

// HandlePacket processes a packet belonging to this flow at either
// endpoint: the receiving host for data, the sending host for ACKs.
func (f *TCPFlow) HandlePacket(pkt *packet.Packet, receiver *Host) {
	if pkt.GetName(f.fm.IsAck) == 1 {
		marked := f.fm.ECN != "" && pkt.GetName(f.fm.ECN) == 1
		f.onAck(pkt.GetName(f.fm.Ack), marked)
		return
	}
	f.onData(pkt, receiver)
}

func (f *TCPFlow) onData(pkt *packet.Packet, receiver *Host) {
	seq := pkt.GetName(f.fm.Seq)
	if seq == f.rcvNext {
		f.deliver(receiver)
		f.rcvNext++
		for f.rcvBuf[f.rcvNext] {
			delete(f.rcvBuf, f.rcvNext)
			f.deliver(receiver)
			f.rcvNext++
		}
	} else if seq > f.rcvNext {
		f.rcvBuf[seq] = true
	}
	// Cumulative ACK (a duplicate ACK when data arrived out of order).
	ack := receiver.net.NewPacket()
	ack.Size = tcpAckSize
	ack.SetName(f.fm.Src, uint64(f.dst))
	ack.SetName(f.fm.Dst, uint64(f.sender.Addr))
	ack.SetName(f.fm.Proto, ProtoTCP)
	ack.SetName(f.fm.IsAck, 1)
	ack.SetName(f.fm.Ack, f.rcvNext)
	if f.fm.ECN != "" {
		// Echo the congestion-experienced mark back to the sender.
		ack.SetName(f.fm.ECN, pkt.GetName(f.fm.ECN))
	}
	ack.Payload = f
	receiver.Send(ack)
}

func (f *TCPFlow) deliver(receiver *Host) {
	f.DeliveredBytes += uint64(tcpMSS)
	if f.OnDeliver != nil {
		f.OnDeliver(receiver.net.Sim.Now(), tcpMSS)
	}
}

func (f *TCPFlow) onAck(ack uint64, marked bool) {
	if f.stopped {
		return
	}
	if marked {
		f.MarkedAcks++
	}
	switch {
	case ack > f.highestAck:
		newly := float64(ack - f.highestAck)
		f.highestAck = ack
		f.lastProgress = f.sender.net.Sim.Now()
		if f.cfg.DCTCP {
			f.dctcpWindow(newly, marked)
		}
		if f.inRecovery {
			if ack < f.recoverSeq {
				// Partial ACK: another hole was lost; retransmit it now
				// (NewReno) without leaving recovery.
				f.sendSegment(f.highestAck, true)
				f.pump()
				return
			}
			f.inRecovery = false
			f.cwnd = f.ssthresh
		}
		f.dupAcks = 0
		if f.cwnd < f.ssthresh {
			f.cwnd += newly // slow start
		} else {
			f.cwnd += newly / f.cwnd // congestion avoidance
		}
		if f.cwnd > tcpMaxCwnd {
			f.cwnd = tcpMaxCwnd
		}
		f.pump()
	case ack == f.highestAck && f.outstanding() > 0:
		f.dupAcks++
		if f.dupAcks == 3 && !f.inRecovery {
			// Fast retransmit, enter recovery.
			f.ssthresh = f.cwnd / 2
			if f.ssthresh < 2 {
				f.ssthresh = 2
			}
			f.cwnd = f.ssthresh
			f.inRecovery = true
			f.recoverSeq = f.nextSeq
			f.lastProgress = f.sender.net.Sim.Now()
			f.sendSegment(f.highestAck, true)
		} else if f.inRecovery {
			// Window inflation keeps the pipe full during recovery.
			if f.cwnd < tcpMaxCwnd {
				f.cwnd++
			}
			f.pump()
		}
	}
}

// dctcpWindow accumulates per-window mark statistics and applies the
// DCTCP cut cwnd *= (1 - alpha/2) once per window of ACKed data.
func (f *TCPFlow) dctcpWindow(newly float64, marked bool) {
	f.windowAcked += newly
	if marked {
		f.windowMarked += newly
	}
	if f.windowAcked < f.cwnd {
		return
	}
	frac := f.windowMarked / f.windowAcked
	const g = dctcpGain // EWMA gain for alpha
	f.dctcpAlpha = (1-g)*f.dctcpAlpha + g*frac
	if frac > 0 {
		f.cwnd *= 1 - f.dctcpAlpha/2
		if f.cwnd < 2 {
			f.cwnd = 2
		}
		// A mark episode ends slow start, as in real DCTCP: growth past
		// this point is additive, so the alpha/2 cuts can hold the queue
		// at the marking threshold.
		if f.ssthresh > f.cwnd {
			f.ssthresh = f.cwnd
		}
	}
	f.windowAcked, f.windowMarked = 0, 0
}
