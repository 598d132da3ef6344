package usecases

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// GrayP4R is use case #2's program: heartbeat packets (protocol 0xFD)
// are counted per ingress port and absorbed; routed traffic flows
// through a malleable route table that the reaction rewrites on
// detection.
const GrayP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

register hb_count { width : 32; instance_count : 32; }

action count_hb() {
  register_increment(hb_count, standard_metadata.ingress_port, 1);
  drop();
}
action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action drop_pkt() { drop(); }

table hb_tbl {
  reads { ipv4.protocol : exact; }
  actions { count_hb; }
  size : 2;
}
malleable table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}

reaction gray_react(reg hb_count) {
  // Implemented natively: threshold detection + route recomputation.
}

control ingress {
  apply(hb_tbl);
  apply(route);
}
`

// The single-switch Fig. 16 address plan: the neighbor on monitored-port
// index i sends heartbeats from grayNeighborBase+i to grayHeartbeatDst —
// an address the route table never resolves, so heartbeats die in the
// switch after being counted.
const (
	grayNeighborBase = 0x0A00FF00
	grayHeartbeatDst = 0xFFFFFFFF
)

// GrayConfig parameterizes the detector (§8.3.2).
type GrayConfig struct {
	// Ts is the heartbeat generation period at the neighbors.
	Ts time.Duration
	// Eta is the delivery expectation in [0,1]: the threshold is
	// delta = floor(eta * Td/Ts) where Td is the time since the last
	// dialogue.
	Eta float64
	// ConsecutiveStrikes is the number of consecutive below-threshold
	// windows required (paper: 2).
	ConsecutiveStrikes int
	// Monitored lists the ports carrying heartbeats.
	Monitored []int

	// Event, when set, is emitted via the agent's event sink at each
	// detection with Key = the failed port; ClearEvent likewise when a
	// failed port recovers. Unset (the Fig. 16 default) emits nothing.
	Event      string
	ClearEvent string
	// RecoverStrikes, when > 0, unlatches a failed port after that many
	// consecutive healthy windows: local routes move back to their
	// primaries and ClearEvent fires. 0 (the Fig. 16 default) latches
	// failures forever.
	RecoverStrikes int
	// HealEta is the delivery expectation a window must meet to count
	// toward recovery (default: Eta). Setting it above Eta gives the
	// latch hysteresis: a 30% gray link clears the detection threshold
	// often enough to flap a symmetric latch, but almost never clears a
	// near-full delivery bar, so heal evidence stays trustworthy.
	HealEta float64
	// SkipWindow, when set, is consulted once per dialogue; a true
	// return discards that window's evidence — counts roll forward, no
	// strike or heal is taken. The fabric wires it to "the agent's
	// control channel retransmitted or timed out since the last poll": a
	// degraded channel stretches the dialogue, and dedup-cached responses
	// carry counts executed long before the reply is processed, so the
	// count window and the time window no longer line up and the sample
	// says nothing about the link.
	SkipWindow func() bool
	// Sink, when set, is wired as the BuildGray agent's EventSink so
	// Event/ClearEvent emissions land somewhere observable.
	Sink func(core.Event)
}

// DefaultGrayConfig matches the paper's tests (T_s = 1 µs).
func DefaultGrayConfig(monitored []int) GrayConfig {
	return GrayConfig{Ts: time.Microsecond, Eta: 0.5, ConsecutiveStrikes: 2, Monitored: monitored}
}

// RouteSpec is one destination's primary/backup port pair the detector
// manages.
type RouteSpec struct {
	Dst     uint32
	Primary int
	Backup  int
}

// GrayDetector is the native reaction body of use case #2.
type GrayDetector struct {
	cfg    GrayConfig
	routes []RouteSpec

	lastCounts []uint64
	lastPoll   sim.Time
	strikes    map[int]int
	// seen gates striking: a port is only judged once it has delivered
	// at least one heartbeat, so a neighbor that has not come up yet
	// (fabric prologues finish at different times) is not declared
	// failed before it ever spoke.
	seen    map[int]bool
	heals   map[int]int
	handles map[uint32]core.UserHandle

	// FailedPorts maps detected ports to detection time.
	FailedPorts map[int]sim.Time
	// ReroutedAt is when replacement routes were staged (commit follows
	// within the same iteration).
	ReroutedAt sim.Time
	// RecoveredAt maps ports that healed (RecoverStrikes > 0) to the
	// recovery time of their most recent heal.
	RecoveredAt map[int]sim.Time
}

// NewGrayDetector builds the detector for the given managed routes.
func NewGrayDetector(cfg GrayConfig, routes []RouteSpec) *GrayDetector {
	return &GrayDetector{
		cfg: cfg, routes: routes,
		lastCounts:  make([]uint64, 32),
		strikes:     make(map[int]int),
		seen:        make(map[int]bool),
		heals:       make(map[int]int),
		handles:     make(map[uint32]core.UserHandle),
		FailedPorts: make(map[int]sim.Time),
		RecoveredAt: make(map[int]sim.Time),
	}
}

// InstallRoutes is the prologue hook: installs primary routes through
// the malleable table.
func (g *GrayDetector) InstallRoutes(p *sim.Proc, a *core.Agent) error {
	tbl, err := a.Table("route")
	if err != nil {
		return err
	}
	for _, r := range g.routes {
		h, err := tbl.AddEntry(p, core.UserEntry{
			Keys: []rmt.KeySpec{rmt.ExactKey(uint64(r.Dst))}, Action: "route_pkt", Data: []uint64{uint64(r.Primary)},
		})
		if err != nil {
			return err
		}
		g.handles[r.Dst] = h
	}
	return nil
}

// React is the reaction body (registered for "gray_react").
func (g *GrayDetector) React(ctx *core.Ctx) error {
	counts := ctx.Reg("hb_count")
	now := ctx.Now()
	if g.lastPoll == 0 {
		g.lastPoll = now
		copy(g.lastCounts, counts)
		return nil
	}
	td := now.Sub(g.lastPoll)
	g.lastPoll = now
	// delta = floor(eta * Td / Ts), the expected-heartbeat threshold.
	expected := uint64(g.cfg.Eta * float64(td) / float64(g.cfg.Ts))
	healEta := g.cfg.HealEta
	if healEta <= 0 {
		healEta = g.cfg.Eta
	}
	healExpected := uint64(healEta * float64(td) / float64(g.cfg.Ts))
	measurable := g.cfg.SkipWindow == nil || !g.cfg.SkipWindow()
	for _, port := range g.cfg.Monitored {
		got := counts[port] - g.lastCounts[port]
		g.lastCounts[port] = counts[port]
		if got > 0 {
			g.seen[port] = true
		}
		if !measurable {
			continue
		}
		if _, failed := g.FailedPorts[port]; failed {
			if g.cfg.RecoverStrikes <= 0 {
				continue
			}
			// Heal watch: enough consecutive healthy windows unlatch.
			if got >= healExpected && healExpected > 0 {
				g.heals[port]++
			} else {
				g.heals[port] = 0
			}
			if g.heals[port] < g.cfg.RecoverStrikes {
				continue
			}
			delete(g.FailedPorts, port)
			g.heals[port] = 0
			g.strikes[port] = 0
			g.RecoveredAt[port] = now
			if err := g.restore(ctx, port); err != nil {
				return err
			}
			if g.cfg.ClearEvent != "" {
				ctx.Emit(g.cfg.ClearEvent, uint64(port), got)
			}
			continue
		}
		if !g.seen[port] {
			continue
		}
		if got < expected {
			g.strikes[port]++
		} else {
			g.strikes[port] = 0
		}
		if g.strikes[port] < g.cfg.ConsecutiveStrikes {
			continue
		}
		g.FailedPorts[port] = now
		g.heals[port] = 0
		if err := g.reroute(ctx, port); err != nil {
			return err
		}
		if g.cfg.Event != "" {
			ctx.Emit(g.cfg.Event, uint64(port), got)
		}
	}
	return nil
}

// reroute recomputes routes away from a failed port: every destination
// whose primary is the failed port moves to its backup. With no managed
// routes (fabric leaves delegate rerouting to the coordinator) only the
// detection timestamp is taken.
func (g *GrayDetector) reroute(ctx *core.Ctx, failed int) error {
	if len(g.routes) == 0 {
		g.ReroutedAt = ctx.Now()
		return nil
	}
	tbl, err := ctx.Table("route")
	if err != nil {
		return err
	}
	for _, r := range g.routes {
		if r.Primary != failed {
			continue
		}
		if err := tbl.ModifyEntry(g.handles[r.Dst], "route_pkt", []uint64{uint64(r.Backup)}); err != nil {
			return fmt.Errorf("gray: reroute %#x: %w", r.Dst, err)
		}
	}
	g.ReroutedAt = ctx.Now()
	return nil
}

// restore moves destinations whose primary was the healed port back
// from their backups.
func (g *GrayDetector) restore(ctx *core.Ctx, healed int) error {
	if len(g.routes) == 0 {
		return nil
	}
	tbl, err := ctx.Table("route")
	if err != nil {
		return err
	}
	for _, r := range g.routes {
		if r.Primary != healed {
			continue
		}
		if err := tbl.ModifyEntry(g.handles[r.Dst], "route_pkt", []uint64{uint64(r.Primary)}); err != nil {
			return fmt.Errorf("gray: restore %#x: %w", r.Dst, err)
		}
	}
	return nil
}

// GrayRig is a ready-to-run use case #2 deployment.
type GrayRig struct {
	Sim      *sim.Simulator
	Sw       *rmt.Switch
	Drv      *driver.Driver
	Plan     *compiler.Plan
	Agent    *core.Agent
	Net      *netsim.Network
	Detector *GrayDetector
	// Heartbeaters by port.
	Heartbeaters map[int]*netsim.Heartbeater
}

// BuildGray compiles and wires use case #2: heartbeaters on the
// monitored ports, managed routes, and the detection reaction. td sets
// the dialogue pacing (the measurement window T_d).
func BuildGray(seed int64, cfg GrayConfig, routes []RouteSpec, td time.Duration) (*GrayRig, error) {
	plan, err := compiler.CompileSource(GrayP4R, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	det := NewGrayDetector(cfg, routes)
	agent := core.NewAgent(s, drv, plan, core.Options{
		Pacing:    td,
		EventSink: cfg.Sink,
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			// Heartbeats: protocol 0xFD hits hb_tbl.
			if _, err := drv.AddEntry(p, "hb_tbl", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(0xFD)}, Action: "count_hb",
			}); err != nil {
				return err
			}
			return det.InstallRoutes(p, a)
		},
	})
	if err := agent.RegisterNativeReaction("gray_react", det.React); err != nil {
		return nil, err
	}
	net := netsim.New(s, sw, 25e9, time.Microsecond)
	rig := &GrayRig{
		Sim: s, Sw: sw, Drv: drv, Plan: plan, Agent: agent, Net: net,
		Detector: det, Heartbeaters: make(map[int]*netsim.Heartbeater),
	}
	for i, port := range cfg.Monitored {
		h := net.AddHost(port, uint32(grayNeighborBase+i))
		hb := netsim.NewHeartbeater(h, FM, grayHeartbeatDst, cfg.Ts)
		rig.Heartbeaters[port] = hb
	}
	return rig, nil
}

// Fig16Result is one gray-failure experiment outcome.
type Fig16Result struct {
	// FailAt is when the heartbeat source went silent.
	FailAt sim.Time
	// ReroutedAt is when the reaction staged replacement routes.
	ReroutedAt sim.Time
	// ReactionTime = ReroutedAt - FailAt (the Fig. 16 y-axis).
	ReactionTime time.Duration
	// Detected reports whether the failure was caught at all.
	Detected bool
	// FalsePositives counts healthy ports declared failed.
	FalsePositives int
}

// RunFig16 runs one gray-failure detection experiment: heartbeaters on
// `ports`, a gray failure on failPort at failAt, dialogue period td,
// expectation eta.
func RunFig16(seed int64, ports []int, failPort int, failAt time.Duration, td time.Duration, eta float64) (*Fig16Result, error) {
	cfg := DefaultGrayConfig(ports)
	cfg.Eta = eta
	var routes []RouteSpec
	for i, p := range ports {
		routes = append(routes, RouteSpec{Dst: uint32(0xC0A80000 + i), Primary: p, Backup: 31})
	}
	rig, err := BuildGray(seed, cfg, routes, td)
	if err != nil {
		return nil, err
	}
	for _, hb := range rig.Heartbeaters {
		hb.Start()
	}
	rig.Agent.Start()
	rig.Sim.RunFor(failAt)
	res := &Fig16Result{FailAt: rig.Sim.Now()}
	rig.Heartbeaters[failPort].Enabled = false
	// Run long enough for detection at any plausible Td.
	rig.Sim.RunFor(20*td + 5*time.Millisecond)
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	if err := rig.Agent.Err(); err != nil {
		return nil, err
	}
	if _, ok := rig.Detector.FailedPorts[failPort]; ok {
		res.Detected = true
		res.ReroutedAt = rig.Detector.ReroutedAt
		res.ReactionTime = res.ReroutedAt.Sub(res.FailAt)
	}
	for p := range rig.Detector.FailedPorts {
		if p != failPort {
			res.FalsePositives++
		}
	}
	return res, nil
}
