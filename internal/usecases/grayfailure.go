package usecases

import (
	"fmt"
	"math"
	"strings"
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
// detection. The reaction is Fig. 16's detector: a window of T_d that
// delivers fewer than delta = floor(eta·T_d/T_s) heartbeats on a port
// strikes it, two consecutive strikes latch it failed, and its route
// moves to the backup port.
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
  // Neighbors on ports 2-5 send a heartbeat every T_s = 1 us. The
  // prologue installs one route per port, in port order, so port p
  // routes through entry p - 1; every backup is port 31.
  int eta_pct = 50;
  static int last_poll = 0;
  static int last[32];
  static int seen[32];
  static int strikes[32];
  static int failed[32];
  int t = now();
  if (last_poll == 0) {
    last_poll = t;
    for (int p = 2; p <= 5; p++) last[p] = hb_count[p];
    return;
  }
  int expected = eta_pct * (t - last_poll) / (100 * 1000);
  last_poll = t;
  for (int p = 2; p <= 5; p++) {
    int got = hb_count[p] - last[p];
    last[p] = hb_count[p];
    // A port is judged once it has delivered a heartbeat at all.
    if (got > 0) seen[p] = 1;
    if (failed[p] || !seen[p]) continue;
    if (got < expected) strikes[p]++;
    else strikes[p] = 0;
    if (strikes[p] < 2) continue;
    failed[p] = 1;
    route.modEntry(p - 1, "route_pkt", 31);
    emit("gray.suspect", p, got);
  }
}

control ingress {
  apply(hb_tbl);
  apply(route);
}
`

// grayP4R is GrayP4R with the delivery expectation eta (Fig. 16b's
// sweep) in place of its 50%, the way a C reaction takes a -D constant.
func grayP4R(eta float64) string {
	return strings.Replace(GrayP4R, "int eta_pct = 50;", fmt.Sprintf("int eta_pct = %d;", int(math.Round(eta*100))), 1)
}

// The single-switch Fig. 16 plan: neighbors on grayPorts (the body's
// ports 2-5) send heartbeats every grayTs; the neighbor on port index i
// sends from grayNeighborBase+i to grayHeartbeatDst — an address the
// route table never resolves, so heartbeats die in the switch after
// being counted — and destination grayRouteBase+i is routed out of
// port index i.
var grayPorts = [...]int{2, 3, 4, 5}

const (
	grayTs           = time.Microsecond
	grayNeighborBase = 0x0A00FF00
	grayHeartbeatDst = 0xFFFFFFFF
	grayRouteBase    = 0xC0A80000
)

// GrayRig is a ready-to-run use case #2 deployment.
type GrayRig struct {
	Sim   *sim.Simulator
	Sw    *rmt.Switch
	Drv   *driver.Driver
	Plan  *compiler.Plan
	Agent *core.Agent
	Net   *netsim.Network
	// Heartbeaters by port.
	Heartbeaters map[int]*netsim.Heartbeater
	// Events is every event the reaction emitted, in order.
	Events []core.Event

	td time.Duration
}

// BuildGray compiles and wires use case #2: heartbeaters on the
// monitored ports, one managed route per port, and the detection
// reaction with delivery expectation eta. td sets the dialogue pacing
// (the measurement window T_d).
func BuildGray(seed int64, td time.Duration, eta float64) (*GrayRig, error) {
	plan, err := compiler.CompileSource(grayP4R(eta), compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	rig := &GrayRig{Sim: s, Sw: sw, Drv: drv, Plan: plan, Heartbeaters: make(map[int]*netsim.Heartbeater), td: td}
	rig.Agent = core.NewAgent(s, drv, plan, core.Options{
		Pacing:    td,
		EventSink: func(ev core.Event) { rig.Events = append(rig.Events, ev) },
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			// Heartbeats: protocol 0xFD hits hb_tbl.
			if _, err := drv.AddEntry(p, "hb_tbl", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(0xFD)}, Action: "count_hb",
			}); err != nil {
				return err
			}
			tbl, err := a.Table("route")
			if err != nil {
				return err
			}
			for i, port := range grayPorts {
				if _, err := tbl.AddEntry(p, core.UserEntry{
					Keys: []rmt.KeySpec{rmt.ExactKey(uint64(grayRouteBase + i))}, Action: "route_pkt", Data: []uint64{uint64(port)},
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	rig.Net = netsim.New(s, sw, 25e9, time.Microsecond)
	for i, port := range grayPorts {
		h := rig.Net.AddHost(port, uint32(grayNeighborBase+i))
		rig.Heartbeaters[port] = netsim.NewHeartbeater(h, FM, grayHeartbeatDst, grayTs)
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
// ports 2-5, a gray failure on failPort at failAt, dialogue period td,
// expectation eta.
func RunFig16(seed int64, failPort int, failAt time.Duration, td time.Duration, eta float64) (*Fig16Result, error) {
	rig, err := BuildGray(seed, td, eta)
	if err != nil {
		return nil, err
	}
	return rig.RunFig16(failPort, failAt)
}

// RunFig16 drives the rig through one Fig. 16 experiment.
func (rig *GrayRig) RunFig16(failPort int, failAt time.Duration) (*Fig16Result, error) {
	for _, hb := range rig.Heartbeaters {
		hb.Start()
	}
	rig.Agent.Start()
	rig.Sim.RunFor(failAt)
	res := &Fig16Result{FailAt: rig.Sim.Now()}
	rig.Heartbeaters[failPort].Enabled = false
	// Run long enough for detection at any plausible Td.
	rig.Sim.RunFor(20*rig.td + 5*time.Millisecond)
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	if err := rig.Agent.Err(); err != nil {
		return nil, err
	}
	// A reroute is staged right before its suspect event; the last one
	// is the reaction's.
	for _, ev := range rig.Events {
		if ev.Kind != EventGraySuspect {
			continue
		}
		res.ReroutedAt = ev.At
		if int(ev.Key) == failPort {
			res.Detected = true
		} else {
			res.FalsePositives++
		}
	}
	if res.Detected {
		res.ReactionTime = res.ReroutedAt.Sub(res.FailAt)
	} else {
		res.ReroutedAt = 0
	}
	return res, nil
}
