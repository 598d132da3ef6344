package usecases

import (
	"fmt"
	"strings"
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

// RLECNP4R is use case #4's program: the DCTCP ECN marking threshold
// is a malleable value compared against queue depth in the egress
// pipeline; queue depth and a byte counter are polled as the RL state.
// The reaction learns the threshold with ε-greedy Q-learning, whose
// reward combines link utilization with a queue penalty ("the sum of the
// utilization ... with the inverse of queue length"), all in integers.
const RLECNP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

register q_sample { width : 32; instance_count : 1; }
register tx_bytes { width : 64; instance_count : 1; }

malleable value ecn_thresh { width : 16; init : 64; }

action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action drop_pkt() { drop(); }
action mark_ecn() {
  modify_field(ipv4.ecn, 1);
}
action sample_q() {
  register_write(q_sample, 0, standard_metadata.enq_qdepth);
  register_increment(tx_bytes, 0, standard_metadata.packet_length);
}

table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}
table marker {
  actions { mark_ecn; }
  default_action : mark_ecn;
  size : 1;
}
table sampler {
  actions { sample_q; }
  default_action : sample_q;
  size : 1;
}

reaction rl_react(reg q_sample, reg tx_bytes) {
  // Tabular Q-learning (TD control) over queue depth. Action a sets the
  // threshold to 2 << a packets, 2 to 128. The state is the depth's
  // bucket: empty, 1-2, 3-7, 8-15, 16-31, 32-63, 64-127, 128 or more.
  // Q-values, rewards and epsilon are fixed point with 32 fractional
  // bits, exact while a window carries under 2^31 bits.
  int link_bps = 1000000000;
  int one = 1 << 32;
  static int q[56];
  static int eps = 3 * (1 << 32) / 10;
  static int primed = 0;
  static int last_tx = 0, last_t = 0, last_s = 0, last_a = 0;
  int depth = q_sample[0];
  int s = (depth > 0) + (depth > 2) + (depth > 7) + (depth > 15) +
          (depth > 31) + (depth > 63) + (depth > 127);
  int t = now();
  if (primed) {
    int dt = t - last_t;
    if (dt <= 0) return;
    // Reward: the bottleneck's utilization over the window, at most 1,
    // minus the depth bucket over 16.
    int bits = (tx_bytes[0] - last_tx) * 8;
    int cap = dt * link_bps / 1000000000;
    int util = one;
    if (bits < cap) util = bits * one / cap;
    int reward = util - s * one / 16;
    // Q(s, a) += alpha * (reward + gamma * max Q(s', .) - Q(s, a)) for
    // the previous step, with alpha = 1/5 and gamma = 9/10.
    int next = q[7 * s];
    for (int a = 1; a < 7; a++) next = max(next, q[7 * s + a]);
    int i = 7 * last_s + last_a;
    q[i] += (reward + next * 9 / 10 - q[i]) / 5;
    // Exploration decays by 0.999 per update, to a floor of 0.02.
    if (eps > one / 50) eps = max(eps * 999 / 1000, one / 50);
    // The learned threshold is the greedy one for a 16-31 packet queue.
    int mid = 0;
    for (int a = 1; a < 7; a++) if (q[28 + a] > q[28 + mid]) mid = a;
    emit("rl.update", 2 << mid, reward);
  }
  // Epsilon-greedy: explore with probability eps, else take the best
  // action, the lowest on a tie.
  int act = 0;
  if (rand(one) < eps) {
    act = rand(7);
  } else {
    for (int a = 1; a < 7; a++) if (q[7 * s + a] > q[7 * s + act]) act = a;
  }
  primed = 1;
  last_tx = tx_bytes[0];
  last_t = t;
  last_s = s;
  last_a = act;
  ${ecn_thresh} = 2 << act;
}

control ingress {
  apply(route);
}
control egress {
  if (standard_metadata.enq_qdepth > ${ecn_thresh}) {
    apply(marker);
  }
  apply(sampler);
}
`

// rlLinkRate is the line of RLECNP4R's rl_react that names the
// bottleneck rate in bits per second; as written it fits RunRL's 1 Gbps
// link, and BuildRL writes each rig's own.
const rlLinkRate = "int link_bps = 1000000000;"

// RLRig is a ready-to-run use case #4 deployment.
type RLRig struct {
	Sim   *sim.Simulator
	Sw    *rmt.Switch
	Drv   *driver.Driver
	Plan  *compiler.Plan
	Agent *core.Agent
	Net   *netsim.Network
	// Events is every event the reaction emitted, in order.
	Events []core.Event
}

// BuildRL compiles and wires use case #4 with the given dialogue
// pacing and bottleneck rate on port 1.
func BuildRL(seed int64, td time.Duration, bottleneckBps float64) (*RLRig, error) {
	src := strings.Replace(RLECNP4R, rlLinkRate, fmt.Sprintf("int link_bps = %d;", int64(bottleneckBps)), 1)
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	cfg := rmt.DefaultConfig()
	cfg.QueueCapacity = 256
	sw, err := rmt.New(s, plan.Prog, cfg)
	if err != nil {
		return nil, err
	}
	sw.SetPortBandwidth(1, bottleneckBps)
	drv := driver.New(s, sw, driver.DefaultCostModel())
	rig := &RLRig{Sim: s, Sw: sw, Drv: drv, Plan: plan}
	rig.Agent = core.NewAgent(s, drv, plan, core.Options{
		Pacing:    td,
		EventSink: func(ev core.Event) { rig.Events = append(rig.Events, ev) },
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			// dst → port, in ascending address order: a slice, not a map, so
			// entry handles repeat from run to run.
			for _, r := range [][2]uint64{{1, 0}, {2, 1}} {
				if _, err := drv.AddEntry(p, "route", rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(r[0])}, Action: "route_pkt", Data: []uint64{r[1]},
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	rig.Net = netsim.New(s, sw, 25e9, 5*time.Microsecond)
	return rig, nil
}

// RLResult summarizes an RL tuning run.
type RLResult struct {
	// EarlyReward and LateReward are mean rewards over the first and
	// last quarter of the run: learning should not degrade them.
	EarlyReward float64
	LateReward  float64
	// Updates counts TD updates.
	Updates uint64
	// FinalGreedyThreshold is the greedy threshold for a 16-31 packet
	// queue after the last update.
	FinalGreedyThreshold uint64
	// DeliveredBytes is the DCTCP flow's goodput.
	DeliveredBytes uint64
}

// RunRL drives a DCTCP flow through a 1 Gbps tuned bottleneck and
// reports the learning outcome.
func RunRL(seed int64, duration time.Duration) (*RLResult, error) {
	rig, err := BuildRL(seed, 50*time.Microsecond, 1e9)
	if err != nil {
		return nil, err
	}
	return rig.RunRL(duration)
}

// RunRL drives the rig's DCTCP flow for duration.
func (rig *RLRig) RunRL(duration time.Duration) (*RLResult, error) {
	a := rig.Net.AddHost(0, 1)
	b := rig.Net.AddHost(1, 2)
	wire := func(h *netsim.Host) {
		h.Rx = func(pkt *packet.Packet) {
			if f, ok := pkt.Payload.(*netsim.TCPFlow); ok {
				f.HandlePacket(pkt, h)
			}
		}
	}
	wire(a)
	wire(b)
	tcfg := netsim.DefaultTCPConfig()
	tcfg.DCTCP = true
	flow := netsim.NewTCPFlow(a, FM, 2, tcfg)
	rig.Agent.Start()
	flow.Start()
	rig.Sim.RunFor(duration)
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	if err := rig.Agent.Err(); err != nil {
		return nil, err
	}
	res := &RLResult{DeliveredBytes: flow.DeliveredBytes}
	var rewards []float64
	for _, ev := range rig.Events {
		if ev.Kind == EventRLUpdate {
			rewards = append(rewards, float64(int64(ev.Val))/(1<<32))
			res.FinalGreedyThreshold = ev.Key
		}
	}
	res.Updates = uint64(len(rewards))
	if len(rewards) >= 8 {
		q := len(rewards) / 4
		res.EarlyReward = stats.Mean(rewards[:q])
		res.LateReward = stats.Mean(rewards[len(rewards)-q:])
	}
	return res, nil
}
